"""DPP kernel construction and almost-block-diagonal structure handling.

A kernel is *almost block diagonal* when it is block tridiagonal and each
off-diagonal block is nonzero only in a bottom-left corner of bounded size.
``gamma_partition`` takes every cut whose cross-cut nonzeros fit in a
gamma x gamma corner, each cut on its own, so at gamma > 0 an entry can
cross two cuts and couple blocks that are not adjacent; block-wise MAP is
exact iff no pick of blocks <= b - 2 has an entry in block b.
``generate_synthetic_kernel`` draws random kernels with a known
ground-truth partition for benchmarking.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from . import matrix_core as mc

DEFAULT_EPS_ZERO = 1e-12
# rows per panel of the reach scan; keeps its temporaries small
REACH_TILE = 64
# columns at the end of each row's window that CandidateKernel.prefix_reach
# reads first
REACH_EDGE = 8


@dataclass(frozen=True)
class BlockPartition:
    """Consecutive block sizes plus the corner bound gamma."""

    block_sizes: Tuple[int, ...]
    gamma: int = 0

    def __post_init__(self):
        if not self.block_sizes or not all(_is_integer(s, 1) for s in self.block_sizes):
            raise ValueError("block sizes must be positive integers")
        _check_gamma(self.gamma)

    @property
    def n(self) -> int:
        return int(sum(self.block_sizes))

    @property
    def m(self) -> int:
        return len(self.block_sizes)

    def cuts(self) -> np.ndarray:
        """Interior cut positions (index of the first element of each block after the first)."""
        return np.cumsum(self.block_sizes)[:-1]

    def ranges(self):
        """(start, stop) half-open index range of each block."""
        stops = np.cumsum(self.block_sizes)
        starts = stops - np.asarray(self.block_sizes)
        return list(zip(starts.tolist(), stops.tolist()))

    def to_json_dict(self) -> dict:
        return {"block_sizes": list(self.block_sizes), "gamma": int(self.gamma)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "BlockPartition":
        return cls(tuple(d["block_sizes"]), d["gamma"])


@dataclass(frozen=True, eq=False)
class DppKernel:
    """A dense kernel L, checked by mc.as_matrix once, here, then held as a
    read-only view: the dense adapter of CandidateKernel's interface (shape,
    diagonal(), row j as k[j], block, cross, prefix_reach; numpy reads it as
    L).  _wrap holds an array of an already-checked kernel (a block, a
    Schur-updated block) unscanned."""

    L: np.ndarray

    def __post_init__(self):
        self._hold(mc.as_matrix(self.L))

    @classmethod
    def _wrap(cls, L: np.ndarray) -> "DppKernel":
        return object.__new__(cls)._hold(L)

    def _hold(self, L) -> "DppKernel":
        L = L.view()
        L.flags.writeable = False
        object.__setattr__(self, "L", L)
        return self

    @property
    def shape(self) -> Tuple[int, int]:
        return self.L.shape

    def diagonal(self) -> np.ndarray:
        return self.L.diagonal()

    def __getitem__(self, j) -> np.ndarray:
        return self.L[j]

    def block(self, a: int, b: int) -> "DppKernel":
        """L[a:b, a:b] as a view; not scanned again."""
        return DppKernel._wrap(self.L[a:b, a:b])

    def cross(self, rows, cols) -> np.ndarray:
        """L[rows][:, cols], rows and cols each an index array or a slice."""
        if isinstance(rows, slice) or isinstance(cols, slice):
            return self.L[rows, cols]
        return self.L[np.ix_(rows, cols)]

    def prefix_reach(self, eps_zero: float) -> np.ndarray:
        return np.maximum.accumulate(_reach(self.L, eps_zero))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # numpy 1 calls __array__() or __array__(dtype); numpy 2 adds copy
        A = self.L if dtype is None else self.L.astype(dtype, copy=False)
        return A.copy() if copy else A


@dataclass(frozen=True)
class SyntheticKernelSpec:
    """Recipe for random almost-block-diagonal Gram kernels."""

    N: int = 500
    block_size_range: Tuple[int, int] = (10, 30)
    overlap_choices: Tuple[int, ...] = (0, 2, 4, 6)
    feature_dim: int = 50
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.block_size_range
        if not (1 <= lo <= hi):
            raise ValueError("block_size_range must satisfy 1 <= min <= max")
        if self.N < lo:
            raise ValueError("N smaller than the minimum block size")
        if any(g < 0 for g in self.overlap_choices):
            raise ValueError("overlaps must be non-negative")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be positive")


def build_quality_diversity_kernel(q, S) -> DppKernel:
    """L = diag(q) @ S @ diag(q).  S must pass mc.as_psd: S + PSD_TOL *
    max(1, max_i S_ii) * I has a Cholesky factor.  L is scaled into a copy
    of the checked S, then checked only for overflow."""
    L = mc.as_psd(S).copy()
    q = np.asarray(q, dtype=np.float64).ravel()
    if q.size != L.shape[0]:
        raise ValueError("quality vector and similarity matrix sizes differ")
    if np.any(q <= 0.0) or not np.all(np.isfinite(q)):
        raise ValueError("quality values must be positive and finite")
    L *= q[:, None]
    L *= q
    if not np.isfinite(L).all():
        raise ValueError("quality values overflow the kernel")
    return DppKernel._wrap(L)


def check_eps_zero(eps_zero: float) -> None:
    """Reject an eps_zero that is negative or NaN: |L_ij| > NaN is false
    everywhere, so no entry would count as nonzero."""
    if not eps_zero >= 0:
        raise ValueError("eps_zero must be non-negative")


def _is_integer(x, lo: int) -> bool:
    """x is an int or a numpy integer scalar, not a bool, and x >= lo."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= lo


def _check_gamma(gamma) -> None:
    if not _is_integer(gamma, 0):
        raise ValueError("gamma must be a non-negative integer")


def gaussian_position_similarity(times, sigma: float,
                                 eps_zero: float = DEFAULT_EPS_ZERO) -> np.ndarray:
    """S_ij = exp(-(t_i - t_j)^2 / sigma^2), truncated to exact zeros below eps_zero.

    The truncation is what produces the almost-block-diagonal structure when
    positions cluster.  S is a PSD Gaussian kernel before it, and by Weyl it
    lowers lambda_min by at most delta = 2 eps_zero / (1 - exp(-2 r h / sigma^2)),
    r = sigma sqrt(ln(1/eps_zero)), h the least spacing: lambda_min(S) >= -delta.
    S is the dense CandidateKernel of unit qualities, so its entries are that
    kernel's formula.
    """
    t = np.asarray(times, dtype=np.float64).ravel()
    return np.asarray(CandidateKernel(t, np.ones(t.size), sigma, eps_zero))


def _gaussian_entries(t_rows, q_rows, t_cols, q_cols, sigma: float,
                      eps_zero: float, out=None) -> np.ndarray:
    """The one formula of a CandidateKernel's entries, row form:
    ((S(t_r - t_c), zeroed below eps_zero, 1 where r = c) * q_r) * q_c, in
    one buffer (out, if given).  Row times and qualities broadcast against
    column ones (a scalar for one row, a column vector for several).  Times
    are strictly increasing, so t_r - t_c is 0 only on the diagonal, where
    S is exp(-0) = 1 unless an eps_zero above 1 zeroed it."""
    E = np.subtract(t_rows, t_cols, out=out)
    E *= E
    E /= -(sigma * sigma)
    np.exp(E, out=E)
    E[E < eps_zero] = 0.0
    if eps_zero > 1.0:
        E[t_rows == t_cols] = 1.0
    E *= q_rows
    E *= q_cols
    return E


@dataclass(frozen=True, eq=False)
class CandidateKernel:
    """L = diag(q) S diag(q) over candidate times t, held as t and q alone.

    S is gaussian_position_similarity's: S_ij = exp(-(t_i - t_j)^2 / sigma^2),
    zeroed below eps_zero, S_ii = 1.  Times, qualities, sigma and eps_zero are
    checked once, here; the kernel is immutable.  Every entry comes from
    _gaussian_entries, so rows, blocks and the dense L (numpy reads the
    kernel as L through __array__) agree to the bit.  Row j is nonzero only
    in columns [lo_j, hi_j), the candidates within r = sigma sqrt(ln(1/eps_zero))
    of t_j that np.searchsorted finds; r carries a slack that covers float
    rounding, and eps_zero = 0 makes the window unbounded.  Inference and
    partitions read it through the interface DppKernel shares, with no n x n L
    (but for greedy_map's certificate on at most CERTIFY_MAX_DIM items).
    """

    times: np.ndarray
    quality: np.ndarray
    sigma: float
    eps_zero: float = DEFAULT_EPS_ZERO
    _lo: np.ndarray = field(init=False, repr=False)
    _hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = np.array(self.times, dtype=np.float64).ravel()
        q = np.array(self.quality, dtype=np.float64).ravel()
        if not np.isfinite(t).all():
            raise ValueError("times contain non-finite values")
        if (t[1:] <= t[:-1]).any():
            raise ValueError("times must be strictly increasing")
        if not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        check_eps_zero(self.eps_zero)
        if q.size != t.size:
            raise ValueError("quality vector and times sizes differ")
        with np.errstate(over="ignore"):
            q_ok = (q > 0.0) & (q * q < np.inf)      # NaN fails both
        if not q_ok.all():
            raise ValueError("quality values must be positive and finite, "
                             "with finite squares")
        # S_ij >= eps_zero iff |t_i - t_j| <= r; the relative and absolute
        # slack keep every entry that rounding lifts to eps_zero inside
        sigma, eps_zero = float(self.sigma), float(self.eps_zero)
        log_inv = max(-math.log(eps_zero), 0.0) if eps_zero > 0 else math.inf
        r = sigma * math.sqrt(log_inv * (1.0 + 1e-6) + 1e-12)
        self._set(t, q, sigma, eps_zero, np.searchsorted(t, t - r),
                  np.searchsorted(t, t + r, side="right"))

    def _set(self, t, q, sigma, eps_zero, lo, hi) -> "CandidateKernel":
        for a in (t, q, lo, hi):
            a.flags.writeable = False
        for name, value in zip(("times", "quality", "sigma", "eps_zero", "_lo", "_hi"),
                               (t, q, sigma, eps_zero, lo, hi)):
            object.__setattr__(self, name, value)
        return self

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.times.size, self.times.size)

    def diagonal(self) -> np.ndarray:
        return self.quality * self.quality

    def cross(self, rows, cols) -> np.ndarray:
        """Dense L[rows][:, cols], rows and cols each an index array or a
        slice; or, for a 2-D index array cols with a row per entry of rows,
        the entries L[rows[i], cols[i, k]]."""
        return _gaussian_entries(self.times[rows, None], self.quality[rows, None],
                                 self.times[cols], self.quality[cols],
                                 self.sigma, self.eps_zero)

    def __getitem__(self, j) -> np.ndarray:
        """Row j of L, computed over its window only."""
        j = operator.index(j)
        lo, hi = self._lo[j], self._hi[j]
        row = np.zeros(self.times.size)
        _gaussian_entries(self.times[j], self.quality[j], self.times[lo:hi],
                          self.quality[lo:hi], self.sigma, self.eps_zero, row[lo:hi])
        return row

    def block(self, a: int, b: int) -> "CandidateKernel":
        """The kernel over candidates a..b-1, that is L[a:b, a:b]; not re-checked."""
        return object.__new__(CandidateKernel)._set(
            self.times[a:b], self.quality[a:b], self.sigma, self.eps_zero,
            np.maximum(self._lo[a:b] - a, 0), np.minimum(self._hi[a:b], b) - a)

    def prefix_reach(self, eps_zero: float) -> np.ndarray:
        """M[r] = max of reach[i] over i <= r, reach[i] the last column c >= i
        with L_ic > eps_zero, or i.

        L_ic is 0 right of row i's window, and S falls off fast at its end,
        so each row's reach is sought first among the REACH_EDGE columns that
        end its window, all rows in one pass.  A row with nothing above
        eps_zero there (small qualities) is scanned further left, from the
        running max on, since a reach below it cannot raise M; such rows go
        REACH_TILE at a time, so no temporary exceeds REACH_TILE x n.
        """
        n = self.times.size
        rows = np.arange(n)
        edge = np.maximum(self._hi - REACH_EDGE, 0)
        cols = np.minimum(edge[:, None] + np.arange(REACH_EDGE), n - 1)
        nz = self.cross(slice(None), cols) > eps_zero
        reach = np.maximum(np.where(nz, cols, -1).max(axis=1), rows)
        M = np.maximum.accumulate(reach)
        still_open = np.flatnonzero(~nz.any(axis=1) & (edge > rows + 1))
        for i in range(0, still_open.size, REACH_TILE):
            r = still_open[i:i + REACH_TILE]
            c0 = np.maximum(np.where(r > 0, M[r - 1], -1) + 1, r + 1)
            c1 = edge[r]
            keep = c1 > c0
            r, c0, c1 = r[keep], c0[keep], c1[keep]
            if r.size:
                cols = np.minimum(c0[:, None] + np.arange((c1 - c0).max()), c1[:, None] - 1)
                nz = self.cross(r, cols) > eps_zero
                reach[r] = np.maximum(reach[r], np.where(nz, cols, -1).max(axis=1))
                M = np.maximum.accumulate(reach)
        return M

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # the dense L, for tests and callers that want a matrix; always a
        # new array, so any copy request is met
        A = self.cross(slice(None), slice(None))
        return A if dtype is None else A.astype(dtype, copy=False)


def _reach(L: np.ndarray, eps_zero: float) -> np.ndarray:
    """reach[r]: the last column c >= r with |L_rc| > eps_zero, or r itself.

    Row panels P = L[i:i+REACH_TILE, i:] cover the upper triangle; the few
    entries left of the diagonal they hold never exceed r.  Each panel is
    read once with (P != 0).any(axis=0), mc._asymmetry's occupancy test, for
    its last column holding an entry != 0, and |L_rc| > eps_zero is tested
    only up to it: as eps_zero >= 0, no 0 or -0.0 right of it passes, and a
    NaN is != 0, so it stays in the tested columns, where |NaN| > eps_zero
    is false.
    """
    n = L.shape[0]
    reach = np.arange(n)
    for i in range(0, n, REACH_TILE):
        P = L[i:i + REACH_TILE, i:]
        held = np.flatnonzero((P != 0).any(axis=0))
        if not held.size:
            continue                # an all-zero panel: every row keeps r
        nz = np.abs(P[:, :held[-1] + 1]) > eps_zero
        last = nz.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
        # argmax of an all-False row is 0, so test the entry it points at:
        # a row with no nonzero keeps reach r
        last = np.where(nz[np.arange(nz.shape[0]), last], i + last, 0)
        panel = reach[i:i + REACH_TILE]
        np.maximum(panel, last, out=panel)
    return reach


def _invalid_cuts(A, gamma: int, eps_zero: float) -> np.ndarray:
    """Boolean mask over cut positions 0..n-1 (entry p marks the cut before
    row p; entry 0 is unused).

    Cut p is valid at gamma iff every entry |L_rc| > eps_zero with r < p <= c
    lies in the gamma x gamma corner r >= p - gamma, c < p + gamma.  With
    M the prefix max of _reach, p is invalid iff M[p-1] >= p + gamma (a row
    above the cut reaches too far right) or M[p-gamma-1] >= p (a row above
    the corner crosses the cut).  A is a kernel: it gives M (prefix_reach).
    """
    check_eps_zero(eps_zero)
    n = A.shape[0]
    M = A.prefix_reach(eps_zero)
    p = np.arange(n)
    invalid = M[p - 1] >= p + gamma
    k = max(n - gamma - 1, 0)          # cuts p >= gamma + 1
    invalid[n - k:] |= M[:k] >= p[n - k:]
    invalid[:1] = False
    return invalid


def as_kernel(L):
    """L itself if it is a DppKernel or a CandidateKernel, else DppKernel(L=L),
    whose construction is the one mc.as_matrix scan."""
    return L if isinstance(L, (DppKernel, CandidateKernel)) else DppKernel(L=L)


def gamma_partition(L, gamma: int, eps_zero: float = DEFAULT_EPS_ZERO) -> BlockPartition:
    """Finest partition whose cross-cut nonzeros all fit in gamma x gamma corners.

    Cut validity is independent across cuts, so taking every valid cut
    attains the maximum block count.  A CandidateKernel's reach comes from
    its times (prefix_reach), with no n x n array.  A raw array is read
    through mc.as_square only: a symmetry scan would about double the cost.
    On the benchmark's N = 2000 map_sparse kernels (1 BLAS thread, best of
    15, three runs on a shared 2-core host) the reach took 1.9-2.7 ms and
    mc.as_matrix's scan 2.8-4.1 ms.
    """
    if not isinstance(L, (DppKernel, CandidateKernel)):
        L = DppKernel._wrap(mc.as_square(L))
    _check_gamma(gamma)
    n = L.shape[0]
    # entry 0 of the mask is always False, so the bounds start at 0
    bounds = np.flatnonzero(~_invalid_cuts(L, gamma, eps_zero)).tolist() + [n]
    return BlockPartition(tuple(np.diff(bounds).tolist()), gamma)


def validate_partition(L, P: BlockPartition,
                       eps_zero: float = DEFAULT_EPS_ZERO) -> bool:
    """True iff every cut of P is valid at P.gamma: a cut of gamma_partition."""
    Q = gamma_partition(L, P.gamma, eps_zero)
    if P.n != Q.n:
        raise ValueError("partition size does not match kernel dimension")
    return bool(np.isin(P.cuts(), Q.cuts()).all())


def generate_synthetic_kernel(spec: SyntheticKernelSpec):
    """Random almost-block-diagonal Gram kernel with its ground-truth partition.

    Uses numpy's default_rng (PCG64), so outputs are reproducible across
    platforms for a fixed seed.  Masking a Gram matrix can break PSD, so a
    minimal diagonal shift is applied afterwards.
    """
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.block_size_range

    sizes = []
    total = 0
    while total < spec.N:
        # the last block absorbs the remainder
        s = min(int(rng.integers(lo, hi + 1)), spec.N - total)
        sizes.append(s)
        total += s

    overlaps = [int(rng.choice(np.asarray(spec.overlap_choices)))
                for _ in range(len(sizes) - 1)]
    # Corners must fit inside the two adjacent blocks.
    overlaps = [min(g, sizes[i], sizes[i + 1]) for i, g in enumerate(overlaps)]

    B = rng.standard_normal((spec.feature_dim, spec.N))
    L = B.T @ B

    mask = np.zeros((spec.N, spec.N), dtype=bool)
    stops = np.cumsum(sizes)
    starts = stops - np.asarray(sizes)
    for a, b in zip(starts, stops):
        mask[a:b, a:b] = True
    for c, g in zip(stops, overlaps):   # a corner of 0 sets nothing
        mask[c - g:c, c:c + g] = True
        mask[c:c + g, c - g:c] = True
    # in place where it can be: each N x N temporary is a fresh 8 N^2 bytes
    L[~mask] = 0.0
    L = L + L.T
    L *= 0.5
    L = mc.psd_repair(L)

    gamma = max(overlaps) if overlaps else 0
    # psd_repair checked L: hold it as it is, with no second scan or copy
    return DppKernel._wrap(L), BlockPartition(tuple(sizes), gamma)
