"""DPP kernel construction and almost-block-diagonal structure handling.

A kernel is *almost block diagonal* when it is block tridiagonal and each
off-diagonal block is nonzero only in a bottom-left corner of bounded size.
``gamma_partition`` finds the finest such partition for a given corner
bound; ``generate_synthetic_kernel`` draws random kernels with a known
ground-truth partition for benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import matrix_core as mc

DEFAULT_EPS_ZERO = 1e-12
# rows per panel of the reach scan; keeps its temporaries small
REACH_TILE = 64


@dataclass(frozen=True)
class BlockPartition:
    """Consecutive block sizes plus the corner bound gamma."""

    block_sizes: Tuple[int, ...]
    gamma: int = 0

    def __post_init__(self):
        if not self.block_sizes or not all(
                isinstance(s, (int, np.integer)) and s >= 1 for s in self.block_sizes):
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


@dataclass
class DppKernel:
    """PSD kernel matrix and optional quality factors; numpy reads it as L."""

    L: np.ndarray
    quality: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.L.shape[0]

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


def _scale_by_quality(q, S: np.ndarray) -> DppKernel:
    """DppKernel of L = diag(q) @ S @ diag(q), written over the float64 S."""
    q = np.asarray(q, dtype=np.float64).ravel()
    if q.size != S.shape[0]:
        raise ValueError("quality vector and similarity matrix sizes differ")
    if np.any(q <= 0.0) or not np.all(np.isfinite(q)):
        raise ValueError("quality values must be positive and finite")
    S *= q[:, None]
    S *= q
    return DppKernel(L=S, quality=q.copy())


def build_quality_diversity_kernel(q, S) -> DppKernel:
    """L = diag(q) @ S @ diag(q), keeping q alongside L.  S must pass
    mc.as_psd: S + PSD_TOL * max(1, max_i S_ii) * I has a Cholesky factor."""
    return _scale_by_quality(q, mc.as_psd(S).copy())


def check_eps_zero(eps_zero: float) -> None:
    """Reject an eps_zero that is negative or NaN: |L_ij| > NaN is false
    everywhere, so no entry would count as nonzero."""
    if not eps_zero >= 0:
        raise ValueError("eps_zero must be non-negative")


def _check_gamma(gamma) -> None:
    if not isinstance(gamma, (int, np.integer)) or gamma < 0:
        raise ValueError("gamma must be a non-negative integer")


def gaussian_position_similarity(times, sigma: float,
                                 eps_zero: float = DEFAULT_EPS_ZERO) -> np.ndarray:
    """S_ij = exp(-(t_i - t_j)^2 / sigma^2), truncated to exact zeros below eps_zero.

    The truncation is what produces the almost-block-diagonal structure when
    positions cluster.  S is a PSD Gaussian kernel before it, and by Weyl it
    lowers lambda_min by at most delta = 2 eps_zero / (1 - exp(-2 r h / sigma^2)),
    r = sigma sqrt(ln(1/eps_zero)), h the least spacing: lambda_min(S) >= -delta.
    """
    t = np.asarray(times, dtype=np.float64).ravel()
    if not np.all(np.isfinite(t)):
        raise ValueError("times contain non-finite values")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
    check_eps_zero(eps_zero)
    S = t[:, None] - t[None, :]
    S *= S
    S /= -(sigma * sigma)
    np.exp(S, out=S)
    S[S < eps_zero] = 0.0
    np.fill_diagonal(S, 1.0)
    return S


def _reach(L: np.ndarray, eps_zero: float) -> np.ndarray:
    """reach[r]: the last column c >= r with |L_rc| > eps_zero, or r itself.

    Row panels L[i:i+REACH_TILE, i:] cover the upper triangle; the few
    entries left of the diagonal they hold never exceed r.
    """
    n = L.shape[0]
    reach = np.arange(n)
    for i in range(0, n, REACH_TILE):
        nz = np.abs(L[i:i + REACH_TILE, i:]) > eps_zero
        last = nz.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
        # argmax of an all-False row is 0, so test the entry it points at:
        # a row with no nonzero keeps reach r
        last = np.where(nz[np.arange(nz.shape[0]), last], i + last, 0)
        panel = reach[i:i + REACH_TILE]
        np.maximum(panel, last, out=panel)
    return reach


def _invalid_cuts(L: np.ndarray, gamma: int, eps_zero: float) -> np.ndarray:
    """Boolean mask over cut positions 0..n-1 (entry p marks the cut before
    row p; entry 0 is unused).

    Cut p is valid at gamma iff every entry |L_rc| > eps_zero with r < p <= c
    lies in the gamma x gamma corner r >= p - gamma, c < p + gamma.  With
    M the prefix max of _reach, p is invalid iff M[p-1] >= p + gamma (a row
    above the cut reaches too far right) or M[p-gamma-1] >= p (a row above
    the corner crosses the cut).
    """
    check_eps_zero(eps_zero)
    n = L.shape[0]
    M = np.maximum.accumulate(_reach(L, eps_zero))
    p = np.arange(n)
    invalid = M[p - 1] >= p + gamma
    k = max(n - gamma - 1, 0)          # cuts p >= gamma + 1
    invalid[n - k:] |= M[:k] >= p[n - k:]
    invalid[:1] = False
    return invalid


def gamma_partition(L, gamma: int, eps_zero: float = DEFAULT_EPS_ZERO) -> BlockPartition:
    """Finest partition whose cross-cut nonzeros all fit in gamma x gamma corners.

    Cut validity is independent across cuts, so taking every valid cut
    attains the maximum block count.
    """
    A = mc.as_square(L)
    _check_gamma(gamma)
    n = A.shape[0]
    # entry 0 of the mask is always False, so the bounds start at 0
    bounds = np.flatnonzero(~_invalid_cuts(A, gamma, eps_zero)).tolist() + [n]
    return BlockPartition(tuple(np.diff(bounds).tolist()), gamma)


def validate_partition(L, P: BlockPartition,
                       eps_zero: float = DEFAULT_EPS_ZERO) -> bool:
    """True iff every cut of P is valid at P.gamma."""
    A = mc.as_square(L)
    if P.n != A.shape[0]:
        raise ValueError("partition size does not match kernel dimension")
    return not _invalid_cuts(A, P.gamma, eps_zero)[P.cuts()].any()


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
        s = int(rng.integers(lo, hi + 1))
        if total + s > spec.N:
            s = spec.N - total  # last block absorbs the remainder
        sizes.append(s)
        total += s

    m = len(sizes)
    overlaps = [int(rng.choice(np.asarray(spec.overlap_choices)))
                for _ in range(m - 1)]
    # Corners must fit inside the two adjacent blocks.
    overlaps = [min(g, sizes[i], sizes[i + 1]) for i, g in enumerate(overlaps)]

    B = rng.standard_normal((spec.feature_dim, spec.N))
    L = B.T @ B

    mask = np.zeros((spec.N, spec.N), dtype=bool)
    stops = np.cumsum(sizes)
    starts = stops - np.asarray(sizes)
    for a, b in zip(starts, stops):
        mask[a:b, a:b] = True
    for i, g in enumerate(overlaps):
        c = stops[i]
        if g > 0:
            mask[c - g:c, c:c + g] = True
            mask[c:c + g, c - g:c] = True
    L = np.where(mask, L, 0.0)
    L = 0.5 * (L + L.T)
    L = mc.psd_repair(L, eps=1e-8)

    gamma = max(overlaps) if overlaps else 0
    return DppKernel(L=L), BlockPartition(tuple(sizes), gamma)
