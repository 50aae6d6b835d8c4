"""MAP inference engines for DPPs.

``greedy_map`` is the classic greedy heuristic on the conditional kernel;
``blockwise_map`` runs it (or any plug-in sub-solver) block by block over an
almost-block-diagonal kernel, conditioning each block on the previous
block's selection through a Schur-complement update.  ``exhaustive_map``
enumerates all subsets and serves as the oracle in tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Callable, List, Tuple

import numpy as np

from . import kernel_model as km
from . import matrix_core as mc
from .errors import SingularToTolerance
from .kernel_model import BlockPartition

# Diagonal entries at or below this are never selectable (determinant-zero
# contributors).
UNSELECTABLE_DIAG = 1e-12

# Largest dimension exhaustive_map enumerates, and subsets per batched
# determinant call; together they bound its memory to a few tens of MB.
EXHAUSTIVE_MAX_DIM = 20
EXHAUSTIVE_CHUNK = 4096

# Least rows per Cholesky in log_prob_unnormalized: many tiny ones cost more
LOGPROB_CHUNK = 64

# Largest kernel greedy_map tries to certify whole with one Cholesky.  A
# failed factor is wasted work: on random SPD kernels (1 BLAS thread) it cost
# 6/19/49/85% of the pick loop at n = 64/128/256/512.  On the benchmark's
# map_dense block-wise ops, caps 64/128/256 cut a pass by 16-19/22-24/24-27%
# (input sets 1 and 2, min of 6); 256 adds 2-3 points for more than twice
# the cost of each failed check.
CERTIFY_MAX_DIM = 128

# a block's kernel (DppKernel or CandidateKernel, read by np.asarray) -> picks
SubSolver = Callable[[km.DppKernel], np.ndarray]


def greedy_map(L, require_initial_gain: bool = False) -> np.ndarray:
    """Greedy MAP selection.

    The first pick is the unconditional diagonal argmax above
    UNSELECTABLE_DIAG (the classic initialization); set
    require_initial_gain=True to also demand a probability gain (diagonal
    > 1) for the first pick.  Every later pick must have conditional
    diagonal > 1.  Ties break to the lowest index.

    Certificate first: if N <= CERTIFY_MAX_DIM and every diagonal entry
    exceeds 1, mc.factors_shifted tries one Cholesky of
    L - (1 + mc.PSD_TOL * max(1, max L_ii)) I on a dense copy of L.  If it
    succeeds, lambda_min(L) > 1, so every conditional diagonal exceeds 1,
    greedy takes every item and the whole set is returned (the margin is far
    above greedy's rounding at that N).  If it fails, the loop below runs as
    if it had not been tried.

    Incremental Cholesky (Chen, Zhang & Zhou, NeurIPS 2018): row t of C is
    row t of the Cholesky factor of the picks, and d holds the conditional
    diagonal given the picks.  Conditional diagonals only shrink and every
    pick after the first needs one above 1, so after the first pick, the
    global argmax, only G, the items with L_ii > 1, can be picked: d and C
    span G alone, and a first pick with diagonal at most 1 comes alone.
    O(|G| k^2) time and O(k |G|) memory for k picks.  L goes through
    km.as_kernel, and the loop reads only its diagonal and one row per pick;
    no N x N array is built unless the certificate is tried.
    """
    A = km.as_kernel(L)
    d = A.diagonal()
    G = (d > 1.0).nonzero()[0]
    if 0 < G.size == d.size <= CERTIFY_MAX_DIM and mc.factors_shifted(
            A, -(1.0 + mc.PSD_TOL * max(1.0, d.max()))):
        return np.arange(d.size, dtype=np.int64)
    max_picks = G.size or min(d.size, 1)
    if 0 < G.size < d.size:
        items, d = G, d[G]
    else:   # every item or none is in G: the loop runs over all, no gather
        items, G, d = range(d.size), slice(None), d.copy()
    # C starts at 32 rows and doubles up to the bound on the picks
    C = np.empty((min(max_picks, 32), d.size))
    picks: List[int] = []
    floor = 1.0 if require_initial_gain else UNSELECTABLE_DIAG
    for k in range(max_picks):
        j = int(d.argmax())
        dj = d[j]
        if not dj > floor:
            break
        e = (A[items[j]][G] - np.dot(C[:k, j], C[:k])) * (1.0 / math.sqrt(dj))
        if k == C.shape[0]:
            # in place (realloc), as no view of C outlives an iteration; a
            # new buffer per doubling made glibc keep megabytes of freed heap
            C.resize((min(2 * k, max_picks), d.size), refcheck=False)
        C[k] = e
        d -= e * e
        d[j] = -np.inf
        picks.append(items[j])
        floor = 1.0
    picks.sort()
    return np.array(picks, dtype=np.int64)


@dataclass
class BlockTrace:
    """What happened in one block of a block-wise inference run."""

    span: Tuple[int, int]   # [start, stop) global index range
    selected: np.ndarray    # global indices chosen in this block
    ms: float               # wall time of the block's Schur step and sub-solver


@dataclass
class InferenceTrace:
    blocks: List[BlockTrace] = field(default_factory=list)


def blockwise_map(L, P: BlockPartition, f: SubSolver = greedy_map,
                  collect_trace: bool = True) -> Tuple[np.ndarray, InferenceTrace]:
    """Sequential block-wise MAP inference.

    Each block's sub-kernel is the original diagonal block minus a Schur
    correction through the previous block's selected items.  That is exact
    iff no pick of blocks <= b - 2 has an entry in block b, which neither
    this loop nor gamma_partition at gamma > 0 ensures.  The
    correction touches only the block's leading columns up to the last one
    with a nonzero cross entry from those items, and is skipped when there
    is none, so exact zeros stay exact.  f gets that block, with the
    corrected part symmetrised; its negative eigenvalues are float noise
    (acceptance criterion 02 bounds them at -1e-8 times the largest
    diagonal entry of L).

    L goes through km.as_kernel: a raw array is scanned once, a kernel not
    at all, and f gets each block's kernel A.block(start, stop) unscanned,
    so a block's symmetry tolerance scales with max(1, max |L|).  A block
    is copied, into a km.DppKernel, only when the Schur step writes to it
    (entries in (0, eps_zero] of a km.CandidateKernel can make that happen
    even across a gamma = 0 cut).  The trace records each block's span, its
    global picks and its time in ms, and keeps no matrix; collect_trace=False
    drops those records.  The picks are a strictly increasing int64 array;
    f's picks, in any order, go through mc.as_index_set: one out of range
    raises IndexError, a repeated or non-integer one ValueError.
    """
    A = km.as_kernel(L)
    if P.n != A.shape[0]:
        raise ValueError("partition does not match kernel dimension")
    trace = InferenceTrace()
    selected: List[np.ndarray] = []
    # the previous block's picks, global and local, and its reduced kernel
    prev_sel = prev_local = np.empty(0, dtype=np.int64)
    prev_reduced = None
    for start, stop in P.ranges():
        t0 = time.perf_counter()
        reduced = A.block(start, stop)
        if prev_sel.size:
            cross = A.cross(prev_sel, slice(start, stop))
            cols = np.flatnonzero(cross.any(axis=0))
            if cols.size:
                c = int(cols[-1]) + 1
                # no pivot tolerance: greedy may pick items just above
                # UNSELECTABLE_DIAG, and they must still condition this block.
                # An LU solve in place of a triangular one: on systems this
                # small a threaded BLAS trsm costs far more than the solve.
                try:
                    F = np.linalg.cholesky(prev_reduced.cross(prev_local, prev_local))
                except np.linalg.LinAlgError:
                    raise SingularToTolerance(
                        f"selected reduced kernel of the block before [{start}, "
                        f"{stop}) is not positive definite") from None
                X = np.linalg.solve(F, cross[:, :c])
                block = np.array(reduced)   # a new dense array to write to
                S = block[:c, :c] - X.T @ X
                block[:c, :c] = 0.5 * (S + S.T)
                reduced = km.DppKernel._wrap(block)
        local = mc.as_index_set(np.sort(f(reduced)), stop - start)
        global_sel = local + start
        if collect_trace:
            trace.blocks.append(BlockTrace(
                (start, stop), global_sel, (time.perf_counter() - t0) * 1e3))
        selected.append(global_sel)
        prev_sel, prev_local, prev_reduced = global_sel, local, reduced
    return np.concatenate(selected), trace


def exhaustive_map(L) -> np.ndarray:
    """Exact MAP by enumeration of all subsets.

    Ties break to the smaller cardinality, then the lexicographically
    smallest index list.  Refuses dimensions above EXHAUSTIVE_MAX_DIM
    before it densifies L.
    """
    kern = km.as_kernel(L)
    n = kern.shape[0]
    if n > EXHAUSTIVE_MAX_DIM:
        raise ValueError(f"dimension {n} exceeds exhaustive limit {EXHAUSTIVE_MAX_DIM}")
    A = np.asarray(kern)
    best, best_det = np.empty(0, dtype=np.int64), 1.0  # the empty set, det 1
    for k in range(1, n + 1):
        subsets = combinations(range(n), k)   # lexicographic order
        while True:
            idx = np.fromiter(chain.from_iterable(islice(subsets, EXHAUSTIVE_CHUNK)),
                              dtype=np.int64).reshape(-1, k)
            if idx.shape[0] == 0:
                break
            dets = np.linalg.det(A[idx[:, :, None], idx[:, None, :]])
            j = int(np.argmax(dets))   # first of the chunk's maxima
            if dets[j] > best_det:
                best, best_det = idx[j], dets[j]
    return best


def log_prob_unnormalized(L, C) -> float:
    """log det of the selected submatrix; empty selection gives 0, singular -inf.

    Only the k x k selection B is read: a kernel's cross(idx, idx) as it is,
    a raw array's A[np.ix_(idx, idx)] through one mc.as_matrix scan.  B is
    cut where no exact nonzero crosses (gamma_partition's gamma=0 rule at
    eps_zero 0), the pieces merge into chunks of at least LOGPROB_CHUNK rows,
    and each diagonal chunk gets one LAPACK Cholesky, with no pivot
    tolerance.  Exact, as B is block diagonal over the chunks: it is positive
    definite iff every chunk is (else -inf), and its log det is their sum.
    """
    kernel = isinstance(L, (km.DppKernel, km.CandidateKernel))
    A = L if kernel else mc.as_square(L)
    idx = mc.as_index_set(C, A.shape[0])
    if idx.size == 0:
        return 0.0
    B = (km.DppKernel._wrap(A.cross(idx, idx)) if kernel
         else km.DppKernel(L=A[np.ix_(idx, idx)]))
    k, start, pivots = idx.size, 0, []
    # entry 0 of the cut mask is always False, so skip it
    for stop in np.flatnonzero(~km._invalid_cuts(B, 0, 0.0))[1:].tolist() + [k]:
        if stop - start < LOGPROB_CHUNK and stop < k:
            continue
        try:
            F = np.linalg.cholesky(B.L[start:stop, start:stop])
        except np.linalg.LinAlgError:
            return float("-inf")
        pivots.append(np.diagonal(F))
        start = stop
    return float(2.0 * np.sum(np.log(np.concatenate(pivots))))
