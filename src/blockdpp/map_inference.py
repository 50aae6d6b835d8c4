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

SubSolver = Callable[[np.ndarray], np.ndarray]


def greedy_map(L, require_initial_gain: bool = False) -> np.ndarray:
    """Greedy MAP selection.

    The first pick is the unconditional diagonal argmax above
    UNSELECTABLE_DIAG (the classic initialization); set
    require_initial_gain=True to also demand a probability gain (diagonal
    > 1) for the first pick.  Every later pick must have conditional
    diagonal > 1.  Ties break to the lowest index.

    Incremental Cholesky (Chen, Zhang & Zhou, NeurIPS 2018): row t of C is
    row t of the Cholesky factor of the picks, extended over all N items,
    and d holds the conditional diagonal given the picks.  O(N k^2) time
    and O(k N) memory for k picks.
    """
    A = mc.as_matrix(L)
    d = A.diagonal().copy()
    # conditional diagonals only shrink, so only items with A_ii > 1 can
    # follow the first pick; C starts at 32 rows and doubles up to that bound
    max_picks = min(d.size, 1 + int(np.count_nonzero(d > 1.0)))
    C = np.empty((min(max_picks, 32), d.size))
    picks: List[int] = []
    floor = 1.0 if require_initial_gain else UNSELECTABLE_DIAG
    for k in range(max_picks):
        j = int(d.argmax())
        dj = d[j]
        if not dj > floor:
            break
        e = (A[j] - np.dot(C[:k, j], C[:k])) * (1.0 / math.sqrt(dj))
        if k == C.shape[0]:
            # in place (realloc), as no view of C outlives an iteration; a
            # new buffer per doubling made glibc keep megabytes of freed heap
            C.resize((min(2 * k, max_picks), d.size), refcheck=False)
        C[k] = e
        d -= e * e
        d[j] = -np.inf
        picks.append(j)
        floor = 1.0
    picks.sort()
    return np.array(picks, dtype=np.int64)


@dataclass
class BlockTrace:
    """What happened in one block of a block-wise inference run."""

    span: Tuple[int, int]                 # [start, stop) global index range
    reduced_kernel: np.ndarray            # conditioned sub-kernel over the block
    selected: np.ndarray                  # global indices chosen in this block
    reduced_selected_kernel: np.ndarray   # reduced kernel restricted to the picks
    ms: float


@dataclass
class InferenceTrace:
    blocks: List[BlockTrace] = field(default_factory=list)


def blockwise_map(L, P: BlockPartition, f: SubSolver = greedy_map,
                  collect_trace: bool = True) -> Tuple[np.ndarray, InferenceTrace]:
    """Sequential block-wise MAP inference.

    Each block's sub-kernel is the original diagonal block minus a Schur
    correction through the previous block's selected items (cross terms to
    earlier blocks vanish by the almost-block-diagonal structure).  The
    correction touches only the block's leading columns up to the last one
    with a nonzero cross entry from those items, and is skipped when there
    is none, so exact zeros stay exact.  f gets that block, with the
    corrected part symmetrised; its negative eigenvalues are float noise
    (acceptance criterion 02 bounds them at -1e-8 times the largest
    diagonal entry of L).

    L is checked once.  f gets each block as a read-only mc._checked_view,
    which greedy_map and exhaustive_map do not scan again, so a block's
    symmetry tolerance scales with max(1, max |L|), not with its own
    entries.  A block is copied only when the Schur step writes to it or
    the trace keeps it; otherwise f sees L's own block.
    collect_trace=False only drops the per-block records.  The picks are a
    strictly increasing int64 array; a sub-solver index out of range raises
    IndexError, a repeated one ValueError.
    """
    A = mc.as_matrix(L)
    if P.n != A.shape[0]:
        raise ValueError("partition does not match kernel dimension")
    trace = InferenceTrace()
    selected: List[np.ndarray] = []
    # the previous block's picks, global and local, and its reduced kernel
    prev_sel = prev_local = np.empty(0, dtype=np.int64)
    prev_reduced = None
    for start, stop in P.ranges():
        t0 = time.perf_counter()
        block = reduced = A[start:stop, start:stop]
        if prev_sel.size:
            cross = A[prev_sel, start:stop]
            cols = np.flatnonzero(cross.any(axis=0))
            if cols.size:
                c = int(cols[-1]) + 1
                # no pivot tolerance: greedy may pick items just above
                # UNSELECTABLE_DIAG, and they must still condition this block.
                # An LU solve in place of a triangular one: on systems this
                # small a threaded BLAS trsm costs far more than the solve.
                try:
                    F = np.linalg.cholesky(
                        prev_reduced[prev_local[:, None], prev_local])
                except np.linalg.LinAlgError:
                    raise SingularToTolerance(
                        f"selected reduced kernel of the block before [{start}, "
                        f"{stop}) is not positive definite") from None
                X = np.linalg.solve(F, cross[:, :c])
                S = block[:c, :c] - X.T @ X
                reduced = block.copy()
                reduced[:c, :c] = 0.5 * (S + S.T)
        if collect_trace and reduced is block:
            reduced = block.copy()
        local = mc.as_index_set(
            np.sort(np.asarray(f(mc._checked_view(reduced)), dtype=np.int64)),
            stop - start)
        global_sel = local + start
        if collect_trace:
            trace.blocks.append(BlockTrace(
                span=(start, stop),
                reduced_kernel=reduced,
                selected=global_sel,
                reduced_selected_kernel=reduced[local[:, None], local],
                ms=(time.perf_counter() - t0) * 1e3,
            ))
        selected.append(global_sel)
        prev_sel, prev_local, prev_reduced = global_sel, local, reduced
    out = np.concatenate(selected) if selected else np.empty(0, dtype=np.int64)
    return out, trace


def exhaustive_map(L) -> np.ndarray:
    """Exact MAP by enumeration of all subsets.

    Ties break to the smaller cardinality, then the lexicographically
    smallest index list.  Refuses dimensions above EXHAUSTIVE_MAX_DIM.
    """
    A = mc.as_matrix(L)
    n = A.shape[0]
    if n > EXHAUSTIVE_MAX_DIM:
        raise ValueError(f"dimension {n} exceeds exhaustive limit {EXHAUSTIVE_MAX_DIM}")
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

    Only the k x k selection is validated and factored (LAPACK Cholesky,
    with no pivot tolerance); -inf means that factorisation failed.
    """
    A = mc.as_square(L)
    idx = mc.as_index_set(C, A.shape[0])
    if idx.size == 0:
        return 0.0
    try:
        F = np.linalg.cholesky(mc.as_matrix(A[np.ix_(idx, idx)]))
    except np.linalg.LinAlgError:
        return float("-inf")
    return float(2.0 * np.sum(np.log(np.diagonal(F))))
