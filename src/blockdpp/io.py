"""File formats: matrix/series/event CSV and partition/truth JSON."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import matrix_core as mc
from .kernel_model import BlockPartition

# load_matrix_csv's PSD test, relative to max(1, max_i L_ii)
PSD_SHIFT = 1e-8


def load_matrix_csv(path) -> np.ndarray:
    """Square symmetric PSD matrix, one CSV row per matrix row, no header.
    L + PSD_SHIFT * max(1, max_i L_ii) * I must have a Cholesky factor, so
    float noise around a zero eigenvalue passes."""
    A = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    try:
        A = mc.as_matrix(A)
        t = PSD_SHIFT * max(1.0, float(A.diagonal().max(initial=0.0)))
        np.linalg.cholesky(A + t * np.eye(A.shape[0]))
    except np.linalg.LinAlgError:
        raise ValueError(f"{path}: matrix is not positive semidefinite") from None
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return A


def save_matrix_csv(path, A) -> None:
    np.savetxt(path, np.asarray(A, dtype=np.float64), delimiter=",", fmt="%.17g")


def load_series_csv(path) -> np.ndarray:
    """(T, D) series; a single non-numeric first row is treated as a header."""
    path = Path(path)
    with path.open() as fh:
        first = fh.readline()
    skip = 0
    try:
        [float(x) for x in first.strip().split(",") if x != ""]
    except ValueError:
        skip = 1
    A = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip, dtype=np.float64)
    return A


def save_series_csv(path, X) -> None:
    np.savetxt(path, np.asarray(X, dtype=np.float64), delimiter=",", fmt="%.17g")


def load_events_csv(path) -> np.ndarray:
    e = np.loadtxt(path, delimiter=",", ndmin=1, dtype=np.float64)
    return e.ravel()


def save_events_csv(path, e) -> None:
    np.savetxt(path, np.asarray(e, dtype=np.float64).ravel(), fmt="%.17g")


def save_partition_json(path, P: BlockPartition) -> None:
    Path(path).write_text(json.dumps(P.to_json_dict(), indent=2) + "\n")


def load_partition_json(path) -> BlockPartition:
    return BlockPartition.from_json_dict(json.loads(Path(path).read_text()))


def save_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())
