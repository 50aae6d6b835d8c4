"""File formats: matrix/series/event CSV and sorted-key JSON (partitions, truth)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import matrix_core as mc
from .kernel_model import DppKernel


def load_matrix_csv(path) -> DppKernel:
    """Square symmetric PSD matrix, one CSV row per matrix row, no header;
    checked by matrix_core.as_psd and held as a DppKernel, not scanned again."""
    A = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    try:
        return DppKernel._wrap(mc.as_psd(A))
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


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
    return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip, dtype=np.float64)


def load_events_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=1, dtype=np.float64).ravel()


def save_csv(path, rows, header: str = "") -> None:
    """A matrix, series, event list or table: one value per line for 1-D
    rows, comma-separated for 2-D, each value at full double precision.  A
    non-empty header is written as a leading "# " comment line."""
    np.savetxt(path, np.asarray(rows, dtype=np.float64), delimiter=",",
               fmt="%.17g", header=header)


def save_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())
