"""Evaluation metrics: label extraction and the two relative errors."""

from __future__ import annotations

import numpy as np

from . import parallel


def labels_from(memberships: np.ndarray) -> np.ndarray:
    """Per-pixel class labels (1-based) by row argmax; ties take the smaller index."""
    field = np.asarray(memberships, dtype=np.float64)
    if field.ndim != 2:
        raise ValueError("expected an (N, K) membership field")
    return (np.argmax(field, axis=1) + 1).astype(np.int64)


@parallel.one_blas_thread()
def reconstruction_error(x: np.ndarray, x_true: np.ndarray) -> float:
    """Relative error ||x - x_true|| / ||x||, normalized by the reconstruction.
    The norms run on one BLAS thread, as in a solve, so the last digit does
    not depend on the thread count."""
    x = np.asarray(x, dtype=np.float64)
    x_true = np.asarray(x_true, dtype=np.float64)
    if x.shape != x_true.shape:
        raise ValueError("shapes do not match")
    denom = np.linalg.norm(x)
    if denom == 0.0:
        raise ValueError("reconstruction error undefined for an all-zero image")
    return float(np.linalg.norm(x - x_true) / denom)


def segmentation_error(labels: np.ndarray, labels_true: np.ndarray) -> float:
    """Fraction of mismatched labels."""
    a = np.asarray(labels)
    b = np.asarray(labels_true)
    if a.shape != b.shape:
        raise ValueError("label maps differ in length")
    return float(np.count_nonzero(a != b) / a.size)
