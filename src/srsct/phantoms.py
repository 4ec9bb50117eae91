"""Deterministic ground-truth phantoms: image values plus true class labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import check_integer

PIECEWISE_CLASSES = 8
SMOOTH_MEANS = (0.16, 0.24, 0.565)
MIN_GRID_SIDE = 16  # both phantoms' smallest side; a smaller one raises ValueError


@dataclass
class Phantom:
    """Ground truth for one experiment: attenuation image and label map.

    `image` and `labels` are flat length-n^2 arrays (row-major); labels take
    values in 1..n_classes and `class_means[k-1]` is the representative
    attenuation of class k.
    """

    grid_side: int
    image: np.ndarray
    labels: np.ndarray
    class_means: np.ndarray

    @property
    def n_classes(self) -> int:
        return len(self.class_means)


def _unit_grid(n: int):
    # pixel-center coordinates in [0, 1]^2; u horizontal (cols), v vertical (rows)
    u = (np.arange(n) + 0.5) / n
    v = (np.arange(n) + 0.5) / n
    return np.meshgrid(u, v)  # uu[row, col], vv[row, col]


def make_piecewise_phantom(grid_side: int) -> Phantom:
    """8-class piecewise constant phantom with class means (k-1)/7.

    Nested and adjacent geometric regions (an annulus, two rectangles,
    nested and standalone disks) painted over a zero background; later
    regions override earlier ones. Regions are arranged so that classes
    with similar attenuation meet only along short straight edges, and the
    layout scales with the grid side.
    """
    n = check_integer(grid_side, "grid_side", minimum=MIN_GRID_SIDE)
    uu, vv = _unit_grid(n)
    labels = np.ones((n, n), dtype=np.int64)

    def disk(cu, cv, r):
        return (uu - cu) ** 2 + (vv - cv) ** 2 < r * r

    def rect(u0, u1, v0, v1):
        return (uu >= u0) & (uu < u1) & (vv >= v0) & (vv < v1)

    labels[disk(0.5, 0.5, 0.44)] = 5          # becomes an annulus
    labels[disk(0.5, 0.5, 0.35)] = 2          # interior body
    labels[rect(0.24, 0.41, 0.54, 0.70)] = 4
    labels[rect(0.55, 0.74, 0.30, 0.48)] = 7
    labels[disk(0.60, 0.64, 0.115)] = 6
    labels[disk(0.60, 0.64, 0.065)] = 8       # core nested in class 6
    labels[disk(0.31, 0.36, 0.085)] = 3       # weakest contrast pair, kept small

    present = np.unique(labels)
    if len(present) != PIECEWISE_CLASSES:
        raise ValueError(f"grid side {n} too small: only classes {present.tolist()} present")

    means = np.arange(PIECEWISE_CLASSES, dtype=np.float64) / (PIECEWISE_CLASSES - 1)
    image = means[labels - 1]
    return Phantom(n, image.ravel(), labels.ravel(), means)


def make_smooth_phantom(grid_side: int) -> Phantom:
    """Smooth 3-class phantom built from clamped Gaussian bumps.

    The image plateaus near 0.16 (background), 0.24 and 0.565, with smooth
    skirts in between. True labels are assigned per pixel by the nearest
    class mean, ties going to the smaller class index.
    """
    n = check_integer(grid_side, "grid_side", minimum=MIN_GRID_SIDE)
    uu, vv = _unit_grid(n)

    def bump(cu, cv, width):
        return np.exp(-((uu - cu) ** 2 + (vv - cv) ** 2) / (2.0 * width * width))

    mid = np.minimum(1.0, 1.6 * bump(0.40, 0.58, 0.20) + 1.6 * bump(0.63, 0.33, 0.13))
    top = np.minimum(1.0, 1.8 * bump(0.40, 0.58, 0.095))
    means = np.asarray(SMOOTH_MEANS, dtype=np.float64)
    image = means[0] + (means[1] - means[0]) * mid + (means[2] - means[1]) * top

    labels = np.argmin(np.abs(image.ravel()[:, None] - means[None, :]), axis=1) + 1
    return Phantom(n, image.ravel(), labels.astype(np.int64), means)


def write_labels_csv(path, labels: np.ndarray) -> None:
    """Write a 2-D label grid as ASCII CSV, one image row per line."""
    np.savetxt(path, labels, fmt="%d", delimiter=",")
