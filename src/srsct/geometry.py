"""Parallel-beam CT geometry: sparse system matrix, projections, noisy sinograms.

Conventions used throughout the package:

* The image is an n-by-n grid of unit square pixels spanning [0, n] x [0, n],
  stored row-major as a flat vector of length N = n^2 (index = row * n + col).
  During ray casting the grid is centered at the origin, so world coordinates
  run over [-n/2, n/2] in both axes; world units are pixel units.
* A projection at angle theta (degrees) integrates along the lines
  {x cos(theta) + y sin(theta) = t}; the detector axis is (cos, sin) and the
  ray direction is (-sin, cos). At 90 degrees rays run along pixel rows.
* The detector has p pixels centered on the image, with spacing n*sqrt(2)/p,
  so the detector span equals the image diagonal. Rays pass through detector
  pixel centers. Rows of the matrix are ordered angle-major: the row of
  detector pixel i at angle index a is a*p + i. Rays that miss the image
  produce structurally empty rows.
* Ray/pixel intersections that land exactly on a grid line are resolved with
  half-open pixel intervals [low, high), which makes the build deterministic.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from . import parallel

# Direction components smaller than this are snapped to exactly zero so that
# axis-aligned rays stay inside a single pixel row/column.
_AXIS_SNAP = 1e-12
# Fewest nonzeros in a row block of a split product. Below this, waking a
# thread costs more than it saves: on two cores the 64x64 reference
# projector (157,232 nonzeros) takes about 250 us in two blocks against
# 180 us in one, while the 128x128 one (1.26M) gains about a quarter.
MIN_BLOCK_NNZ = 250_000
# Fewest traced units, rays times grid side (about the nonzeros they
# write), in an angle block of the build. Measured on two cores, one block
# against two (medians of 5 to 41 timings): tracing the 64x64 reference scan
# (174,720 units) took 17.6 against 17.1 ms and its whole build 21.1 against
# 22.9 ms; the 128x128 sweep scan (1.40M) 113 against 64 ms, build 165
# against 112 ms; the 256x256 one (11.2M) 1.20 against 0.65 s, build 1.73
# against 1.39 s. So the 64x64 scans stay one block.
MIN_TRACE_UNITS = 250_000


class SystemMatrix:
    """Immutable sparse CT projector in compressed row form.

    Stores the forward matrix and a CSR copy of its transpose so that both
    products run at full sparse speed. Each is also cut into row blocks, one
    per core that a product may use (`parallel.product_threads`), balanced by
    nonzeros. A block holds at least MIN_BLOCK_NNZ nonzeros, so a small
    matrix is one block, the matrix itself. The blocks' values and column
    indices are views of the whole matrix's arrays. Safe for concurrent read
    access.
    """

    def __init__(self, matrix: sp.csr_matrix, detector_pixels: int = 0,
                 angles_deg: tuple[float, ...] = ()):
        matrix = sp.csr_matrix(matrix)
        matrix.sum_duplicates()
        matrix.sort_indices()
        self._matrix = matrix
        self._matrix_t = matrix.T.tocsr()
        self._blocks = _row_blocks(self._matrix)
        self._blocks_t = _row_blocks(self._matrix_t)
        self.detector_pixels = int(detector_pixels)
        self.angles_deg = tuple(float(a) for a in angles_deg)

    @property
    def m(self) -> int:
        """Number of rays (rows)."""
        return self._matrix.shape[0]

    @property
    def n(self) -> int:
        """Number of pixels (columns)."""
        return self._matrix.shape[1]

    @property
    def row_offsets(self) -> np.ndarray:
        return self._matrix.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self._matrix.indices

    @property
    def values(self) -> np.ndarray:
        return self._matrix.data

    def toarray(self) -> np.ndarray:
        return self._matrix.toarray()

    def __repr__(self) -> str:
        return (f"SystemMatrix({self.m}x{self.n}, nnz={self._matrix.nnz}, "
                f"p={self.detector_pixels}, angles={len(self.angles_deg)})")


def _row_blocks(matrix: sp.csr_matrix) -> tuple[sp.csr_matrix, ...]:
    """Consecutive row blocks of a canonical CSR matrix, balanced by nonzeros.

    Each block's values and column indices are views of the matrix's; only
    its row offsets are new. csr_matrix((data, indices, indptr)) would copy
    a view shorter than half its base, so the arrays are set on an empty
    block instead.
    """
    count = parallel.block_count(matrix.nnz, MIN_BLOCK_NNZ)
    if count == 1:
        return (matrix,)
    indptr = matrix.indptr
    cuts = np.searchsorted(indptr, np.arange(1, count) * (matrix.nnz / count))
    bounds = [0, *cuts.tolist(), matrix.shape[0]]
    blocks = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        first, last = indptr[start], indptr[stop]
        block = sp.csr_matrix((stop - start, matrix.shape[1]), dtype=matrix.dtype)
        block.data = matrix.data[first:last]
        block.indices = matrix.indices[first:last]
        block.indptr = indptr[start:stop + 1] - first
        blocks.append(block)
    return tuple(blocks)


class Sinogram:
    """Measured line integrals plus the noise settings that produced them."""

    def __init__(self, values: np.ndarray, noise_level: float = 0.0, seed: int = 0):
        self.values = np.asarray(values, dtype=np.float64)
        self.noise_level = check_noise_level(noise_level)
        self.seed = int(seed)

    def __len__(self) -> int:
        return self.values.shape[0]


def check_scan(grid_side: int, detector_pixels: int, angles_deg):
    """Validate a parallel-beam scan; returns it as (n, p, list of angles)."""
    n = int(grid_side)
    p = int(detector_pixels)
    angles = [float(a) for a in np.atleast_1d(np.asarray(angles_deg, dtype=np.float64))]
    if n < 2:
        raise ValueError("grid side must be at least 2")
    if p < 1:
        raise ValueError("detector needs at least one pixel")
    if not angles:
        raise ValueError("at least one projection angle is required")
    for a in angles:
        if not 0.0 < a <= 180.0:
            raise ValueError(f"angle {a} outside (0, 180] degrees")
    return n, p, angles


def build_parallel_geometry(grid_side: int, detector_pixels: int,
                            angles_deg) -> SystemMatrix:
    """Trace parallel rays through the pixel grid and write the CSR matrix.

    Each stored value is the intersection length (in pixel units) of one ray
    with one pixel, found by sorting the ray's crossing parameters with all
    grid lines and assigning each segment to the pixel containing its
    midpoint. Rows are angle-major, then ray. The angle list is cut into
    consecutive blocks by the one block rule (`parallel.block_count`, at
    least MIN_TRACE_UNITS each), and the blocks are traced at once on the
    thread pool (`parallel.map_blocks`). Each block makes its own rows
    canonical, sorted by column with duplicate (ray, pixel) entries summed,
    as scipy's `sum_duplicates` does for the whole matrix; no row spans two
    blocks, so the blocks are then concatenated as they stand. The matrix is
    bit-identical whatever the block count, and reproducible.
    """
    n, p, angles = check_scan(grid_side, detector_pixels, angles_deg)
    # whole angles per block, each angle p * n units
    count = parallel.block_count(len(angles), -(-MIN_TRACE_UNITS // (p * n)))
    blocks = [angles[len(angles) * i // count:len(angles) * (i + 1) // count]
              for i in range(count)]
    parts = parallel.map_blocks(lambda block: _trace_rows(n, p, block), blocks)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(
        [np.diff(part.indptr) for part in parts]))))
    matrix = sp.csr_matrix((np.concatenate([part.data for part in parts]),
                            np.concatenate([part.indices for part in parts]), indptr),
                           shape=(p * len(angles), n * n))
    del parts  # free the blocks before the transposed copy
    return SystemMatrix(matrix, detector_pixels=p, angles_deg=tuple(angles))


def _trace_rows(n: int, p: int, angles: list[float]) -> sp.csr_matrix:
    """The canonical CSR rows of the rays at these angles, angle-major.

    Rays are traced in row order, so each ray's hit count, columns and
    values are its row as they stand; a ray that crosses a pixel corner can
    hit one pixel twice, which `sum_duplicates` sums after sorting the row.
    """
    half = n / 2.0
    spacing = n * math.sqrt(2.0) / p
    offsets = (np.arange(p) - (p - 1) / 2.0) * spacing
    grid_lines = np.arange(n + 1, dtype=np.float64) - half

    counts_all, cols_all, vals_all = [], [], []
    for theta in angles:
        th = math.radians(theta)
        ex, ey = math.cos(th), math.sin(th)     # detector axis
        dx, dy = -math.sin(th), math.cos(th)    # ray direction
        if abs(dx) < _AXIS_SNAP:
            dx, dy = 0.0, math.copysign(1.0, dy)
            ex, ey = math.copysign(1.0, ex), 0.0
        elif abs(dy) < _AXIS_SNAP:
            dx, dy = math.copysign(1.0, dx), 0.0
            ex, ey = 0.0, math.copysign(1.0, ey)
        ox = offsets * ex
        oy = offsets * ey

        # grid-line crossings and slab entry/exit along each axis
        params, lo, hi = [], [], []
        for o, d in ((ox, dx), (oy, dy)):
            if d != 0.0:
                params.append((grid_lines[None, :] - o[:, None]) / d)
                t1 = (-half - o) / d
                t2 = (half - o) / d
                lo.append(np.minimum(t1, t2))
                hi.append(np.maximum(t1, t2))
            else:
                inside = (o >= -half) & (o < half)
                lo.append(np.where(inside, -np.inf, np.inf))
                hi.append(np.where(inside, np.inf, -np.inf))

        t_in = np.maximum(*lo)
        t_out = np.minimum(*hi)
        hit = t_out > t_in
        t_in = np.where(hit, t_in, 0.0)
        t_out = np.where(hit, t_out, 0.0)

        t = np.concatenate(params + [t_in[:, None], t_out[:, None]], axis=1)
        t = np.clip(t, t_in[:, None], t_out[:, None])
        t.sort(axis=1)

        seg = np.diff(t, axis=1)
        tm = 0.5 * (t[:, :-1] + t[:, 1:])
        mx = ox[:, None] + tm * dx
        my = oy[:, None] + tm * dy
        ix = np.floor(mx + half).astype(np.int32)
        iy = np.floor(my + half).astype(np.int32)
        # a missed ray has t_in = t_out = 0, so all its segments are empty
        valid = (seg > 0.0) & (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)
        counts_all.append(np.count_nonzero(valid, axis=1))
        cols_all.append(iy[valid] * n + ix[valid])
        vals_all.append(seg[valid])

    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts_all))))
    rows = sp.csr_matrix((np.concatenate(vals_all), np.concatenate(cols_all), indptr),
                         shape=(p * len(angles), n * n))
    rows.sum_duplicates()
    return rows


def apply(system: SystemMatrix, vector: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Sparse product with the system matrix or its transpose.

    A matrix of several row blocks computes them at once, one on the calling
    thread and the rest on the process's thread pool (`parallel.map_blocks`).
    Each output entry is the same row sum in the same order as the whole
    product's, so the result is bit-identical whatever the block count.
    """
    v = np.asarray(vector, dtype=np.float64)
    expected = system.m if transposed else system.n
    if v.shape != (expected,):
        raise ValueError(f"vector length {v.shape} does not match operator "
                         f"({'transposed ' if transposed else ''}expects {expected})")
    blocks = system._blocks_t if transposed else system._blocks
    if len(blocks) == 1:
        return blocks[0] @ v
    return np.concatenate(parallel.map_blocks(lambda block: block @ v, blocks))


def check_noise_level(noise_level: float) -> float:
    """The relative noise level as a float; a negative level is rejected."""
    level = float(noise_level)
    if level < 0:
        raise ValueError("noise level must be nonnegative")
    return level


def add_noise(b_clean: np.ndarray, noise_level: float, seed: int) -> Sinogram:
    """Corrupt a clean sinogram with Gaussian noise of prescribed relative size.

    A standard normal draw (PCG64 generator, fully determined by the seed) is
    rescaled so that ||noise||_2 = noise_level * ||b_clean||_2.
    """
    b = np.asarray(b_clean, dtype=np.float64)
    eps = check_noise_level(noise_level)
    if eps == 0.0:
        return Sinogram(b.copy(), 0.0, seed)
    draw = np.random.default_rng(seed).standard_normal(b.shape[0])
    draw_norm = np.linalg.norm(draw)
    if draw_norm == 0.0:
        return Sinogram(b.copy(), eps, seed)
    noise = draw * (eps * np.linalg.norm(b) / draw_norm)
    return Sinogram(b + noise, eps, seed)


def export_triplets(system: SystemMatrix, path) -> None:
    """Write the matrix as ASCII `row col value` triplets, 0-based."""
    mat = system._matrix.tocoo()
    with open(path, "w", encoding="ascii") as fh:
        for r, c, v in zip(mat.row, mat.col, mat.data):
            fh.write(f"{int(r)} {int(c)} {float(v)!r}\n")
