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
import numbers
import operator

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

    def __init__(self, matrix: sp.csr_matrix):
        matrix = sp.csr_matrix(matrix)
        if not matrix.has_canonical_format:  # canonicalise a copy, not the caller's arrays
            matrix = matrix.copy()
            matrix.sum_duplicates()
        self._matrix = matrix
        self._matrix_t = matrix.T.tocsr()
        self._blocks = _row_blocks(self._matrix)
        self._blocks_t = _row_blocks(self._matrix_t)

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
        return f"SystemMatrix({self.m}x{self.n}, nnz={self._matrix.nnz})"


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


def check_integer(value, name: str, minimum: int | None = None) -> int:
    """`value` as an int. A non-integer (a float, a bool, a string or None
    among them) or one below `minimum` raises ValueError naming `name` and
    the value."""
    try:
        if isinstance(value, bool):  # operator.index takes True as 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def check_real(value, name: str, positive: bool = False) -> float:
    """`value` as a float: a real number, finite and at least 0, or above 0
    if `positive`. A bool, a string, None, a NaN, an infinity or a value
    below the bound raises ValueError naming `name` and the value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "greater than" if positive else "at least"
        raise ValueError(f"{name} must be finite and {bound} 0, got {value}")
    return float(value)


def check_scan(grid_side: int, detector_pixels: int, angles_deg):
    """Validate a parallel-beam scan; returns it as (n, p, list of angles)."""
    n = check_integer(grid_side, "grid_side", minimum=2)
    p = check_integer(detector_pixels, "detector_pixels", minimum=1)
    angles = [float(a) for a in np.atleast_1d(np.asarray(angles_deg, dtype=np.float64))]
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
    midpoint. Rows are angle-major, then ray. Consecutive blocks of angles,
    at least MIN_TRACE_UNITS each (`parallel.block_count`, `parallel.spans`),
    are traced at once on the thread pool, each sorting its rows by column
    and summing duplicate (ray, pixel) entries. No row spans two blocks, so
    `scipy.sparse.vstack` stacks them as they stand, bit-identical to one
    block."""
    n, p, angles = check_scan(grid_side, detector_pixels, angles_deg)
    # whole angles per block, each angle p * n units
    count = parallel.block_count(len(angles), -(-MIN_TRACE_UNITS // (p * n)))
    parts = parallel.map_blocks(lambda span: _trace_rows(n, p, angles[span]),
                                parallel.spans(len(angles), count))
    matrix = sp.vstack(parts, format="csr")
    del parts  # free the blocks before the transposed copy
    return SystemMatrix(matrix)


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

        # grid-line crossings along each axis; the first and last bound the
        # slab, as grid_lines[0] is exactly -half and grid_lines[n] exactly half
        params, lo, hi = [], [], []
        for o, d in ((ox, dx), (oy, dy)):
            if d != 0.0:
                params.append((grid_lines[None, :] - o[:, None]) / d)
                t1, t2 = params[-1][:, 0], params[-1][:, -1]
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

    The row blocks run through `parallel.map_blocks`: the first, or the only
    one, on the calling thread and the rest on the process's thread pool.
    Each output entry is the same row sum in the same order as the whole
    product's, so the result is bit-identical whatever the block count.
    """
    v = np.asarray(vector, dtype=np.float64)
    expected = system.m if transposed else system.n
    if v.shape != (expected,):
        raise ValueError(f"vector length {v.shape} does not match operator "
                         f"({'transposed ' if transposed else ''}expects {expected})")
    blocks = system._blocks_t if transposed else system._blocks
    return np.concatenate(parallel.map_blocks(lambda block: block @ v, blocks))


def add_noise(b_clean: np.ndarray, noise_level: float, seed: int) -> np.ndarray:
    """The (m,) float64 sinogram b_clean corrupted by Gaussian noise of
    prescribed relative size.

    A standard normal draw (PCG64 generator, fully determined by the seed) is
    rescaled so that ||noise||_2 = noise_level * ||b_clean||_2. A b_clean
    that is not 1-D, a seed that is not a nonnegative int, or a noise level
    that `check_real` rejects raises ValueError.
    """
    b = np.asarray(b_clean, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError(f"b_clean must be a 1-D sinogram, got shape {b.shape}")
    seed = check_integer(seed, "seed", minimum=0)
    eps = check_real(noise_level, "noise_level")
    if eps == 0.0:
        return b.copy()
    draw = np.random.default_rng(seed).standard_normal(b.shape[0])
    draw_norm = np.linalg.norm(draw)
    if draw_norm == 0.0:
        return b.copy()
    return b + draw * (eps * np.linalg.norm(b) / draw_norm)


def export_triplets(system: SystemMatrix, path) -> None:
    """Write the matrix as ASCII `row col value` triplets, 0-based."""
    mat = system._matrix.tocoo()
    with open(path, "w", encoding="ascii") as fh:
        for r, c, v in zip(mat.row, mat.col, mat.data):
            fh.write(f"{int(r)} {int(c)} {float(v)!r}\n")
