"""Sub-problem solvers: Gaussian mixture terms, CGLS reconstruction step,
split-Bregman TV proximal, and the closed-form field updates used by the
membership ADMM.

Measure fields are plain float64 arrays of shape (N, K). Two conventions
appear: simplex-interior fields have rows on the open probability simplex
(entries in (0, 1), rows summing to 1) while coupling fields only need
strictly positive entries.

The membership ADMM keeps every field class-major, as a (K, n, n) array of
K class images, in one `Workspace` per call (`admm_workspace`), allocated
once. In that layout each class image is contiguous: the gradient and its
adjoint are flat shifts, the 2-D DCT is one GEMM per class and axis, and a
class sum adds whole images. The kernels (`tv_prox`, `update_coupling`,
`normalize_to_simplex`) have two modes. Given the ADMM's workspace, they
take its class-major arrays as they are and write their output field
(`delta`, `eta` or `psi`) in place. Without it, they take pixel-major (N,)
or (N, K) fields: one pair of adapters, `_class_major` and `_pixel_major`,
transposes them into a small workspace of the call's own and views the
float64 result back in their shape. `image_gradient`, its adjoint and
`admm_workspace` use the same pair. The TV iterate rotates among three
buffers; the one a `tv_prox` call started from stays intact in
`delta_prev`. The kernels run their work as stages on
`parallel.map_blocks`: the stencils and the elementwise updates over row
blocks of the grid, the DCT over blocks of classes. Every entry is
computed by the same operations in the same order whatever the block
count, so results are bit-identical on any number of cores.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

from . import parallel
from .config import ClassPrior, SolverConfig
from .errors import DivergenceError
from .geometry import SystemMatrix, apply

_TINY = np.finfo(np.float64).tiny  # smallest positive normal double
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Split-Bregman penalty of tv_prox, fixed whatever the TV weight; the
# shrink threshold is weight / BREGMAN_PENALTY_SCALE, so weights near and
# above 1 take many passes to converge.
BREGMAN_PENALTY_SCALE = 2.0
# Fewest field entries in a row block of the membership ADMM's kernels.
# Each block stage costs a thread handoff of about 55 us, and the threads
# contend for the interpreter lock between numpy calls. On two cores, one
# Bregman pass, coupling update and simplex step together took (medians of
# 15 interleaved rounds, one block against two) 1.8 against 3.2 ms at
# 64x64x8 (32,768 entries), 2.8 against 3.1 ms at 112x112x3 (37,632), 3.9
# against 3.8 ms at 128x128x3 (49,152; two blocks faster in 8 of 15) and
# 25 against 15 ms at 256x256x3.
MIN_BLOCK_ENTRIES = 24_576


# ----------------------------------------------------------------------
# Row blocks and the class-major layout
# ----------------------------------------------------------------------

def _spans(length: int, count: int) -> tuple:
    """`count` consecutive, nearly equal, nonempty slices of range(length)."""
    bounds = [length * i // count for i in range(count + 1)]
    return tuple(slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:]))


def _field_blocks(shape: tuple[int, ...]) -> tuple:
    """The row blocks of a field of this shape: ranges of its rows, the
    second-to-last axis, one per block that `parallel.block_count` grants
    the whole field."""
    rows = shape[-2]
    return _spans(rows, min(parallel.block_count(math.prod(shape), MIN_BLOCK_ENTRIES),
                            max(rows, 1)))


class Workspace:
    """Fields of the membership ADMM's kernels, allocated once and updated
    in place: the keyword arrays, each class-major of shape `grid`, (K,
    rows, columns), which is (K, n, n) for an n x n grid. `blocks` holds,
    for each row block of the grid, a namespace of its `rows` and, under
    each field's name, those rows of every class of that field, made here
    once. `classes` cuts the class axis into at most as many blocks, for
    the DCT. `swap` exchanges two fields' buffers on the workspace and
    every block alike. `warm` tells whether `tv_prox` has run on it. A
    kernel given a workspace takes its class-major arrays as they are and
    writes its output field in place.
    """

    def __init__(self, grid: tuple[int, int, int], **fields: np.ndarray):
        self.grid, self.warm = grid, False
        self.__dict__.update(fields)
        self.blocks = tuple(
            SimpleNamespace(rows=rows, **{key: f[:, rows] for key, f in fields.items()})
            for rows in _field_blocks(grid))
        self.classes = _spans(grid[0], min(len(self.blocks), grid[0]))

    def swap(self, a: str, b: str) -> None:
        for part in (self, *self.blocks):
            part.__dict__[a], part.__dict__[b] = part.__dict__[b], part.__dict__[a]


def _class_major(operand, shape=None, side: int | None = None) -> np.ndarray:
    """An operand of pixel-major `shape` (by default its own), (N,) or
    (N, K), as a float64 class-major array: (K, side, side) for a grid side,
    which needs N = side², else (K, N, 1). A contiguous operand of one class
    is viewed, any other transposed into a new array; raises ValueError."""
    operand = np.asarray(operand, dtype=np.float64)
    if shape is not None and operand.shape != shape:
        raise ValueError(f"operand of shape {operand.shape} does not match the field's {shape}")
    if operand.ndim not in (1, 2) or side is not None and len(operand) != side * side:
        raise ValueError(f"a field of shape {operand.shape} is not pixel-major, (N,) or (N, K)"
                         + ("" if side is None else f" with N = {side} * {side}"))
    rows, cols = (len(operand), 1) if side is None else (side, side)
    return np.ascontiguousarray(operand.reshape(len(operand), -1).T).reshape(-1, rows, cols)


def _pixel_major(field: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A class-major field viewed in the pixel-major `shape`: `_class_major`'s inverse."""
    return field.reshape(len(field), -1).T.reshape(shape)


# ----------------------------------------------------------------------
# Gaussian mixture pieces
# ----------------------------------------------------------------------

def mixture_component(x: float, weight: float, mean: float, std: float) -> float:
    """Weighted Gaussian density value, floored at the smallest normal double."""
    if weight <= 0.0:
        raise ValueError("component weight must be positive")
    if std <= 0.0:
        raise ValueError("standard deviation must be positive")
    z = (x - mean) / std
    value = weight / (_SQRT_2PI * std) * math.exp(-0.5 * z * z)
    return max(value, _TINY)


def _mixture_matrix(x: np.ndarray, memberships: np.ndarray, prior: ClassPrior) -> np.ndarray:
    """All N*K weighted component densities at once, underflow floored."""
    z = (x[:, None] - prior.means[None, :]) / prior.std_devs[None, :]
    dens = np.exp(-0.5 * z * z) / (_SQRT_2PI * prior.std_devs[None, :])
    return np.maximum(memberships * dens, _TINY)


def logsum_transform(values: np.ndarray) -> tuple[float, np.ndarray]:
    """Return (-log of the sum, normalized weights) for positive inputs.

    The normalized weights are the minimizer of
    sum_k(-w_k log v_k + w_k log w_k) over the open simplex, and the minimum
    value equals -log(sum_k v_k).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D array")
    if np.any(v <= 0.0):
        raise ValueError("all inputs must be strictly positive")
    total = v.sum()
    return float(-np.log(total)), v / total


def update_responsibilities(x: np.ndarray, memberships: np.ndarray,
                            prior: ClassPrior) -> tuple[np.ndarray, int]:
    """Row-normalize the mixture components at the current iterates.

    Rows where every component underflowed to the floor come out exactly
    uniform; the count of such rows is returned for diagnostics.
    """
    f = _mixture_matrix(np.asarray(x, dtype=np.float64),
                        np.asarray(memberships, dtype=np.float64), prior)
    fallback_rows = int(np.count_nonzero(f.max(axis=1) <= _TINY))
    return f / f.sum(axis=1, keepdims=True), fallback_rows


# ----------------------------------------------------------------------
# Closed-form ADMM field updates
# ----------------------------------------------------------------------

def _coupling_fields(resp: np.ndarray, g1: float, g2: float) -> dict:
    """The terms of `update_coupling` that stay fixed while the
    responsibilities and the penalties do, and its scratch, all shaped
    like the class-major responsibilities `resp`."""
    if g1 <= 0 or g2 <= 0:
        raise ValueError("split penalties must be positive")
    return {"four_phi_g": 4.0 * resp * (g1 + g2), "two_phi": 2.0 * resp,
            "lin": np.empty_like(resp), "disc": np.empty_like(resp),
            "conj_mask": np.empty(resp.shape, dtype=bool),
            "pos_mask": np.empty(resp.shape, dtype=bool)}


def _coupling_rows(blk: SimpleNamespace, memberships, simplex_field, mult_tv, mult_simplex,
                   g1: float, g2: float) -> None:
    """`update_coupling` on one row block, into its `eta`; the fields are its rows."""
    c, disc, out = blk.lin, blk.disc, blk.eta
    np.multiply(g1, memberships, out=c)
    c += mult_tv
    np.multiply(g2, simplex_field, out=disc)
    c += disc
    c -= mult_simplex
    np.multiply(c, c, out=disc)
    disc += blk.four_phi_g
    np.sqrt(disc, out=disc)
    # the root for c > 0 everywhere, then the conjugate form where c <= 0
    # and its denominator disc - c is positive
    np.add(c, disc, out=out)
    out /= 2.0 * (g1 + g2)
    np.subtract(disc, c, out=disc)
    np.less_equal(c, 0.0, out=blk.conj_mask)
    np.greater(disc, 0.0, out=blk.pos_mask)
    np.logical_and(blk.conj_mask, blk.pos_mask, out=blk.conj_mask)
    np.divide(blk.two_phi, disc, out=out, where=blk.conj_mask)


def update_coupling(memberships: np.ndarray, simplex_field: np.ndarray,
                    mult_tv: np.ndarray, mult_simplex: np.ndarray,
                    responsibilities: np.ndarray,
                    tv_split_penalty: float, simplex_split_penalty: float,
                    *, work: Workspace | None = None) -> np.ndarray:
    """Positive root of the per-entry stationarity condition of the coupling
    field: the unique eta > 0 with
    -resp/eta + g1*(eta - memb) - mult_tv + g2*(eta - simp) + mult_simplex = 0.

    Uses the conjugate form of the quadratic formula when the linear part is
    not positive to avoid cancellation; an entry whose conjugate denominator
    is zero (zero responsibility and zero linear part) comes out 0.

    With `work`, the membership ADMM's workspace formed from these
    responsibilities and penalties, the fields are its class-major arrays,
    taken as they are, and the result is written into its `eta`. Without
    it every field has the responsibilities' pixel-major shape, (N,) or
    (N, K), or the call raises ValueError; the fields are transposed into a
    small workspace of the call's own, and the float64 result viewed back.
    The work runs over the row blocks of the workspace, the first on the
    calling thread and the rest on the thread pool.
    """
    g1, g2 = float(tv_split_penalty), float(simplex_split_penalty)
    fields = (memberships, simplex_field, mult_tv, mult_simplex)
    if work is None:
        shape = np.shape(responsibilities)
        resp = _class_major(responsibilities, shape)
        work = Workspace(resp.shape, **_coupling_fields(resp, g1, g2), eta=np.empty(resp.shape))
        eta = update_coupling(*(_class_major(f, shape) for f in fields), resp, g1, g2, work=work)
        return _pixel_major(eta, shape)
    parallel.map_blocks(lambda blk: _coupling_rows(
        blk, *(f[:, blk.rows] for f in fields), g1, g2), work.blocks)
    return work.eta


def normalize_to_simplex(coupling: np.ndarray, mult_simplex: np.ndarray,
                         simplex_split_penalty: float, floor: float,
                         *, work: Workspace | None = None) -> np.ndarray:
    """Clamped normalization over the classes: floor the scores, then divide
    by each pixel's class sum, which adds the class images one by one.

    With `work`, the membership ADMM's workspace, both operands are its
    class-major arrays, taken as they are, and the result is written into
    its `psi`. Without it both have one pixel-major shape, (N,) or (N, K),
    or the call raises ValueError; they are transposed into a small
    workspace of the call's own, and the float64 result viewed back. The
    pixels run in the row blocks of the workspace, the first on the calling
    thread and the rest on the thread pool.

    Every entry stays positive for any finite scores. Entries stay strictly
    below 1 only while a row's largest score is under about floor / eps
    (1e-4 / 2.2e-16 at the solver's floor); beyond that the largest entry
    rounds to exactly 1. The membership ADMM's scores are O(1).
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    if work is None:
        shape = np.shape(coupling)
        coupling, mult_simplex = (_class_major(f, shape) for f in (coupling, mult_simplex))
        work = Workspace(coupling.shape, psi=np.empty(coupling.shape))
        psi = normalize_to_simplex(coupling, mult_simplex, simplex_split_penalty, floor, work=work)
        return _pixel_major(psi, shape)

    def block(blk):
        scores = np.multiply(simplex_split_penalty, coupling[:, blk.rows], out=blk.psi)
        scores += mult_simplex[:, blk.rows]
        np.maximum(scores, floor, out=scores)
        scores /= scores.sum(axis=0)

    parallel.map_blocks(block, work.blocks)
    return work.psi


# ----------------------------------------------------------------------
# Discrete gradient with replicated boundary
# ----------------------------------------------------------------------

def _flat(part: np.ndarray) -> np.ndarray:
    """Rows of a class-major field, (K, rows, columns), as (K, rows *
    columns): a view, as each class's rows of a row block are contiguous."""
    return part.reshape(len(part), -1)


def _gradient_rows(field: np.ndarray, rows: slice, gh: np.ndarray, gv: np.ndarray) -> None:
    """Rows `rows` (nonempty) of the gradient of a class-major field,
    written into gh and gv, which hold just those rows of every class.
    Reads the row below them. Each difference is one flat shift of each
    class's rows, by one entry or by one row; the entries a shift forms
    across a row's end, or below the last row, are then set to zero."""
    start, stop, _ = rows.indices(field.shape[1])
    f = field[:, rows]
    flat = _flat(f)
    np.subtract(flat[:, 1:], flat[:, :-1], out=_flat(gh)[:, :-1])
    gh[..., -1] = 0.0
    inner = min(stop, field.shape[1] - 1) - start  # the rows that have a row below
    np.subtract(field[:, start + 1:start + 1 + inner], f[:, :inner], out=gv[:, :inner])
    gv[:, inner:] = 0.0


def _gradient_adjoint_rows(gh: np.ndarray, gv: np.ndarray, rows: slice, out: np.ndarray) -> None:
    """Rows `rows` (nonempty) of the gradient adjoint of class-major (gh,
    gv), written into `out`, which holds just those rows of every class.
    Reads gv's row above them. gh's last column and gv's last row are
    never read into the result, as the gradient leaves them zero."""
    start, stop, _ = rows.indices(gh.shape[1])
    h = gh[:, rows]
    flat_h, flat_out = _flat(h), _flat(out)
    # 0 - gh, as an accumulation into zeros would form it (a plain negation
    # would turn +0 into -0)
    np.subtract(0.0, flat_h, out=flat_out)
    out[..., -1] = 0.0
    flat_out[:, 1:] += flat_h[:, :-1]
    # that shift added the end of each row to the start of the next: the
    # first column, which has no column to its left, is formed again
    if out.shape[-1] > 1:
        np.subtract(0.0, h[..., 0], out=out[..., 0])
    else:
        out[..., 0] = 0.0
    inner = min(stop, gh.shape[1] - 1) - start  # the rows that have a row below
    out[:, :inner] -= gv[:, start:start + inner]
    top = 1 if start == 0 else 0  # the first image row has no row above
    out[:, top:] += gv[:, start + top - 1:stop - 1]


def image_gradient(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences along columns and rows; the replicated boundary
    makes the last difference in each direction zero. `field` has shape
    (n, n) or (n, n, K), and so have gh and gv. It goes through the adapter
    pair as an (N,) or (N, K) field: one contiguous image is viewed, any
    other field transposed into a class-major copy."""
    field = np.asarray(field)
    grid = _class_major(field.reshape(-1, *field.shape[2:]), side=len(field))
    gh, gv = np.empty_like(grid), np.empty_like(grid)
    _gradient_rows(grid, slice(0, grid.shape[1]), gh, gv)
    return _pixel_major(gh, field.shape), _pixel_major(gv, field.shape)


def image_gradient_adjoint(gh: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """Adjoint of `image_gradient`, through the same adapter pair."""
    shape = np.shape(gh)
    h, v = (_class_major(np.reshape(g, (-1, *shape[2:])), side=shape[0]) for g in (gh, gv))
    out = np.empty_like(h)
    _gradient_adjoint_rows(h, v, slice(0, h.shape[1]), out)
    return _pixel_major(out, shape)


def total_variation(field: np.ndarray) -> float:
    """Isotropic TV: per-pixel Euclidean norm of the forward differences,
    summed over pixels (and over trailing channels if present)."""
    gh, gv = image_gradient(field)
    return float(np.sqrt(gh * gh + gv * gv).sum())


# ----------------------------------------------------------------------
# Split-Bregman TV proximal
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _neumann_basis(n: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix C and the (n, n) eigenvalues of
    I + scale * grad^T grad on an n x n grid.

    With forward differences and a replicated boundary, grad^T grad is the
    Neumann Laplacian. C diagonalises its 1-D second difference exactly,
    with eigenvalues 2 - 2 cos(pi k / n), so C (.) C^T diagonalises the 2-D
    operator.
    """
    k = np.arange(n)
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n)
    basis[0] /= math.sqrt(2.0)
    lam = 2.0 - 2.0 * np.cos(np.pi * k / n)
    eig = 1.0 + scale * (lam[:, None] + lam[None, :])
    basis.setflags(write=False)  # shared by every caller through the cache
    eig.setflags(write=False)
    return basis, eig


def _tv_fields(delta: np.ndarray) -> dict:
    """The fields of `tv_prox` on the class-major grid of `delta`, with
    `delta` as the iterate: its two other buffers, the shrunk gradient (dh,
    dv), the Bregman variable (bh, bv) and the pass scratch `work`."""
    return {"delta": delta,
            **{name: np.empty(delta.shape)
               for name in ("delta_prev", "spare", "dh", "dv", "bh", "bv", "work")}}


def _shrink_step(st: SimpleNamespace, thresh: float) -> None:
    """Isotropic shrinkage of the pair held in (bh, bv) by thresh into
    (dh, dv), then b <- (bh, bv) - d: the Bregman update reuses the sum
    grad u + b that the shrink is applied to."""
    mag = st.work
    np.multiply(st.bh, st.bh, out=mag)
    np.multiply(st.bv, st.bv, out=st.dh)
    mag += st.dh
    np.sqrt(mag, out=mag)
    factor = st.dh
    np.subtract(mag, thresh, out=factor)
    np.maximum(factor, 0.0, out=factor)
    # the factor is 0 wherever mag < thresh, so flooring the divisor at
    # thresh changes no quotient and needs no test for mag = 0
    np.maximum(mag, thresh, out=mag)
    factor /= mag
    np.multiply(factor, st.bv, out=st.dv)
    np.multiply(factor, st.bh, out=st.dh)
    st.bh -= st.dh
    st.bv -= st.dv


def _bregman_pass(v: np.ndarray, src: np.ndarray, ws: Workspace, basis: np.ndarray,
                  eig: np.ndarray, scale: float, thresh: float) -> float:
    """One split-Bregman pass from the iterate `src`, writing the new
    iterate into ws.delta and updating (dh, dv, bh, bv) in place; `src`,
    class-major like `v`, is left as it was. Returns the relative change
    of the iterate.

    The pass runs as stages, each finishing on every block before the next
    starts, because the gradient pair reads rows of other blocks. The
    stencils and the shrink run over the row blocks of the grid. The DCT
    solve runs over blocks of classes: each class image is transformed by
    whole n x n GEMMs, the same ones whatever the block count, which a
    split by rows would not be (which micro-kernel OpenBLAS gives a part
    of a GEMM depends on its shape, so a row split changes the last
    digits of some rows at some n). The norms of the relative change are
    taken whole.
    """
    def subtract(blk):  # d - b, in d's buffers
        blk.dh -= blk.bh
        blk.dv -= blk.bv

    def rhs(blk):  # v + scale * grad^T (d - b)
        o = blk.delta
        _gradient_adjoint_rows(ws.dh, ws.dv, blk.rows, o)
        o *= scale
        np.add(v[:, blk.rows], o, out=o)

    def solve(classes):  # C^T ((C rhs C^T) / eig) C, class by class; the change
        o, w = ws.delta[classes], ws.work[classes]
        np.matmul(o, basis.T, out=w)
        np.matmul(basis, w, out=o)
        o /= eig
        np.matmul(basis.T, o, out=w)
        np.matmul(w, basis, out=o)
        np.subtract(o, src[classes], out=w)

    def shrink(blk):  # b += grad out, shrunk into d
        _gradient_rows(ws.delta, blk.rows, blk.dh, blk.dv)
        blk.bh += blk.dh
        blk.bv += blk.dv
        _shrink_step(blk, thresh)

    parallel.map_blocks(subtract, ws.blocks)
    parallel.map_blocks(rhs, ws.blocks)
    parallel.map_blocks(solve, ws.classes)
    denom = np.linalg.norm(src)
    rel = np.linalg.norm(ws.work) / denom if denom > 0.0 else np.inf
    parallel.map_blocks(shrink, ws.blocks)
    return rel


def tv_prox(field: np.ndarray, weight: float, grid_side: int,
            cfg: SolverConfig, state: Workspace | None = None) -> tuple[np.ndarray, dict]:
    """Approximate minimizer of weight * TV(u) + 0.5 * ||u - field||^2.

    Split Bregman with an auxiliary gradient variable and isotropic
    shrinkage. The penalty is scaled so the inner system stays
    (I + BREGMAN_PENALTY_SCALE * grad^T grad) regardless of the weight;
    each pass solves it exactly in the 2-D DCT-II basis, which diagonalises
    the Neumann Laplacian of the replicated boundary. The basis is a cached
    dense matrix applied by matmuls (about 8 n^3 K flops per pass). All
    classes share one Frobenius stopping rule. The passes stop when the
    relative change of u drops below bregman_tol or after bregman_max
    passes. Each pass runs as stages over row blocks of the grid and blocks
    of classes, split over the thread pool once the stack has at least
    2 * MIN_BLOCK_ENTRIES entries and the BLAS can be pinned; the result is
    bit-identical whatever the block count.

    `state` is a `Workspace` with the fields of `_tv_fields`, class-major:
    the membership ADMM's, or the one a previous call returned in its info
    dict; a call without one makes a small one. A field of the state's grid
    is taken as it is (the membership ADMM passes its `target`). Any other
    is a pixel-major (N,) image or (N, K) stack with N = grid_side², or the
    call raises ValueError; it is transposed in, and the result viewed back
    in its shape. The first call on a workspace starts cold, seeding (d, b)
    from the input's gradient. Later calls warm start from its iterate
    `delta` and (d, b); callers that solve a sequence of nearby targets (the
    membership ADMM) converge in a couple of passes that way. A call updates
    the workspace in place and allocates no field. The returned field is
    `delta`, which the next call overwrites; the iterate the call started
    from is kept unchanged in `delta_prev`, so a caller may still compare
    the two. A constant input is its own prox: it becomes `delta`, with
    (d, b) zero.
    """
    n = int(grid_side)
    if state is None or np.shape(field) != state.grid:
        shape = np.shape(field)
        v = _class_major(field, shape, n)
        state = state or Workspace(v.shape, **_tv_fields(np.empty(v.shape)))
        out, info = tv_prox(v, weight, n, cfg, state)
        return _pixel_major(out, shape), info
    scale = BREGMAN_PENALTY_SCALE
    thresh = weight / scale
    if not thresh > 0.0:  # also rejects a NaN weight
        raise ValueError("weight must be positive")
    lo, hi = field.min(), field.max()  # both propagate NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("input must be finite")
    state.swap("delta", "delta_prev")
    src, passes = state.delta_prev, cfg.bregman_max
    if lo == hi:  # constant input: TV is zero, the field is the exact prox
        np.copyto(state.delta, field)
        for part in (state.dh, state.dv, state.bh, state.bv):
            part.fill(0.0)
        passes = 0
    elif not state.warm:
        # seed the shrinkage pair from the input's gradients; the first
        # inner solve with this seed would leave u = field untouched, so
        # the loop starts directly at the solve for the seeded pair, from it
        def seed(blk):
            _gradient_rows(field, blk.rows, blk.bh, blk.bv)
            _shrink_step(blk, thresh)
        parallel.map_blocks(seed, state.blocks)
        src = field
    state.warm = True

    basis, eig = _neumann_basis(n, scale)
    iterations = 0
    for iterations in range(1, passes + 1):
        if iterations > 1:  # the last pass's iterate is the next one's source
            state.swap("delta", "spare")
            src = state.spare
        rel = _bregman_pass(field, src, state, basis, eig, scale, thresh)
        if rel < cfg.bregman_tol:
            break
    return state.delta, {"iterations": iterations, "state": state}


def admm_workspace(responsibilities: np.ndarray, memberships: np.ndarray, grid_side: int,
                   tv_split_penalty: float, simplex_split_penalty: float) -> Workspace:
    """The workspace of one membership ADMM on pixel-major (N, K) fields of
    an n x n grid, with every field class-major, (K, n, n): the fields of
    `tv_prox` and of `update_coupling`, formed from these responsibilities
    and penalties, and the ADMM's own: the coupling `eta`, the simplex
    block `psi`, the multipliers `lam_tv` and `lam_simplex`, and the TV
    target `target`. The TV iterate `delta`, `eta`, `psi` and the first
    target, eta - lam_tv / g1, start at `memberships`, transposed in once
    by `_class_major`; the multipliers start at zero."""
    g1, g2 = float(tv_split_penalty), float(simplex_split_penalty)
    delta = _class_major(memberships, side=grid_side)
    if np.may_share_memory(delta, memberships):  # one class is viewed; the ADMM writes it
        delta = delta.copy()
    resp = _class_major(responsibilities, np.shape(memberships), grid_side)
    return Workspace(delta.shape, **_tv_fields(delta), **_coupling_fields(resp, g1, g2),
                     eta=delta.copy(), psi=delta.copy(), lam_tv=np.zeros_like(delta),
                     lam_simplex=np.zeros_like(delta), target=delta.copy())


def update_multipliers(ws: Workspace, g1: float, g2: float) -> None:
    """The membership ADMM's multiplier steps, lam_tv += g1 (delta - eta)
    and lam_simplex += g2 (eta - psi), then its next TV target,
    eta - lam_tv / g1, in place over the row blocks of `ws`."""
    def block(blk):
        t = blk.target
        np.subtract(blk.delta, blk.eta, out=t)
        t *= g1
        blk.lam_tv += t
        np.subtract(blk.eta, blk.psi, out=t)
        t *= g2
        blk.lam_simplex += t
        np.divide(blk.lam_tv, g1, out=t)
        np.subtract(blk.eta, t, out=t)

    parallel.map_blocks(block, ws.blocks)


# ----------------------------------------------------------------------
# Reconstruction step (CGLS on a stacked least-squares system)
# ----------------------------------------------------------------------

def solve_reconstruction(system: SystemMatrix, measurements: np.ndarray,
                         responsibilities: np.ndarray, prior: ClassPrior,
                         cfg: SolverConfig,
                         x0: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Minimize
    data_weight*||Ax - b||^2 + sum_jk resp_jk/(2 s_k^2) (x_j - mu_k)^2
    + tikhonov_weight*||grad x||^2
    by CGLS on the stacked system [sqrt(dw) A; diag(sqrt(w/2)); sqrt(tw) grad]
    with target [sqrt(dw) b; sqrt(w/2) m; 0], where w_j sums resp_jk/s_k^2
    and m_j is the per-pixel precision-weighted prior mean.

    Stops when the relative change of x drops below cgls_tol or after
    cgls_max iterations.
    """
    b = np.asarray(measurements, dtype=np.float64)
    resp = np.asarray(responsibilities, dtype=np.float64)
    n_pix = system.n
    if resp.shape != (n_pix, prior.n_classes):
        raise ValueError("responsibility field shape does not match system/prior")
    if b.shape != (system.m,):
        raise ValueError("measurement length does not match system rows")

    inv_var = 1.0 / (prior.std_devs ** 2)
    w = resp @ inv_var
    m = (resp @ (prior.means * inv_var)) / w
    sw = np.sqrt(0.5 * w)
    sqrt_dw = math.sqrt(cfg.data_weight)
    tw = cfg.tikhonov_weight
    sqrt_tw = math.sqrt(tw) if tw > 0 else 0.0
    side = int(math.isqrt(n_pix))
    use_grad = tw > 0
    if use_grad and side * side != n_pix:
        raise ValueError("gradient term needs a square pixel grid")

    def forward(x):
        blocks = [sqrt_dw * apply(system, x), sw * x]
        if use_grad:
            gh, gv = image_gradient(x.reshape(side, side))
            blocks.extend((sqrt_tw * gh, sqrt_tw * gv))
        return blocks

    def adjoint(blocks):
        out = sqrt_dw * apply(system, blocks[0], transposed=True) + sw * blocks[1]
        if use_grad:
            out = out + sqrt_tw * image_gradient_adjoint(blocks[2], blocks[3]).ravel()
        return out

    rhs = [sqrt_dw * b, sw * m]
    if use_grad:
        rhs.extend((np.zeros((side, side)), np.zeros((side, side))))

    x = np.zeros(n_pix) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        r = [rb - fb for rb, fb in zip(rhs, forward(x))]
        s = adjoint(r)
        p = s.copy()
        gamma = float(s @ s)

        iterations = 0
        rel = np.inf
        for iterations in range(1, cfg.cgls_max + 1):
            q = forward(p)
            qq = sum(float(np.vdot(blk, blk)) for blk in q)
            if qq == 0.0:
                break
            alpha = gamma / qq
            x = x + alpha * p
            r = [rb - alpha * qb for rb, qb in zip(r, q)]
            s = adjoint(r)
            gamma_new = float(s @ s)
            beta = gamma_new / gamma if gamma > 0 else 0.0
            gamma = gamma_new
            step = abs(alpha) * np.linalg.norm(p)
            xnorm = np.linalg.norm(x)
            rel = step / xnorm if xnorm > 0 else np.inf
            p = s + beta * p
            if rel < cfg.cgls_tol:
                break
            if not np.isfinite(gamma):
                raise DivergenceError("reconstruction step produced a "
                                      "non-finite iterate")

    return x, {"iterations": iterations, "rel_change": float(rel)}
