"""Sub-problem solvers: Gaussian mixture terms, CGLS reconstruction step,
split-Bregman TV proximal, and the closed-form field updates used by the
membership ADMM.

Measure fields are plain float64 arrays of shape (N, K). Two conventions
appear: simplex-interior fields have rows on the open probability simplex
(entries in (0, 1), rows summing to 1) while coupling fields only need
strictly positive entries.

The membership ADMM keeps every field in one `Workspace` per call
(`admm_workspace`), allocated once. Its kernels (`tv_prox`,
`update_coupling`, `normalize_to_simplex`) update it in place, and make a
small one when called without it. The TV iterate rotates among three
buffers; the one a `tv_prox` call started from stays intact in
`delta_prev`. The kernels run their elementwise and stencil work as
stages over the workspace's row blocks, on `parallel.map_blocks`. Every
entry is computed by the same operations in the same order whatever the
block count, so results are bit-identical on any number of cores.
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
# five timings, one block against two) 2.6 against 3.3 ms at 64x64x8
# (32,768 entries), 4.3 against 4.1 ms at 112x112x3 (37,632), 7.0 against
# 6.0 ms at 128x128x3 (49,152) and 33 against 25 ms at 256x256x3.
MIN_BLOCK_ENTRIES = 24_576
# numpy's PW_BLOCKSIZE: a pairwise sum splits longer runs in two
_PAIRWISE_BLOCK = 128


# ----------------------------------------------------------------------
# Row blocks and class sums
# ----------------------------------------------------------------------

def _field_blocks(shape: tuple[int, ...]) -> tuple:
    """The row blocks of a field of this shape: consecutive, nearly equal,
    nonempty ranges of its first axis, one per block that
    `parallel.block_count` grants it. A field of fewer than two dimensions
    is one block."""
    if len(shape) < 2:
        return (...,)
    rows = shape[0]
    count = min(parallel.block_count(math.prod(shape), MIN_BLOCK_ENTRIES), max(rows, 1))
    bounds = [rows * i // count for i in range(count + 1)]
    return tuple(slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:]))


class Workspace:
    """Fields of the membership ADMM's kernels, allocated once and updated
    in place: the keyword arrays, each viewed as `grid` without a copy (an
    (N, K) field of an n x n grid as (n, n, K)). `blocks` holds, for each
    row block of the grid, a namespace of its `rows` and, under each
    field's name, its rows of that field, made here once. `swap` exchanges
    two fields' buffers on the workspace and every block alike. `warm`
    tells whether `tv_prox` has run on it.
    """

    def __init__(self, grid: tuple[int, ...], **fields: np.ndarray):
        self.grid, self.warm = grid, False
        self.__dict__.update(fields)
        self.blocks = tuple(
            SimpleNamespace(rows=rows, **{key: f.reshape(grid)[rows] for key, f in fields.items()})
            for rows in _field_blocks(grid))

    def swap(self, a: str, b: str) -> None:
        for part in (self, *self.blocks):
            part.__dict__[a], part.__dict__[b] = part.__dict__[b], part.__dict__[a]


def _in_grid(operand, shape: tuple[int, ...], grid: tuple[int, ...]) -> np.ndarray:
    """An operand of a kernel as an array of the field's shape, viewed in
    the workspace's grid. Raises ValueError for any other shape."""
    operand = np.asarray(operand)
    if operand.shape != shape:
        raise ValueError(f"operand of shape {operand.shape} does not match the field's {shape}")
    return operand.reshape(grid, copy=False)


def _pairwise_sum(cols: list[np.ndarray]) -> np.ndarray:
    """numpy's pairwise sum of 8 or more terms, as a new array: eight
    accumulators combined as a tree, then the remainder one by one; runs
    longer than _PAIRWISE_BLOCK are split in two at a multiple of 8 first."""
    n = len(cols)
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        total = _pairwise_sum(cols[:half])
        total += _pairwise_sum(cols[half:])
        return total
    acc = cols[:8]
    i = 8
    if n >= 16:
        acc = [a + c for a, c in zip(acc, cols[8:16])]
        i = 16
        while i + 8 <= n:
            for a, c in zip(acc, cols[i:i + 8]):
                a += c
            i += 8
    # ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)) in three buffers
    total, right = np.add(acc[0], acc[1]), np.add(acc[2], acc[3])
    total += right
    np.add(acc[4], acc[5], out=right)
    right += np.add(acc[6], acc[7])
    total += right
    for col in cols[i:]:
        total += col
    return total


def _class_sum(field: np.ndarray) -> np.ndarray:
    """field.sum(axis=-1, keepdims=True) bit for bit, formed by adding whole
    class columns in the order numpy 2.x sums each row: from zero one by
    one below 8 classes, pairwise from 8 on, and that sum added to zero.
    numpy reduces each short row in an inner-loop call of its own, which
    costs several times more."""
    cols = [field[..., k:k + 1] for k in range(field.shape[-1])]
    if len(cols) >= 8:
        total = _pairwise_sum(cols)
        total += 0.0  # turns a -0 sum into +0, as numpy's does
        return total
    total = np.zeros((*field.shape[:-1], 1), dtype=field.dtype)
    for col in cols:
        total += col
    return total


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
    return f / _class_sum(f), fallback_rows


# ----------------------------------------------------------------------
# Closed-form ADMM field updates
# ----------------------------------------------------------------------

def _coupling_fields(responsibilities: np.ndarray, g1: float, g2: float) -> dict:
    """The terms of `update_coupling` that stay fixed while the
    responsibilities and the penalties do, and its scratch."""
    if g1 <= 0 or g2 <= 0:
        raise ValueError("split penalties must be positive")
    resp = np.asarray(responsibilities, dtype=np.float64)
    return {"four_phi_g": 4.0 * resp * (g1 + g2), "two_phi": 2.0 * resp,
            "lin": np.empty_like(resp), "disc": np.empty_like(resp),
            "conj_mask": np.empty(resp.shape, dtype=bool),
            "pos_mask": np.empty(resp.shape, dtype=bool)}


def _coupling_rows(blk: SimpleNamespace, memberships, simplex_field, mult_tv, mult_simplex,
                   out: np.ndarray, g1: float, g2: float) -> None:
    """`update_coupling` on one row block; the fields are its rows."""
    c, disc = blk.lin, blk.disc
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
                    *, out: np.ndarray | None = None,
                    work: Workspace | None = None) -> np.ndarray:
    """Positive root of the per-entry stationarity condition of the coupling
    field: the unique eta > 0 with
    -resp/eta + g1*(eta - memb) - mult_tv + g2*(eta - simp) + mult_simplex = 0.

    Uses the conjugate form of the quadratic formula when the linear part is
    not positive to avoid cancellation; an entry whose conjugate denominator
    is zero (zero responsibility and zero linear part) comes out 0. Every
    field has the responsibilities' shape, or the call raises ValueError.

    The result is written into `out` when given. `work` is the
    `admm_workspace` formed from this same responsibilities array and these
    penalties, or the call raises ValueError; its fixed terms and scratch
    are used in place. Without it the call forms a small workspace of its
    own. The work runs over the row blocks of the workspace, the first on
    the calling thread and the rest on the thread pool.
    """
    g1, g2 = float(tv_split_penalty), float(simplex_split_penalty)
    shape = np.shape(responsibilities)
    if work is None:
        work = Workspace(shape, **_coupling_fields(responsibilities, g1, g2))
    elif work.responsibilities is not responsibilities or work.penalties != (g1, g2):
        raise ValueError("work was formed from other responsibilities or penalties")
    if out is None:
        out = np.empty(shape)
    fields = [_in_grid(f, shape, work.grid)
              for f in (memberships, simplex_field, mult_tv, mult_simplex, out)]
    parallel.map_blocks(lambda blk: _coupling_rows(
        blk, *(f[blk.rows] for f in fields), g1, g2), work.blocks)
    return out


def normalize_to_simplex(coupling: np.ndarray, mult_simplex: np.ndarray,
                         simplex_split_penalty: float, floor: float,
                         *, out: np.ndarray | None = None,
                         work: Workspace | None = None) -> np.ndarray:
    """Clamped row normalization: floor the scores, then divide by the row
    sum. Both operands have one shape, or the call raises ValueError. The
    result is written into `out` when given. The rows run in the blocks of
    `work` (the membership ADMM's workspace) or, without it, of a small
    workspace of the call's own: the first on the calling thread and the
    rest on the thread pool. Each row sum adds the class columns in numpy's
    own order.

    Every entry stays positive for any finite scores. Entries stay strictly
    below 1 only while a row's largest score is under about floor / eps
    (1e-4 / 2.2e-16 at the solver's floor); beyond that the largest entry
    rounds to exactly 1. The membership ADMM's scores are O(1).
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    shape = np.shape(coupling)
    if out is None:
        # the dtype of the allocating expression, which turns integer
        # scores into floats
        out = np.empty(shape, dtype=np.result_type(simplex_split_penalty, coupling,
                                                   mult_simplex, floor, 1.0))
    if work is None:
        work = Workspace(shape)
    coupling, mult_simplex, out_grid = (_in_grid(f, shape, work.grid)
                                        for f in (coupling, mult_simplex, out))

    def block(blk):
        scores = np.multiply(simplex_split_penalty, coupling[blk.rows], out=out_grid[blk.rows])
        scores += mult_simplex[blk.rows]
        np.maximum(scores, floor, out=scores)
        scores /= _class_sum(scores)

    parallel.map_blocks(block, work.blocks)
    return out


# ----------------------------------------------------------------------
# Discrete gradient with replicated boundary
# ----------------------------------------------------------------------

def _gradient_rows(field: np.ndarray, rows: slice, gh: np.ndarray, gv: np.ndarray) -> None:
    """Rows `rows` (nonempty) of `image_gradient(field)`, written into gh
    and gv, which hold just those rows. Reads the row below them."""
    start, stop, _ = rows.indices(len(field))
    f = field[rows]
    np.subtract(f[:, 1:, ...], f[:, :-1, ...], out=gh[:, :-1, ...])
    gh[:, -1, ...] = 0.0
    inner = min(stop, len(field) - 1) - start  # the rows that have a row below
    np.subtract(field[start + 1:start + 1 + inner], f[:inner], out=gv[:inner])
    gv[inner:] = 0.0


def _gradient_adjoint_rows(gh: np.ndarray, gv: np.ndarray, rows: slice, out: np.ndarray) -> None:
    """Rows `rows` (nonempty) of `image_gradient_adjoint(gh, gv)`, written
    into `out`, which holds just those rows. Reads gv's row above them."""
    start, stop, _ = rows.indices(len(gh))
    h = gh[rows]
    # 0 - gh, as an accumulation into zeros would form it (a plain negation
    # would turn +0 into -0)
    np.subtract(0.0, h[:, :-1, ...], out=out[:, :-1, ...])
    out[:, -1, ...] = 0.0
    out[:, 1:, ...] += h[:, :-1, ...]
    inner = min(stop, len(gh) - 1) - start  # the rows that have a row below
    out[:inner] -= gv[start:start + inner]
    top = 1 if start == 0 else 0  # the first image row has no row above
    out[top:] += gv[start + top - 1:stop - 1]


def image_gradient(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences along columns and rows; the replicated boundary
    makes the last difference in each direction zero. `field` has shape
    (n, n) or (n, n, K)."""
    gh, gv = np.empty_like(field), np.empty_like(field)
    _gradient_rows(field, slice(0, len(field)), gh, gv)
    return gh, gv


def image_gradient_adjoint(gh: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """Adjoint of `image_gradient`."""
    out = np.empty_like(gh)
    _gradient_adjoint_rows(gh, gv, slice(0, len(gh)), out)
    return out


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
    """Orthonormal DCT-II matrix C and the eigenvalues of
    I + scale * grad^T grad on an n x n grid, shaped (n, n, 1).

    With forward differences and a replicated boundary, grad^T grad is the
    Neumann Laplacian. C diagonalises its 1-D second difference exactly,
    with eigenvalues 2 - 2 cos(pi k / n), so C (.) C^T diagonalises the 2-D
    operator.
    """
    k = np.arange(n)
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n)
    basis[0] /= math.sqrt(2.0)
    lam = 2.0 - 2.0 * np.cos(np.pi * k / n)
    eig = 1.0 + scale * (lam[:, None] + lam[None, :])[:, :, None]
    basis.setflags(write=False)  # shared by every caller through the cache
    eig.setflags(write=False)
    return basis, eig


def _tv_fields(delta: np.ndarray, grid: tuple[int, ...]) -> dict:
    """The fields of `tv_prox` on `grid`, with `delta` as the iterate: its
    two other buffers, the shrunk gradient (dh, dv), the Bregman variable
    (bh, bv), the pass scratch `work` and the eigenvalues `eig`."""
    _, eig = _neumann_basis(grid[0], BREGMAN_PENALTY_SCALE)
    return {"delta": delta, "delta_prev": np.empty_like(delta), "spare": np.empty_like(delta),
            **{name: np.empty(grid) for name in ("dh", "dv", "bh", "bv", "work")},
            "eig": np.broadcast_to(eig, grid)}


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


def _bregman_pass(v: np.ndarray, src: np.ndarray, ws: Workspace,
                  basis: np.ndarray, scale: float, thresh: float) -> float:
    """One split-Bregman pass from the iterate `src`, writing the new
    iterate into ws.delta and updating (dh, dv, bh, bv) in place; `src`,
    on the grid like `v`, is left as it was. Returns the relative change of
    the iterate.

    The pass runs as stages over the row blocks of the grid, each stage
    finishing on every block before the next starts, because the gradient
    pair and the DCT's axis-0 products read rows of other blocks. The
    axis-1 products are batched over rows, one identical GEMM per row, so
    they split by rows exactly. The two axis-0 products run whole on the
    calling thread: which micro-kernel OpenBLAS gives a column of a GEMM
    depends on the call's column count, so a split by columns changes the
    last digits of some columns. The norms of the relative change are
    taken whole too.
    """
    n = len(v)
    out, work = ws.delta.reshape(ws.grid), ws.work

    def subtract(blk):  # d - b, in d's buffers
        blk.dh -= blk.bh
        blk.dv -= blk.bv

    def rhs(blk):  # v + scale * grad^T (d - b)
        o = blk.delta
        _gradient_adjoint_rows(ws.dh, ws.dv, blk.rows, o)
        o *= scale
        np.add(v[blk.rows], o, out=o)

    def solve(blk):  # the forward transform's axis-1 product, then the inverse
        o = blk.delta
        np.matmul(basis, blk.work, out=o)
        o /= blk.eig

    def synthesize(blk):  # the inverse transform's axis-1 product; the change
        o = blk.delta
        np.matmul(basis.T, blk.work, out=o)
        np.subtract(o, src[blk.rows], out=blk.work)

    def shrink(blk):  # b += grad out, shrunk into d
        _gradient_rows(out, blk.rows, blk.dh, blk.dv)
        blk.bh += blk.dh
        blk.bv += blk.dv
        _shrink_step(blk, thresh)

    parallel.map_blocks(subtract, ws.blocks)
    parallel.map_blocks(rhs, ws.blocks)
    np.matmul(basis, out.reshape(n, -1), out=work.reshape(n, -1))
    parallel.map_blocks(solve, ws.blocks)
    np.matmul(basis.T, out.reshape(n, -1), out=work.reshape(n, -1))
    parallel.map_blocks(synthesize, ws.blocks)
    denom = np.linalg.norm(src)
    rel = np.linalg.norm(work) / denom if denom > 0.0 else np.inf
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
    dense matrix applied by matmuls (about 8 n^3 K flops per pass). Accepts
    a flat (N,) image or an (N, K) stack sharing one Frobenius stopping
    rule; the passes stop when the relative change of u drops below
    bregman_tol or after bregman_max passes. Each pass runs as stages over
    row blocks of the grid, split over the thread pool once the stack has
    at least 2 * MIN_BLOCK_ENTRIES entries and the BLAS can be pinned; the
    result is bit-identical whatever the block count.

    `state` is a `Workspace` with the fields of `_tv_fields`: the
    membership ADMM's, or the one a previous call returned in its info
    dict; a call without one makes a small one. The first call on a
    workspace starts cold, seeding (d, b) from the input's gradient. Later
    calls warm start from its iterate `delta` and (d, b); callers that
    solve a sequence of nearby targets (the membership ADMM) converge in a
    couple of passes that way. A call updates the workspace in place and
    allocates no field. The returned field is a view of `delta`, which the
    next call overwrites; the iterate the call started from is kept
    unchanged in `delta_prev`, so a caller may still compare the two. A
    constant input is its own prox: it becomes `delta`, with (d, b) zero.
    """
    scale = BREGMAN_PENALTY_SCALE
    thresh = weight / scale
    if not thresh > 0.0:  # also rejects a NaN weight
        raise ValueError("weight must be positive")
    v_in = np.asarray(field, dtype=np.float64)
    lo, hi = v_in.min(), v_in.max()  # both propagate NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("input must be finite")
    n = int(grid_side)
    v = v_in.reshape(n, n, -1)
    if state is None:
        state = Workspace(v.shape, **_tv_fields(np.empty(v_in.shape), v.shape))
    state.swap("delta", "delta_prev")
    src, passes = state.delta_prev.reshape(v.shape), cfg.bregman_max
    if lo == hi:  # constant input: TV is zero, v is the exact prox
        np.copyto(state.delta.reshape(v.shape), v)
        for part in (state.dh, state.dv, state.bh, state.bv):
            part.fill(0.0)
        passes = 0
    elif not state.warm:
        # seed the shrinkage pair from the input's gradients; the first
        # inner solve with this seed would leave u = v untouched, so the
        # loop starts directly at the solve for the seeded pair, from v
        def seed(blk):
            _gradient_rows(v, blk.rows, blk.bh, blk.bv)
            _shrink_step(blk, thresh)
        parallel.map_blocks(seed, state.blocks)
        src = v
    state.warm = True

    basis, _ = _neumann_basis(n, scale)
    iterations = 0
    for iterations in range(1, passes + 1):
        if iterations > 1:  # the last pass's iterate is the next one's source
            state.swap("delta", "spare")
            src = state.spare.reshape(v.shape)
        rel = _bregman_pass(v, src, state, basis, scale, thresh)
        if rel < cfg.bregman_tol:
            break
    return state.delta.reshape(v_in.shape), {"iterations": iterations, "state": state}


def admm_workspace(responsibilities: np.ndarray, memberships: np.ndarray, grid_side: int,
                   tv_split_penalty: float, simplex_split_penalty: float) -> Workspace:
    """The workspace of one membership ADMM on (N, K) fields of an n x n
    grid: the fields of `tv_prox` and of `update_coupling`, formed from
    these responsibilities and penalties, and the ADMM's own: the coupling
    `eta`, the simplex block `psi`, the multipliers `lam_tv` and
    `lam_simplex`, and the TV target `target`. The TV iterate `delta`,
    `eta` and `psi` start at `memberships`, the multipliers at zero."""
    g1, g2 = float(tv_split_penalty), float(simplex_split_penalty)
    delta = np.array(memberships, dtype=np.float64)
    grid = (grid_side, grid_side, delta.shape[-1])
    ws = Workspace(grid, **_tv_fields(delta, grid), **_coupling_fields(responsibilities, g1, g2),
                   eta=delta.copy(), psi=delta.copy(), lam_tv=np.zeros_like(delta),
                   lam_simplex=np.zeros_like(delta), target=np.empty_like(delta))
    ws.responsibilities, ws.penalties = responsibilities, (g1, g2)
    return ws


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
