"""Sub-problem solvers: Gaussian mixture terms, CGLS reconstruction step,
split-Bregman TV proximal, and the closed-form field updates used by the
membership ADMM.

Measure fields are plain float64 arrays of shape (N, K). Two conventions
appear: simplex-interior fields have rows on the open probability simplex
(entries in (0, 1), rows summing to 1) while coupling fields only need
strictly positive entries.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .config import ClassPrior, SolverConfig
from .errors import DivergenceError
from .geometry import SystemMatrix, apply

_TINY = np.finfo(np.float64).tiny  # smallest positive normal double
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Split-Bregman penalty of tv_prox, fixed whatever the TV weight; the
# shrink threshold is weight / BREGMAN_PENALTY_SCALE, so weights near and
# above 1 take many passes to converge.
BREGMAN_PENALTY_SCALE = 2.0


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

class CouplingWork(NamedTuple):
    """The terms of `update_coupling` that stay fixed while the
    responsibilities and the penalties do, what they were formed from, and
    its scratch buffers."""

    responsibilities: np.ndarray  # the field the terms were formed from
    penalties: tuple[float, float]  # (g1, g2)
    four_phi_g: np.ndarray   # 4 * resp * (g1 + g2)
    two_phi: np.ndarray      # 2 * resp
    lin: np.ndarray          # scratch: the linear part c
    disc: np.ndarray         # scratch: the discriminant root, then disc - c
    conj_mask: np.ndarray    # scratch: where the conjugate form applies
    pos_mask: np.ndarray     # scratch


def coupling_work(responsibilities: np.ndarray, tv_split_penalty: float,
                  simplex_split_penalty: float) -> CouplingWork:
    """Form the fixed terms of `update_coupling` once, for a caller (the
    membership ADMM) that calls it many times at the same responsibilities
    and penalties."""
    g1, g2 = float(tv_split_penalty), float(simplex_split_penalty)
    if g1 <= 0 or g2 <= 0:
        raise ValueError("split penalties must be positive")
    resp = np.asarray(responsibilities, dtype=np.float64)
    return CouplingWork(responsibilities, (g1, g2),
                        4.0 * resp * (g1 + g2), 2.0 * resp,
                        np.empty_like(resp), np.empty_like(resp),
                        np.empty(resp.shape, dtype=bool), np.empty(resp.shape, dtype=bool))


def update_coupling(memberships: np.ndarray, simplex_field: np.ndarray,
                    mult_tv: np.ndarray, mult_simplex: np.ndarray,
                    responsibilities: np.ndarray,
                    tv_split_penalty: float, simplex_split_penalty: float,
                    *, out: np.ndarray | None = None,
                    work: CouplingWork | None = None) -> np.ndarray:
    """Positive root of the per-entry stationarity condition of the coupling
    field: the unique eta > 0 with
    -resp/eta + g1*(eta - memb) - mult_tv + g2*(eta - simp) + mult_simplex = 0.

    Uses the conjugate form of the quadratic formula when the linear part is
    not positive to avoid cancellation; an entry whose conjugate denominator
    is zero (zero responsibility and zero linear part) comes out 0.

    The result is written into `out` when given. `work` must come from
    `coupling_work` called with this same responsibilities array and these
    penalties, or the call raises ValueError; without it the call forms
    those terms itself.
    """
    g1, g2 = float(tv_split_penalty), float(simplex_split_penalty)
    if work is None:
        work = coupling_work(responsibilities, g1, g2)
    elif work.responsibilities is not responsibilities or work.penalties != (g1, g2):
        raise ValueError("work was formed from other responsibilities or penalties")
    c, disc = work.lin, work.disc
    np.multiply(g1, memberships, out=c)
    c += mult_tv
    np.multiply(g2, simplex_field, out=disc)
    c += disc
    c -= mult_simplex
    np.multiply(c, c, out=disc)
    disc += work.four_phi_g
    np.sqrt(disc, out=disc)
    # the root for c > 0 everywhere, then the conjugate form where c <= 0
    # and its denominator disc - c is positive
    out = np.add(c, disc, out=out)
    out /= 2.0 * (g1 + g2)
    np.subtract(disc, c, out=disc)
    np.less_equal(c, 0.0, out=work.conj_mask)
    np.greater(disc, 0.0, out=work.pos_mask)
    np.logical_and(work.conj_mask, work.pos_mask, out=work.conj_mask)
    np.divide(work.two_phi, disc, out=out, where=work.conj_mask)
    return out


def normalize_to_simplex(coupling: np.ndarray, mult_simplex: np.ndarray,
                         simplex_split_penalty: float, floor: float,
                         *, out: np.ndarray | None = None) -> np.ndarray:
    """Clamped row normalization: floor the scores, then divide by the row
    sum. The result is written into `out` when given.

    Every entry stays positive for any finite scores. Entries stay strictly
    below 1 only while a row's largest score is under about floor / eps
    (1e-4 / 2.2e-16 at the solver's floor); beyond that the largest entry
    rounds to exactly 1. The membership ADMM's scores are O(1).
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    if out is None:
        # the shape and dtype of the allocating expression, which turns
        # integer scores into floats
        out = np.empty(np.broadcast_shapes(np.shape(coupling), np.shape(mult_simplex)),
                       dtype=np.result_type(simplex_split_penalty, coupling,
                                            mult_simplex, floor, 1.0))
    scores = np.multiply(simplex_split_penalty, coupling, out=out)
    scores += mult_simplex
    np.maximum(scores, floor, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


# ----------------------------------------------------------------------
# Discrete gradient with replicated boundary
# ----------------------------------------------------------------------

def image_gradient(field: np.ndarray,
                   out: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences along columns and rows; the replicated boundary
    makes the last difference in each direction zero. `field` has shape
    (n, n) or (n, n, K). The pair is written into `out` when given."""
    gh, gv = (np.empty_like(field), np.empty_like(field)) if out is None else out
    np.subtract(field[:, 1:, ...], field[:, :-1, ...], out=gh[:, :-1, ...])
    gh[:, -1, ...] = 0.0
    np.subtract(field[1:, ...], field[:-1, ...], out=gv[:-1, ...])
    gv[-1, ...] = 0.0
    return gh, gv


def image_gradient_adjoint(gh: np.ndarray, gv: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of `image_gradient`, written into `out` when given."""
    if out is None:
        out = np.empty_like(gh)
    # 0 - gh, as an accumulation into zeros would form it (a plain negation
    # would turn +0 into -0)
    np.subtract(0.0, gh[:, :-1, ...], out=out[:, :-1, ...])
    out[:, -1, ...] = 0.0
    out[:, 1:, ...] += gh[:, :-1, ...]
    out[:-1, ...] -= gv[:-1, ...]
    out[1:, ...] += gv[:-1, ...]
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


def _apply_along_grid(mat: np.ndarray, u: np.ndarray, work: np.ndarray) -> None:
    """mat applied along axis 0 and axis 1 of an (n, n, K) stack, in place;
    `work` is scratch of the same shape."""
    n = u.shape[0]
    np.matmul(mat, u.reshape(n, -1), out=work.reshape(n, -1))
    np.matmul(mat, work, out=u)


def relative_change(new: np.ndarray, prev: np.ndarray, scratch: np.ndarray) -> float:
    """||new - prev|| / ||prev|| in the Frobenius norm, inf when prev is
    zero. The difference is formed in `scratch`, which may be `prev`."""
    denom = np.linalg.norm(prev)
    return np.linalg.norm(np.subtract(new, prev, out=scratch)) / denom if denom > 0.0 else np.inf


class BregmanState:
    """Warm state of `tv_prox` on an (n, n, K) stack.

    `u` is the iterate, (`dh`, `dv`) the shrunk gradient and (`bh`, `bv`)
    the Bregman variable. The state also owns the scratch that every pass
    writes into: two spare iterates and one work buffer, all of the same
    shape. A call given a state updates it in place and allocates nothing.
    """

    def __init__(self, u: np.ndarray):
        self.u = u
        self.dh, self.dv, self.bh, self.bv = (np.zeros_like(u) for _ in range(4))
        self.spares = [np.empty_like(u), np.empty_like(u)]
        self.work = np.empty_like(u)


def _shrink_step(st: BregmanState, thresh: float) -> None:
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


def _bregman_pass(v: np.ndarray, st: BregmanState, out: np.ndarray,
                  basis: np.ndarray, eig: np.ndarray, scale: float,
                  thresh: float) -> float:
    """One split-Bregman pass from st.u, writing the new iterate into `out`
    and updating (dh, dv, bh, bv) in place; st.u is left as it was. Returns
    the relative change of the iterate."""
    u, work = st.u, st.work
    # rhs = v + scale * grad^T (d - b); d - b is formed in d's buffers, which
    # the pass overwrites below
    st.dh -= st.bh
    st.dv -= st.bv
    image_gradient_adjoint(st.dh, st.dv, out=out)
    out *= scale
    np.add(v, out, out=out)
    _apply_along_grid(basis, out, work)
    out /= eig
    _apply_along_grid(basis.T, out, work)

    rel = relative_change(out, u, work)

    image_gradient(out, out=(st.dh, st.dv))
    st.bh += st.dh
    st.bv += st.dv
    _shrink_step(st, thresh)
    return rel


def tv_prox(field: np.ndarray, weight: float, grid_side: int,
            cfg: SolverConfig, state: BregmanState | None = None) -> tuple[np.ndarray, dict]:
    """Approximate minimizer of weight * TV(u) + 0.5 * ||u - field||^2.

    Split Bregman with an auxiliary gradient variable and isotropic
    shrinkage. The penalty is scaled so the inner system stays
    (I + BREGMAN_PENALTY_SCALE * grad^T grad) regardless of the weight;
    each pass solves it exactly in the 2-D DCT-II basis, which diagonalises
    the Neumann Laplacian of the replicated boundary. The basis is a cached
    dense matrix applied by matmuls (about 8 n^3 K flops per pass). Accepts
    a flat (N,) image or an (N, K) stack sharing one Frobenius stopping
    rule; the passes stop when the relative change of u drops below
    bregman_tol or after bregman_max passes.

    Passing the `state` from a previous call's info dict warm starts the
    iteration; callers that solve a sequence of nearby targets (the
    membership ADMM) converge in a couple of passes that way. Such a call
    updates that `BregmanState` in place and returns the same object, and
    the returned field is a view of its iterate, which the next call given
    the state overwrites. The call leaves the buffer of the iterate it
    started from unchanged, so a caller may still compare the new iterate
    with the previous call's result. A cold call (no state) and a constant
    input return a fresh state.
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

    if lo == hi:  # constant input: TV is zero, v is the exact prox
        return v_in.copy(), {"iterations": 0, "state": BregmanState(v.copy())}

    basis, eig = _neumann_basis(n, scale)

    if state is None:
        # seed the shrinkage pair from the input's gradients; the first
        # inner solve with this seed would leave u untouched, so the loop
        # starts directly at the solve for the seeded pair
        state = BregmanState(v.copy())
        image_gradient(state.u, out=(state.bh, state.bv))
        _shrink_step(state, thresh)

    # each pass writes into a spare that is not the starting iterate, so
    # the previous call's result stays intact through the call
    start = state.u
    iterations = 0
    for iterations in range(1, cfg.bregman_max + 1):
        out = state.spares.pop()
        rel = _bregman_pass(v, state, out, basis, eig, scale, thresh)
        if state.u is not start:
            state.spares.append(state.u)
        state.u = out
        if rel < cfg.bregman_tol:
            break
    if state.u is not start:
        state.spares.append(start)

    return state.u.reshape(v_in.shape), {"iterations": iterations, "state": state}


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
