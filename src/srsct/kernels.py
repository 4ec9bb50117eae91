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

def update_coupling(memberships: np.ndarray, simplex_field: np.ndarray,
                    mult_tv: np.ndarray, mult_simplex: np.ndarray,
                    responsibilities: np.ndarray,
                    tv_split_penalty: float, simplex_split_penalty: float) -> np.ndarray:
    """Positive root of the per-entry stationarity condition of the coupling
    field: the unique eta > 0 with
    -resp/eta + g1*(eta - memb) - mult_tv + g2*(eta - simp) + mult_simplex = 0.

    Uses the conjugate form of the quadratic formula when the linear part is
    negative to avoid cancellation.
    """
    g1, g2 = float(tv_split_penalty), float(simplex_split_penalty)
    if g1 <= 0 or g2 <= 0:
        raise ValueError("split penalties must be positive")
    c = g1 * memberships + mult_tv + g2 * simplex_field - mult_simplex
    disc = np.sqrt(c * c + 4.0 * responsibilities * (g1 + g2))
    conj_denom = disc - c
    with np.errstate(divide="ignore", invalid="ignore"):
        conj = np.where(conj_denom > 0.0, 2.0 * responsibilities / conj_denom, 0.0)
    return np.where(c > 0.0, (c + disc) / (2.0 * (g1 + g2)), conj)


def normalize_to_simplex(coupling: np.ndarray, mult_simplex: np.ndarray,
                         simplex_split_penalty: float, floor: float) -> np.ndarray:
    """Clamped row normalization: floor the scores, then divide by the row sum."""
    if floor <= 0:
        raise ValueError("floor must be positive")
    scores = np.maximum(simplex_split_penalty * coupling + mult_simplex, floor)
    return scores / scores.sum(axis=-1, keepdims=True)


# ----------------------------------------------------------------------
# Discrete gradient with replicated boundary
# ----------------------------------------------------------------------

def image_gradient(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences along columns and rows; the replicated boundary
    makes the last difference in each direction zero. `field` has shape
    (n, n) or (n, n, K)."""
    gh = np.zeros_like(field)
    gv = np.zeros_like(field)
    gh[:, :-1, ...] = field[:, 1:, ...] - field[:, :-1, ...]
    gv[:-1, ...] = field[1:, ...] - field[:-1, ...]
    return gh, gv


def image_gradient_adjoint(gh: np.ndarray, gv: np.ndarray) -> np.ndarray:
    out = np.zeros_like(gh)
    out[:, :-1, ...] -= gh[:, :-1, ...]
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


def _apply_along_grid(mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """mat applied along axis 0 and axis 1 of an (n, n, K) stack."""
    n = u.shape[0]
    return mat @ (mat @ u.reshape(n, -1)).reshape(u.shape)


def _shrink(ah: np.ndarray, av: np.ndarray, thresh: float) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic shrinkage of the gradient pair (ah, av) by thresh."""
    mag = np.sqrt(ah * ah + av * av)
    factor = np.maximum(mag - thresh, 0.0) / np.where(mag > 0.0, mag, 1.0)
    return factor * ah, factor * av


def tv_prox(field: np.ndarray, weight: float, grid_side: int,
            cfg: SolverConfig, state: tuple | None = None) -> tuple[np.ndarray, dict]:
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
    membership ADMM) converge in a couple of passes that way.
    """
    if weight <= 0:
        raise ValueError("weight must be positive")
    v_in = np.asarray(field, dtype=np.float64)
    if not np.all(np.isfinite(v_in)):
        raise ValueError("input must be finite")
    n = int(grid_side)
    v = v_in.reshape(n, n, -1)

    if np.ptp(v_in) == 0.0:  # constant input: TV is zero, v is the exact prox
        zh = np.zeros_like(v)
        return v_in.copy(), {"iterations": 0,
                             "state": (v.copy(), zh, zh.copy(), zh.copy(), zh.copy())}

    scale = BREGMAN_PENALTY_SCALE
    thresh = weight / scale
    basis, eig = _neumann_basis(n, scale)

    if state is not None:
        u, dh, dv, bh, bv = (np.array(part, copy=True) for part in state)
    else:
        u = v.copy()
        # seed the shrinkage pair from the input's gradients; the first
        # inner solve with this seed would leave u untouched, so the loop
        # starts directly at the solve for the seeded pair
        gh, gv = image_gradient(u)
        dh, dv = _shrink(gh, gv, thresh)
        bh = gh - dh
        bv = gv - dv

    iterations = 0
    for iterations in range(1, cfg.bregman_max + 1):
        u_prev = u
        rhs = v + scale * image_gradient_adjoint(dh - bh, dv - bv)
        u = _apply_along_grid(basis.T, _apply_along_grid(basis, rhs) / eig)

        gh, gv = image_gradient(u)
        dh, dv = _shrink(gh + bh, gv + bv, thresh)
        bh += gh
        bh -= dh
        bv += gv
        bv -= dv

        denom = np.linalg.norm(u_prev)
        if denom > 0.0 and np.linalg.norm(u - u_prev) / denom < cfg.bregman_tol:
            break

    return u.reshape(v_in.shape), {"iterations": iterations,
                                   "state": (u, dh, dv, bh, bv)}


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
