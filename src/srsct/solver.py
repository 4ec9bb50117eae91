"""Outer alternating minimization and the membership ADMM.

One outer iteration updates the reconstruction (CGLS), the membership field
(ADMM with a split-Bregman TV step, a closed-form coupling update and a
clamped simplex normalization), and the responsibilities (row-normalized
mixture components). Two model variants are supported: "model-9" runs
without smoothing on the reconstruction, "model-16" adds a squared-gradient
penalty to the reconstruction step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import parallel
from .config import ClassPrior, SolverConfig, VARIANTS
from .errors import DivergenceError
from .geometry import Sinogram, SystemMatrix, apply
from .kernels import (
    admm_workspace,
    image_gradient,
    normalize_to_simplex,
    solve_reconstruction,
    total_variation,
    tv_prox,
    update_coupling,
    update_multipliers,
    update_responsibilities,
)
from .metrics import labels_from

SIMPLEX_FLOOR = 1e-4  # score floor of the clamped simplex normalization


@dataclass
class SrsProblem:
    """A reconstruction-and-segmentation instance: scanner, data and prior."""

    system: SystemMatrix
    sinogram: Sinogram
    prior: ClassPrior
    grid_side: int

    def __post_init__(self):
        if self.system.n != self.grid_side ** 2:
            raise ValueError("system columns do not match the pixel grid")
        if len(self.sinogram) != self.system.m:
            raise ValueError("sinogram length does not match system rows")
        if not np.all(np.isfinite(self.sinogram.values)):
            raise ValueError("sinogram values must be finite")
        if self.prior.n_classes < 2:
            raise ValueError("at least two classes are required")


@dataclass
class SrsResult:
    x: np.ndarray
    memberships: np.ndarray
    responsibilities: np.ndarray
    labels: np.ndarray
    iterations: int
    seconds: float
    energy_trace: list
    rel_changes: list
    info: dict = field(default_factory=dict)


def _log_components(x: np.ndarray, memberships: np.ndarray, prior: ClassPrior) -> np.ndarray:
    # log of the weighted component densities, computed in log space
    z = (x[:, None] - prior.means[None, :]) / prior.std_devs[None, :]
    return (np.log(memberships)
            - np.log(math.sqrt(2.0 * math.pi) * prior.std_devs)[None, :]
            - 0.5 * z * z)


def marginal_energy(x: np.ndarray, memberships: np.ndarray, prior: ClassPrior,
                    system: SystemMatrix, measurements: np.ndarray,
                    data_weight: float, tv_weight: float) -> float:
    """Energy with the responsibilities minimized out: data misfit, TV of the
    membership columns, and the negative log mixture likelihood. The last
    term is evaluated with a shifted (log-sum-exp) reduction."""
    n = int(math.isqrt(len(x)))
    resid = apply(system, x) - measurements
    log_f = _log_components(x, memberships, prior)
    shift = log_f.max(axis=1, keepdims=True)
    log_mix = shift[:, 0] + np.log(np.exp(log_f - shift).sum(axis=1))
    tv = total_variation(memberships.reshape(n, n, -1)) if tv_weight != 0.0 else 0.0
    return float(data_weight * resid @ resid + tv_weight * tv - log_mix.sum())


def joint_energy(x: np.ndarray, memberships: np.ndarray, responsibilities: np.ndarray,
                 prior: ClassPrior, system: SystemMatrix, measurements: np.ndarray,
                 cfg: SolverConfig) -> float:
    """Full separable energy in (x, memberships, responsibilities), including
    the squared-gradient term when cfg.tikhonov_weight is positive. With a
    zero tikhonov weight this is the model-9 objective."""
    n = int(math.isqrt(len(x)))
    resid = apply(system, x) - measurements
    value = cfg.data_weight * float(resid @ resid)
    if cfg.tikhonov_weight != 0.0:
        gh, gv = image_gradient(x.reshape(n, n))
        value += cfg.tikhonov_weight * float((gh * gh + gv * gv).sum())
    if cfg.tv_weight != 0.0:
        value += cfg.tv_weight * total_variation(memberships.reshape(n, n, -1))
    log_f = _log_components(x, memberships, prior)
    phi = responsibilities
    entropy_like = np.where(phi > 0.0, phi * np.log(np.where(phi > 0.0, phi, 1.0)), 0.0)
    value += float((-phi * log_f + entropy_like).sum())
    return value


def solve_membership_subproblem(responsibilities: np.ndarray,
                                memberships_init: np.ndarray,
                                cfg: SolverConfig, grid_side: int) -> tuple[np.ndarray, dict]:
    """ADMM for the membership subproblem at fixed responsibilities.

    The field is split three ways: a TV block solved column-wise by the
    split-Bregman proximal, a coupling block with a closed-form positive
    root, and a simplex block handled by clamped normalization. Multipliers
    start at zero; the TV and simplex blocks warm start from the previous
    membership field. Stops on the relative change of the TV block or after
    admm_max iterations, and returns the simplex block, which is strictly
    feasible by construction. Raises DivergenceError, naming the iteration,
    once an iterate is no longer finite.

    Every field lives in one `admm_workspace`, class-major and allocated
    once per call, and is updated in place by every iteration; the
    returned field is its `psi`, transposed back to (N, K).
    """
    phi = np.asarray(responsibilities, dtype=np.float64)
    if phi.ndim != 2 or np.any(phi < 0.0):
        raise ValueError("responsibilities must be a nonnegative (N, K) field")
    g1 = cfg.tv_split_penalty
    g2 = cfg.simplex_split_penalty

    iterations = 0
    bregman_total = 0
    rel = np.inf
    # overflow and NaN are caught by the finiteness test on each target
    with np.errstate(over="ignore", invalid="ignore"):
        ws = admm_workspace(phi, memberships_init, grid_side, g1, g2)
        for iterations in range(1, cfg.admm_max + 1):
            if not math.isfinite(ws.target.sum()):
                raise DivergenceError(f"membership ADMM produced non-finite values "
                                      f"at iteration {iterations}")
            # either way the previous TV block moves into delta_prev
            if cfg.tv_weight > 0.0:
                tv_info = tv_prox(ws.target, cfg.tv_weight / g1, grid_side, cfg, state=ws)[1]
                bregman_total += tv_info["iterations"]
            else:  # the TV block is its target, whose buffer delta takes
                ws.swap("delta", "delta_prev")
                ws.swap("delta", "target")
            # the TV block's relative change; from here `target` is free
            # and serves as scratch
            denom = np.linalg.norm(ws.delta_prev)
            np.subtract(ws.delta, ws.delta_prev, out=ws.target)
            rel = np.linalg.norm(ws.target) / denom if denom > 0.0 else np.inf
            update_coupling(ws.delta, ws.psi, ws.lam_tv, ws.lam_simplex, phi, g1, g2, work=ws)
            normalize_to_simplex(ws.eta, ws.lam_simplex, g2, SIMPLEX_FLOOR, work=ws)
            update_multipliers(ws, g1, g2)  # and the next TV target

            # the TV block is computed from the previous duals, so its change
            # is only meaningful once those have moved at least once
            if iterations > 1 and rel < cfg.admm_tol:
                break

    if not np.all(np.isfinite(ws.psi)):
        raise DivergenceError(f"membership ADMM produced non-finite values "
                              f"at iteration {iterations}")
    psi = ws.psi.reshape(len(ws.psi), -1).T.copy()
    return psi, {"iterations": iterations, "rel_change": float(rel),
                 "bregman_iterations": bregman_total}


@parallel.one_blas_thread()
def reconstruct_and_segment(problem: SrsProblem, cfg: SolverConfig,
                            variant: str = "model-16") -> SrsResult:
    """Run the full alternating scheme until the reconstruction stalls.

    Starts from a zero image and uniform fields; each pass updates the
    reconstruction, the memberships and the responsibilities in that order
    and records both energies. Terminates when the relative change of the
    reconstruction drops below outer_tol or outer_max passes are reached.

    The solve holds numpy's OpenBLAS at one thread (`parallel.one_blas_thread`)
    and restores the previous count when it returns or raises. The pin is
    process-wide while the solve runs. It leaves the other cores to the
    projector's row blocks, and makes the result independent of the BLAS
    thread count.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    eff = replace(cfg, tikhonov_weight=0.0) if variant == "model-9" else cfg

    n = problem.grid_side
    n_pix = n * n
    k = problem.prior.n_classes
    b = problem.sinogram.values

    x = np.zeros(n_pix)
    delta = np.full((n_pix, k), 1.0 / k)
    phi = np.full((n_pix, k), 1.0 / k)

    energy_trace: list[tuple[float, float]] = []
    rel_changes: list[float] = []
    totals = {"cgls_iterations": 0, "admm_iterations": 0, "responsibility_fallbacks": 0}

    started = time.perf_counter()
    iterations = 0
    for iterations in range(1, cfg.outer_max + 1):
        try:
            x_new, cg_info = solve_reconstruction(problem.system, b, phi,
                                                  problem.prior, eff, x0=x)
            delta, admm_info = solve_membership_subproblem(phi, delta, eff, n)
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} (outer iteration {iterations})",
                                  energy_trace) from exc
        phi, fallbacks = update_responsibilities(x_new, delta, problem.prior)

        totals["cgls_iterations"] += cg_info["iterations"]
        totals["admm_iterations"] += admm_info["iterations"]
        totals["responsibility_fallbacks"] += fallbacks

        e_marginal = marginal_energy(x_new, delta, problem.prior, problem.system,
                                     b, eff.data_weight, eff.tv_weight)
        e_joint = joint_energy(x_new, delta, phi, problem.prior, problem.system, b, eff)
        energy_trace.append((e_marginal, e_joint))
        if not (np.isfinite(e_marginal) and np.isfinite(e_joint)
                and np.all(np.isfinite(x_new))):
            raise DivergenceError(f"non-finite energy at outer iteration {iterations}",
                                  energy_trace)

        x_norm = np.linalg.norm(x)
        rel = np.linalg.norm(x_new - x) / x_norm if x_norm > 0 else np.inf
        rel_changes.append(float(rel))
        x = x_new
        if rel < cfg.outer_tol:
            break
    seconds = time.perf_counter() - started

    return SrsResult(x=x, memberships=delta, responsibilities=phi,
                     labels=labels_from(delta), iterations=iterations,
                     seconds=seconds, energy_trace=energy_trace,
                     rel_changes=rel_changes, info=totals)
