"""Membership ADMM, energies, and the outer alternating loop."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from srsct import (
    ClassPrior,
    DivergenceError,
    Sinogram,
    SolverConfig,
    SrsProblem,
    SystemMatrix,
    apply,
    build_parallel_geometry,
    joint_energy,
    make_piecewise_phantom,
    marginal_energy,
    normalize_to_simplex,
    reconstruct_and_segment,
    solve_membership_subproblem,
    tv_prox,
    update_coupling,
    update_responsibilities,
)
from srsct import parallel, solver
from srsct.geometry import add_noise
from srsct.kernels import (
    BREGMAN_PENALTY_SCALE,
    _neumann_basis,
    image_gradient,
    image_gradient_adjoint,
    total_variation,
)


def assert_simplex_interior(field):
    """Every row lies strictly inside the probability simplex."""
    assert np.all((field > 0.0) & (field < 1.0))
    np.testing.assert_allclose(field.sum(axis=-1), 1.0, rtol=0, atol=1e-9)


def membership_cycle_fixed_point(resp):
    """Stationary memberships of the update cycle for zero TV weight.

    Solving the cycle's fixed-point equations by hand: the TV block forces
    the first multiplier to zero, the coupling stationarity then gives
    mult = resp / value, and the clamped row normalization reproduces the
    iterate exactly when it is proportional to sqrt(resp).
    """
    root = np.sqrt(resp)
    return root / root.sum(axis=1, keepdims=True)


class TestMembershipSubproblem:
    def test_zero_tv_reaches_cycle_fixed_point(self):
        resp = np.tile([0.9, 0.1], (64, 1))
        init = np.full((64, 2), 0.5)
        cfg = SolverConfig(tv_weight=0.0, tv_split_penalty=1.0,
                           simplex_split_penalty=2.0, admm_max=500, admm_tol=1e-10)
        out, info = solve_membership_subproblem(resp, init, cfg, 8)
        np.testing.assert_allclose(out, membership_cycle_fixed_point(resp), atol=1e-7)

    def test_output_is_cycle_stationary(self):
        # one further full cycle moves the returned field by less than the
        # stopping tolerance: the ADMM genuinely converged
        rng = np.random.default_rng(21)
        resp = rng.dirichlet(np.ones(3), size=64)
        init = np.full((64, 3), 1 / 3)
        cfg = SolverConfig(tv_weight=1.0, tv_split_penalty=1.0,
                           simplex_split_penalty=2.0, admm_max=4000, admm_tol=1e-9,
                           bregman_tol=1e-6, bregman_max=500)
        out, info = solve_membership_subproblem(resp, init, cfg, 8)
        again, _ = solve_membership_subproblem(resp, out, cfg, 8)
        assert np.abs(again - out).max() < 1e-5

    def test_uniform_responsibilities_stay_uniform(self):
        resp = np.full((64, 4), 0.25)
        out, _ = solve_membership_subproblem(resp, resp.copy(), SolverConfig(), 8)
        np.testing.assert_allclose(out, 0.25, atol=1e-12)

    def test_output_strictly_feasible(self):
        rng = np.random.default_rng(3)
        resp = rng.dirichlet(np.ones(5), size=36)
        out, _ = solve_membership_subproblem(resp, np.full((36, 5), 0.2),
                                             SolverConfig(), 6)
        assert_simplex_interior(out)

    def test_tv_pull_smooths_memberships(self):
        # a salt-and-pepper responsibility field: TV-regularized memberships
        # have lower column TV than the responsibilities themselves
        rng = np.random.default_rng(8)
        n = 8
        resp = np.full((n * n, 2), [0.85, 0.15])
        flip = rng.random(n * n) < 0.15
        resp[flip] = [0.15, 0.85]
        out, _ = solve_membership_subproblem(resp, np.full((n * n, 2), 0.5),
                                             SolverConfig(), n)
        assert (total_variation(out.reshape(n, n, 2))
                < total_variation(resp.reshape(n, n, 2)))


def allocating_admm(resp, init, cfg, n):
    """The membership ADMM as a plain allocating loop on its (N, K) fields,
    over standalone kernel calls: every iterate is a fresh array, and the
    relative change of the TV block is formed on every iteration from its
    own norms, taken class-major as the workspace holds the fields. Kept as
    the reference that the in-place solver must match bit for bit."""
    def class_major(field):
        return np.ascontiguousarray(field.T)

    delta = init.copy()
    eta = delta.copy()
    psi = delta.copy()
    lam_tv = np.zeros_like(delta)
    lam_simplex = np.zeros_like(delta)
    g1, g2 = cfg.tv_split_penalty, cfg.simplex_split_penalty
    bregman_total = 0
    rel = np.inf
    tv_state = None
    for iterations in range(1, cfg.admm_max + 1):
        delta_prev = delta
        target = eta - lam_tv / g1
        if cfg.tv_weight > 0.0:
            delta, tv_info = tv_prox(target, cfg.tv_weight / g1, n, cfg, state=tv_state)
            delta = delta.copy()  # the next call may overwrite the returned view
            tv_state = tv_info["state"]
            bregman_total += tv_info["iterations"]
        else:
            delta = target
        eta = update_coupling(delta, psi, lam_tv, lam_simplex, resp, g1, g2)
        psi = normalize_to_simplex(eta, lam_simplex, g2, solver.SIMPLEX_FLOOR)
        lam_tv = lam_tv + g1 * (delta - eta)
        lam_simplex = lam_simplex + g2 * (eta - psi)
        denom = np.linalg.norm(class_major(delta_prev))
        rel = (np.linalg.norm(class_major(delta - delta_prev)) / denom if denom > 0
               else np.inf)
        if iterations > 1 and rel < cfg.admm_tol:
            break
    return psi, {"iterations": iterations, "rel_change": float(rel),
                 "bregman_iterations": bregman_total}


class TestMembershipSubproblemInPlace:
    # a uniform start makes the first TV target constant, which takes the
    # constant-input path of tv_prox; a random start makes a cold first call
    @pytest.mark.parametrize("start", ["uniform", "random"])
    @pytest.mark.parametrize("overrides", [{"bregman_max": 1}, {}, {"tv_weight": 0.0}],
                             ids=["one-pass", "default", "no-tv"])
    def test_bit_identical_to_the_allocating_loop(self, start, overrides):
        n, k = 16, 4
        rng = np.random.default_rng(2024)
        resp = rng.dirichlet(np.ones(k), size=n * n)
        init = (np.full((n * n, k), 1.0 / k) if start == "uniform"
                else rng.dirichlet(np.ones(k), size=n * n))
        cfg = SolverConfig(**{"tv_weight": 0.5, "tv_split_penalty": 1.0,
                              "simplex_split_penalty": 2.0, "admm_max": 400, **overrides})
        out, info = solve_membership_subproblem(resp, init, cfg, n)
        ref, ref_info = allocating_admm(resp, init, cfg, n)
        assert np.array_equal(out, ref)
        assert info == ref_info
        assert info["iterations"] < cfg.admm_max  # stopped on the tolerance
        if cfg.tv_weight > 0.0 and cfg.bregman_max > 1:
            # some calls ran more than one Bregman pass
            assert info["bregman_iterations"] > info["iterations"]

    def test_overflowing_responsibility_raises_divergence(self):
        # 1e308 is finite and passes the input check, but 4 * resp * (g1 + g2)
        # overflows in the coupling update; the ADMM must report that as a
        # divergence (naming its iteration) and warn of nothing on the way
        resp = np.full((64, 2), 0.5)
        resp[10, 0] = 1e308
        with pytest.raises(DivergenceError,
                           match=r"^membership ADMM produced non-finite values at iteration 2$"):
            solve_membership_subproblem(resp, np.full((64, 2), 0.5), SolverConfig(), 8)


def pixel_major_tv_prox(v_flat, weight, n, cfg, state=None):
    """The split-Bregman prox on (n, n, K) fields, with each 2-D DCT as an
    axis-0 product of the whole stack and one axis-1 product per grid row:
    the pixel-major formulas that the class-major kernels replaced, kept
    verbatim. The state is a tuple (u, dh, dv, bh, bv)."""
    scale = BREGMAN_PENALTY_SCALE
    thresh = weight / scale
    basis, eig = _neumann_basis(n, scale)
    eig = eig[:, :, None]
    v = v_flat.reshape(n, n, -1)

    def along_grid(mat, u):
        return mat @ (mat @ u.reshape(n, -1)).reshape(u.shape)

    def shrink(ah, av):
        mag = np.sqrt(ah * ah + av * av)
        factor = np.maximum(mag - thresh, 0.0) / np.where(mag > 0.0, mag, 1.0)
        return factor * ah, factor * av

    if state is None:
        u = v.copy()
        gh, gv = image_gradient(u)
        dh, dv = shrink(gh, gv)
        bh, bv = gh - dh, gv - dv
    else:
        u, dh, dv, bh, bv = (part.copy() for part in state)
    for iterations in range(1, cfg.bregman_max + 1):
        u_prev = u
        rhs = v + scale * image_gradient_adjoint(dh - bh, dv - bv)
        u = along_grid(basis.T, along_grid(basis, rhs) / eig)
        gh, gv = image_gradient(u)
        dh, dv = shrink(gh + bh, gv + bv)
        bh = bh + gh - dh
        bv = bv + gv - dv
        denom = np.linalg.norm(u_prev)
        if denom > 0.0 and np.linalg.norm(u - u_prev) / denom < cfg.bregman_tol:
            break
    return u.reshape(v_flat.shape), iterations, (u, dh, dv, bh, bv)


def pixel_major_admm(resp, init, cfg, n):
    """The membership ADMM on (N, K) fields, over `pixel_major_tv_prox` and
    a row-wise simplex step, with norms in pixel-major order: the formulas
    that the class-major workspace replaced, kept verbatim."""
    delta = init.copy()
    eta = delta.copy()
    psi = delta.copy()
    lam_tv = np.zeros_like(delta)
    lam_simplex = np.zeros_like(delta)
    g1, g2 = cfg.tv_split_penalty, cfg.simplex_split_penalty
    bregman_total = 0
    rel = np.inf
    tv_state = None
    for iterations in range(1, cfg.admm_max + 1):
        delta_prev = delta
        target = eta - lam_tv / g1
        if cfg.tv_weight > 0.0:
            delta, passes, tv_state = pixel_major_tv_prox(target, cfg.tv_weight / g1, n, cfg,
                                                          tv_state)
            bregman_total += passes
        else:
            delta = target
        eta = update_coupling(delta, psi, lam_tv, lam_simplex, resp, g1, g2)
        scores = np.maximum(g2 * eta + lam_simplex, solver.SIMPLEX_FLOOR)
        psi = scores / scores.sum(axis=-1, keepdims=True)
        lam_tv = lam_tv + g1 * (delta - eta)
        lam_simplex = lam_simplex + g2 * (eta - psi)
        denom = np.linalg.norm(delta_prev)
        rel = np.linalg.norm(delta - delta_prev) / denom if denom > 0 else np.inf
        if iterations > 1 and rel < cfg.admm_tol:
            break
    return psi, {"iterations": iterations, "bregman_iterations": bregman_total}


@pytest.mark.parametrize("n,k,seed", [(16, 4, 0), (33, 3, 1), (12, 8, 2), (21, 1, 3)])
def test_class_major_layout_agrees_with_the_pixel_major_formulas(n, k, seed):
    # the layouts sum and multiply in other orders, so they agree to
    # rounding, not bit for bit. Over 40 random draws (n 4..39, k 1..8)
    # tv_prox agreed to 1.7e-15 of the field's largest entry and the ADMM
    # to 2.2e-16, with every iteration count equal; the bounds below leave
    # a margin of about 50
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n * n, k))
    cfg = SolverConfig(bregman_max=20)
    out, info = tv_prox(v, 0.7, n, cfg)
    ref, passes, _ = pixel_major_tv_prox(v, 0.7, n, cfg)
    assert info["iterations"] == passes
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    resp, init = (rng.dirichlet(np.ones(k), size=n * n) for _ in range(2))
    cfg = SolverConfig(tv_weight=0.5, simplex_split_penalty=2.0, admm_max=40)
    out, info = solve_membership_subproblem(resp, init, cfg, n)
    ref, ref_info = pixel_major_admm(resp, init, cfg, n)
    assert (info["iterations"], info["bregman_iterations"]) == (
        ref_info["iterations"], ref_info["bregman_iterations"])
    assert np.abs(out - ref).max() <= 1e-14


class TestSplitAdmm:
    """The ADMM with its kernels cut into row blocks equals its one-block run."""

    # tv_weight 0 takes the swap path in place of the TV prox
    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("n", [7, 33])
    @pytest.mark.parametrize("k,tv_weight", [(1, 0.5), (3, 0.5), (8, 0.5),
                                             (1, 0.0), (3, 0.0), (8, 0.0)],
                             ids=["1", "3", "8", "1-no-tv", "3-no-tv", "8-no-tv"])
    def test_membership_subproblem(self, admm_blocks, n, k, tv_weight, count):
        rng = np.random.default_rng(300 * n + k)
        resp = rng.dirichlet(np.ones(k), size=n * n)
        init = rng.dirichlet(np.ones(k), size=n * n)
        cfg = SolverConfig(tv_weight=tv_weight, admm_max=40)
        admm_blocks(1)
        whole, whole_info = solve_membership_subproblem(resp, init, cfg, n)
        admm_blocks(count)
        split, split_info = solve_membership_subproblem(resp, init, cfg, n)
        assert np.array_equal(whole, split)
        assert whole_info == split_info

    @pytest.mark.parametrize("count", [2, 3])
    def test_full_solve(self, admm_blocks, count):
        problem = small_problem()
        cfg = SolverConfig(outer_max=3)
        admm_blocks(1)
        whole = reconstruct_and_segment(problem, cfg)
        admm_blocks(count)
        split = reconstruct_and_segment(problem, cfg)
        for name in ("x", "memberships", "responsibilities", "labels"):
            assert np.array_equal(getattr(whole, name), getattr(split, name)), name
        assert whole.energy_trace == split.energy_trace
        assert (whole.iterations, whole.info) == (split.iterations, split.info)

    def test_overflow_in_a_pool_block_raises_divergence(self, admm_blocks):
        # the overflowing entry sits in the second of two row blocks, which
        # runs on the thread pool: the ADMM's error state must hold there
        # too, so the call warns of nothing and reports the divergence
        admm_blocks(2)
        resp = np.full((64, 2), 0.5)
        resp[50, 0] = 1e308
        with pytest.raises(DivergenceError,
                           match=r"^membership ADMM produced non-finite values at iteration 2$"):
            solve_membership_subproblem(resp, np.full((64, 2), 0.5), SolverConfig(), 8)


def direct_joint_energy(x, memb, resp, prior, system, b, cfg):
    """Straight transcription of the separable objective, no shared helpers."""
    n = int(math.isqrt(len(x)))
    resid = apply(system, x) - b
    total = cfg.data_weight * float(resid @ resid)
    gh, gv = image_gradient(x.reshape(n, n))
    total += cfg.tikhonov_weight * float((gh ** 2 + gv ** 2).sum())
    for k in range(memb.shape[1]):
        total += cfg.tv_weight * total_variation(memb[:, k].reshape(n, n))
    for j in range(len(x)):
        for k in range(memb.shape[1]):
            f = memb[j, k] / (math.sqrt(2 * math.pi) * prior.std_devs[k]) * math.exp(
                -(x[j] - prior.means[k]) ** 2 / (2 * prior.std_devs[k] ** 2))
            total += -resp[j, k] * math.log(f) + resp[j, k] * math.log(resp[j, k])
    return total


def random_instance(rng, n=4, k=3, m=10):
    system = SystemMatrix(sp.csr_matrix(rng.standard_normal((m, n * n))))
    b = rng.standard_normal(m)
    x = rng.uniform(0.0, 1.0, size=n * n)
    memb = rng.dirichlet(np.ones(k), size=n * n)
    resp = rng.dirichlet(np.ones(k), size=n * n)
    prior = ClassPrior(np.linspace(0.1, 0.9, k), np.linspace(0.1, 0.3, k))
    return system, b, x, memb, resp, prior


class TestEnergies:
    def test_single_gaussian_peak_value(self):
        system = SystemMatrix(sp.identity(1, format="csr"))
        prior = ClassPrior(np.array([0.7]), np.array([1.0]))
        value = marginal_energy(np.array([0.7]), np.array([[1.0]]), prior,
                                system, np.array([0.7]), 0.0, 0.0)
        assert value == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_linear_in_data_weight(self):
        rng = np.random.default_rng(14)
        system, b, x, memb, _, prior = random_instance(rng)
        e1 = marginal_energy(x, memb, prior, system, b, 1.0, 0.5)
        e2 = marginal_energy(x, memb, prior, system, b, 2.0, 0.5)
        resid = apply(system, x) - b
        assert e2 - e1 == pytest.approx(float(resid @ resid), rel=1e-9)

    def test_joint_energy_matches_direct_formula(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            system, b, x, memb, resp, prior = random_instance(rng)
            cfg = SolverConfig(data_weight=0.8, tv_weight=0.6, tikhonov_weight=0.4)
            fast = joint_energy(x, memb, resp, prior, system, b, cfg)
            slow = direct_joint_energy(x, memb, resp, prior, system, b, cfg)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_marginal_is_minimum_over_responsibilities(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            system, b, x, memb, resp, prior = random_instance(rng)
            cfg = SolverConfig(data_weight=0.8, tv_weight=0.6, tikhonov_weight=0.0)
            e0 = marginal_energy(x, memb, prior, system, b,
                                 cfg.data_weight, cfg.tv_weight)
            best_resp, _ = update_responsibilities(x, memb, prior)
            at_best = joint_energy(x, memb, best_resp, prior, system, b, cfg)
            at_other = joint_energy(x, memb, resp, prior, system, b, cfg)
            assert at_best == pytest.approx(e0, abs=1e-9)
            assert at_other >= e0 - 1e-9

    def test_optimal_responsibilities_add_tikhonov_exactly(self):
        rng = np.random.default_rng(17)
        system, b, x, memb, _, prior = random_instance(rng)
        cfg = SolverConfig(data_weight=0.8, tv_weight=0.6, tikhonov_weight=1.3)
        resp, _ = update_responsibilities(x, memb, prior)
        e0 = marginal_energy(x, memb, prior, system, b, cfg.data_weight, cfg.tv_weight)
        gh, gv = image_gradient(x.reshape(4, 4))
        smooth = cfg.tikhonov_weight * float((gh ** 2 + gv ** 2).sum())
        full = joint_energy(x, memb, resp, prior, system, b, cfg)
        assert full == pytest.approx(e0 + smooth, abs=1e-9)

    def test_constant_image_contributes_no_smoothing_term(self):
        rng = np.random.default_rng(18)
        system, b, _, memb, resp, prior = random_instance(rng)
        x = np.full(16, 0.4)
        with_term = joint_energy(x, memb, resp, prior, system, b,
                                 SolverConfig(data_weight=1.0, tv_weight=0.0,
                                              tikhonov_weight=5.0))
        without = joint_energy(x, memb, resp, prior, system, b,
                               SolverConfig(data_weight=1.0, tv_weight=0.0,
                                            tikhonov_weight=0.0))
        assert with_term == pytest.approx(without, rel=1e-12)


class TestReconstructAndSegment:
    def test_identical_classes_keep_uniform_fields(self):
        # all classes identical and no TV: nothing can break the symmetry
        n = 16
        ph = make_piecewise_phantom(n)
        system = build_parallel_geometry(n, 23, [15.0 * k for k in range(1, 13)])
        sino = add_noise(apply(system, ph.image), 0.0, 0)
        prior = ClassPrior(np.full(4, 0.5), np.full(4, 0.2))
        problem = SrsProblem(system, sino, prior, n)
        cfg = SolverConfig(data_weight=1.0, tv_weight=0.0, outer_max=4)
        result = reconstruct_and_segment(problem, cfg, "model-9")
        np.testing.assert_allclose(result.memberships, 0.25, atol=1e-12)
        np.testing.assert_allclose(result.responsibilities, 0.25, atol=1e-12)

    def test_deterministic_given_problem(self):
        n = 16
        ph = make_piecewise_phantom(n)
        system = build_parallel_geometry(n, 23, [20.0 * k for k in range(1, 10)])
        sino = add_noise(apply(system, ph.image), 0.02, 5)
        prior = ClassPrior(ph.class_means, np.full(8, 0.1))
        problem = SrsProblem(system, sino, prior, n)
        cfg = SolverConfig(data_weight=0.2, tv_weight=1.0, tikhonov_weight=1.0,
                           simplex_split_penalty=2.0, outer_max=3)
        r1 = reconstruct_and_segment(problem, cfg, "model-16")
        r2 = reconstruct_and_segment(problem, cfg, "model-16")
        np.testing.assert_array_equal(r1.x, r2.x)
        np.testing.assert_array_equal(r1.labels, r2.labels)
        assert r1.energy_trace == r2.energy_trace

    def test_variant_must_be_known(self):
        n = 16
        ph = make_piecewise_phantom(n)
        system = build_parallel_geometry(n, 23, [45.0, 90.0, 135.0, 180.0])
        sino = add_noise(apply(system, ph.image), 0.0, 0)
        prior = ClassPrior(ph.class_means, np.full(8, 0.1))
        problem = SrsProblem(system, sino, prior, n)
        with pytest.raises(ValueError):
            reconstruct_and_segment(problem, SolverConfig(), "model-7")

    def test_divergent_data_raises_with_trace(self):
        n = 16
        ph = make_piecewise_phantom(n)
        system = build_parallel_geometry(n, 23, [45.0, 90.0, 135.0, 180.0])
        bad = Sinogram(np.full(system.m, 1e300))
        prior = ClassPrior(ph.class_means, np.full(8, 0.1))
        problem = SrsProblem(system, bad, prior, n)
        with pytest.raises(DivergenceError) as err:
            reconstruct_and_segment(problem, SolverConfig(outer_max=3), "model-9")
        assert hasattr(err.value, "energy_trace")

    def test_final_responsibilities_consistent_with_iterates(self):
        n = 16
        ph = make_piecewise_phantom(n)
        system = build_parallel_geometry(n, 23, [30.0 * k for k in range(1, 7)])
        sino = add_noise(apply(system, ph.image), 0.02, 9)
        prior = ClassPrior(ph.class_means, np.full(8, 0.1))
        problem = SrsProblem(system, sino, prior, n)
        cfg = SolverConfig(data_weight=0.2, tv_weight=1.0, outer_max=4,
                           simplex_split_penalty=2.0)
        result = reconstruct_and_segment(problem, cfg, "model-9")
        expected, _ = update_responsibilities(result.x, result.memberships, prior)
        np.testing.assert_allclose(result.responsibilities, expected, atol=1e-12)
        assert_simplex_interior(result.memberships)
        np.testing.assert_allclose(result.responsibilities.sum(axis=1), 1.0,
                                   atol=1e-12)

    def test_labels_match_membership_argmax(self):
        n = 16
        ph = make_piecewise_phantom(n)
        system = build_parallel_geometry(n, 23, [30.0 * k for k in range(1, 7)])
        sino = add_noise(apply(system, ph.image), 0.01, 3)
        prior = ClassPrior(ph.class_means, np.full(8, 0.1))
        problem = SrsProblem(system, sino, prior, n)
        cfg = SolverConfig(data_weight=0.2, tv_weight=1.0, outer_max=3,
                           simplex_split_penalty=2.0)
        result = reconstruct_and_segment(problem, cfg, "model-9")
        np.testing.assert_array_equal(result.labels,
                                      np.argmax(result.memberships, axis=1) + 1)

    @pytest.mark.parametrize("variant", ["model-9", "model-16"])
    def test_two_classes_on_a_small_grid(self, variant):
        n = 16
        rows, cols = np.indices((n, n))
        disk = (rows - 7.5) ** 2 + (cols - 7.5) ** 2 < 25.0
        image = np.where(disk, 0.8, 0.2).ravel()
        system = build_parallel_geometry(n, 23, [15.0 * k for k in range(1, 13)])
        sino = add_noise(apply(system, image), 0.02, 11)
        prior = ClassPrior(np.array([0.2, 0.8]), np.array([0.1, 0.1]))
        problem = SrsProblem(system, sino, prior, n)
        cfg = SolverConfig(data_weight=0.2, tv_weight=1.0, tikhonov_weight=1.0,
                           simplex_split_penalty=2.0, outer_max=5)
        result = reconstruct_and_segment(problem, cfg, variant)
        assert np.all(np.isfinite(result.x))
        assert_simplex_interior(result.memberships)
        assert set(np.unique(result.labels)) == {1, 2}

    def test_problem_dimension_validation(self):
        n = 16
        ph = make_piecewise_phantom(n)
        system = build_parallel_geometry(n, 23, [90.0])
        prior = ClassPrior(ph.class_means, np.full(8, 0.1))
        with pytest.raises(ValueError):
            SrsProblem(system, Sinogram(np.zeros(system.m + 1)), prior, n)
        with pytest.raises(ValueError):
            SrsProblem(system, Sinogram(np.zeros(system.m)), prior, n + 1)
        single = ClassPrior(np.array([0.5]), np.array([0.1]))
        with pytest.raises(ValueError):
            SrsProblem(system, Sinogram(np.zeros(system.m)), single, n)

    def test_non_finite_sinogram_rejected(self):
        n = 16
        ph = make_piecewise_phantom(n)
        system = build_parallel_geometry(n, 23, [90.0])
        prior = ClassPrior(ph.class_means, np.full(8, 0.1))
        for bad in (np.nan, np.inf, -np.inf):
            values = np.zeros(system.m)
            values[3] = bad
            with pytest.raises(ValueError, match="finite"):
                SrsProblem(system, Sinogram(values), prior, n)


def small_problem(divergent=False):
    n = 16
    ph = make_piecewise_phantom(n)
    system = build_parallel_geometry(n, 23, [45.0, 90.0, 135.0, 180.0])
    sino = (Sinogram(np.full(system.m, 1e300)) if divergent
            else add_noise(apply(system, ph.image), 0.0, 0))
    return SrsProblem(system, sino, ClassPrior(ph.class_means, np.full(8, 0.1)), n)


@pytest.fixture
def blas_threads():
    """OpenBLAS set to two threads for the test and reset after it; yields
    the function that reads the count."""
    if parallel._BLAS is None:
        pytest.skip("numpy's BLAS exposes no thread control")
    get, put = parallel._BLAS
    before = get()
    put(2)
    yield get
    put(before)


# A smooth 128x128 scan: the CGLS vectors have more than 10,000 entries, where
# a threaded BLAS dot product sums in a different order.
REPRODUCE = """
import sys
import numpy as np
import srsct
n = 128
ph = srsct.make_smooth_phantom(n)
system = srsct.build_parallel_geometry(n, 182, [6.0 * k for k in range(1, 31)])
sino = srsct.add_noise(srsct.apply(system, ph.image), 0.01, 4000)
prior = srsct.ClassPrior(ph.class_means, np.full(ph.n_classes, 0.05))
cfg = srsct.SolverConfig(data_weight=123.0, tv_weight=0.55, tikhonov_weight=35.0,
                         tv_split_penalty=0.6, simplex_split_penalty=0.6,
                         outer_max=2, cgls_max=20, admm_max=5)
result = srsct.reconstruct_and_segment(srsct.SrsProblem(system, sino, prior, n), cfg)
np.savez(sys.argv[1], x=result.x, memberships=result.memberships)
"""


class TestBlasPin:
    def test_solve_holds_one_thread_and_restores_the_count(self, blas_threads, monkeypatch):
        seen = []
        real = solver.update_responsibilities

        def spy(*args):
            seen.append(blas_threads())
            return real(*args)

        monkeypatch.setattr(solver, "update_responsibilities", spy)
        reconstruct_and_segment(small_problem(), SolverConfig(outer_max=2), "model-9")
        assert seen and set(seen) == {1}
        assert blas_threads() == 2

    def test_count_restored_after_divergence(self, blas_threads):
        with pytest.raises(DivergenceError):
            reconstruct_and_segment(small_problem(divergent=True), SolverConfig(outer_max=3),
                                    "model-9")
        assert blas_threads() == 2

    def test_result_independent_of_blas_threads(self, tmp_path):
        src = str(Path(sys.modules["srsct"].__file__).parents[1])
        results = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            path = tmp_path / f"threads{threads}.npz"
            run = subprocess.run([sys.executable, "-c", REPRODUCE, str(path)], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            results.append(np.load(path))
        for name in ("x", "memberships"):
            assert np.array_equal(results[0][name], results[1][name]), name
