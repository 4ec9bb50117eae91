"""Solver kernels against independent oracles.

Expected values marked as frozen were computed from the scalar formulas or
the brute-force oracles defined in this file.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from srsct import (
    ClassPrior,
    SolverConfig,
    SystemMatrix,
    apply,
    image_gradient,
    image_gradient_adjoint,
    logsum_transform,
    mixture_component,
    normalize_to_simplex,
    solve_reconstruction,
    total_variation,
    tv_prox,
    update_coupling,
    update_responsibilities,
)
from srsct.kernels import BREGMAN_PENALTY_SCALE, _neumann_basis


def tv_objective(u, v, weight, n):
    return weight * total_variation(u.reshape(n, n, -1)) + 0.5 * np.sum((u - v) ** 2)


def tv_subgradient_oracle(v, weight, n, iters=10_000, step=0.5):
    """Projected-subgradient descent on the TV proximal objective."""
    u = v.copy()
    best = tv_objective(u, v, weight, n)
    for t in range(iters):
        gh, gv = image_gradient(u.reshape(n, n))
        mag = np.sqrt(gh * gh + gv * gv)
        safe = np.where(mag > 0, mag, 1.0)
        sub = image_gradient_adjoint(gh / safe, gv / safe).ravel()
        u = u - step / math.sqrt(t + 1.0) * ((u - v) + weight * sub)
        best = min(best, tv_objective(u, v, weight, n))
    return best


def simplex_grid(step=1e-3):
    """All interior points of the 3-simplex on a regular grid."""
    ticks = np.arange(1, round(1 / step))
    p1, p2 = np.meshgrid(ticks, ticks, indexing="ij")
    p1 = p1.ravel() * step
    p2 = p2.ravel() * step
    p3 = 1.0 - p1 - p2
    keep = p3 >= step - 1e-12
    return np.column_stack([p1[keep], p2[keep], p3[keep]])


class TestMixtureComponent:
    def test_peak_value_unit_std(self):
        assert mixture_component(0.0, 1.0, 0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_linear_in_weight(self):
        full = mixture_component(0.3, 1.0, 0.1, 0.2)
        half = mixture_component(0.3, 0.5, 0.1, 0.2)
        assert half == pytest.approx(0.5 * full, rel=1e-12)

    def test_frozen_scalar_value(self):
        # 0.125 / (sqrt(2 pi) * 0.1) * exp(-(1/7)^2 / 0.02), evaluated directly
        expected = 0.125 / (math.sqrt(2 * math.pi) * 0.1) * math.exp(-(1 / 7) ** 2 / 0.02)
        assert expected == pytest.approx(0.17974732843608535, abs=1e-12)
        assert mixture_component(0.0, 0.125, 1 / 7, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_underflow_floored_positive(self):
        assert mixture_component(1e6, 1e-3, 0.0, 1e-3) >= np.finfo(np.float64).tiny

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mixture_component(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            mixture_component(0.0, 1.0, 0.0, 0.0)


class TestLogsumTransform:
    def test_symmetric_pair(self):
        value, weights = logsum_transform(np.array([1.0, 1.0]))
        assert value == pytest.approx(-math.log(2.0), abs=1e-15)
        np.testing.assert_allclose(weights, [0.5, 0.5])

    def test_single_component(self):
        value, weights = logsum_transform(np.array([math.e]))
        assert value == pytest.approx(-1.0, abs=1e-15)
        np.testing.assert_allclose(weights, [1.0])

    def test_unit_sum_against_grid_search(self):
        f = np.array([0.2, 0.5, 0.3])
        value, weights = logsum_transform(f)
        assert value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(weights, f, atol=1e-15)
        grid = simplex_grid(1e-3)
        objective = -(grid @ np.log(f)) + np.sum(grid * np.log(grid), axis=1)
        assert value == pytest.approx(objective.min(), abs=1e-6)

    def test_transform_identity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = rng.integers(2, 9)
            f = rng.uniform(0.05, 20.0, size=k)
            value, w = logsum_transform(f)
            direct = float(-(w @ np.log(f)) + w @ np.log(w))
            assert abs(value - direct) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            logsum_transform(np.array([0.5, 0.0]))
        with pytest.raises(ValueError):
            logsum_transform(np.array([0.5, -1.0]))


class TestUpdateCoupling:
    def test_linear_degenerate_case(self):
        # zero responsibility and positive linear part: quadratic degenerates
        memb = np.array([[0.4]])
        simp = np.array([[0.6]])
        eta = update_coupling(memb, simp, np.zeros((1, 1)), np.zeros((1, 1)),
                              np.zeros((1, 1)), 1.5, 0.5)
        c = 1.5 * 0.4 + 0.5 * 0.6
        assert eta[0, 0] == pytest.approx(c / 2.0, rel=1e-14)

    def test_unit_case_frozen(self):
        eta = update_coupling(np.array([[0.5]]), np.array([[0.5]]),
                              np.zeros((1, 1)), np.zeros((1, 1)),
                              np.ones((1, 1)), 1.0, 1.0)
        assert eta[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_stationarity_random(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            shape = (30, 4)
            memb = rng.dirichlet(np.ones(4), size=30)
            simp = rng.dirichlet(np.ones(4), size=30)
            l1 = rng.standard_normal(shape)
            l2 = rng.standard_normal(shape)
            resp = rng.dirichlet(np.ones(4), size=30)
            g1 = float(rng.uniform(0.1, 4.0))
            g2 = float(rng.uniform(0.1, 4.0))
            eta = update_coupling(memb, simp, l1, l2, resp, g1, g2)
            assert np.all(eta > 0.0)
            residual = -resp / eta + g1 * (eta - memb) - l1 + g2 * (eta - simp) + l2
            assert np.abs(residual).max() < 1e-10


class TestNormalizeToSimplex:
    def test_already_normalized(self):
        out = normalize_to_simplex(np.array([[0.3, 0.7]]), np.zeros((1, 2)), 1.0, 1e-4)
        np.testing.assert_allclose(out, [[0.3, 0.7]], atol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0.1, 2.0, size=(20, 3))
        base = normalize_to_simplex(scores, np.zeros_like(scores), 1.0, 1e-9)
        for c in (0.5, 3.0):
            scaled = normalize_to_simplex(c * scores, np.zeros_like(scores), 1.0, 1e-9)
            np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_clamped_entry_frozen(self):
        # scores (-0.1, 0.5) with floor 1e-4: (1e-4, 0.5) / 0.5001
        out = normalize_to_simplex(np.array([[-0.1, 0.5]]), np.zeros((1, 2)), 1.0, 1e-4)
        np.testing.assert_allclose(out, [[1e-4 / 0.5001, 0.5 / 0.5001]], rtol=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_always_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        coupling = rng.uniform(-2.0, 2.0, size=(8, 5))
        mult = rng.uniform(-2.0, 2.0, size=(8, 5))
        out = normalize_to_simplex(coupling, mult, float(rng.uniform(0.1, 3.0)), 1e-4)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out > 0)


class TestUpdateResponsibilities:
    def test_symmetric_classes_stay_uniform(self):
        prior = ClassPrior(np.full(4, 0.3), np.full(4, 0.2))
        memb = np.full((10, 4), 0.25)
        x = np.linspace(-1, 1, 10)
        resp, fallbacks = update_responsibilities(x, memb, prior)
        np.testing.assert_allclose(resp, 0.25, atol=1e-15)
        assert fallbacks == 0

    def test_distant_class_dominates(self):
        # two classes ten standard deviations apart, sample at the first mean
        prior = ClassPrior(np.array([0.0, 1.0]), np.array([0.1, 0.1]))
        memb = np.full((1, 2), 0.5)
        resp, _ = update_responsibilities(np.array([0.0]), memb, prior)
        assert resp[0, 0] > 1 - 1e-10

    def test_matches_grid_search(self):
        rng = np.random.default_rng(77)
        grid = simplex_grid(1e-3)
        log_grid = np.sum(grid * np.log(grid), axis=1)
        prior = ClassPrior(np.array([0.1, 0.45, 0.8]), np.array([0.15, 0.2, 0.25]))
        for _ in range(3):
            memb = rng.dirichlet(np.ones(3), size=1)
            x = rng.uniform(0.0, 0.9, size=1)
            resp, _ = update_responsibilities(x, memb, prior)
            f = np.array([mixture_component(x[0], memb[0, k], prior.means[k],
                                            prior.std_devs[k]) for k in range(3)])
            objective = -(grid @ np.log(f)) + log_grid
            best = grid[np.argmin(objective)]
            np.testing.assert_allclose(resp[0], best, atol=1e-3)

    def test_all_underflow_falls_back_to_uniform(self):
        prior = ClassPrior(np.array([0.0, 0.5]), np.array([1e-3, 1e-3]))
        memb = np.full((2, 2), 0.5)
        x = np.array([1e8, 0.0])
        resp, fallbacks = update_responsibilities(x, memb, prior)
        np.testing.assert_allclose(resp[0], [0.5, 0.5])
        assert fallbacks == 1

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(5)
        prior = ClassPrior(np.arange(8) / 7.0, np.full(8, 0.1))
        memb = rng.dirichlet(np.ones(8), size=100)
        x = rng.uniform(-0.2, 1.2, size=100)
        resp, _ = update_responsibilities(x, memb, prior)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(resp > 0)


class TestImageGradient:
    def test_adjointness(self):
        rng = np.random.default_rng(1)
        for shape in ((6, 6), (5, 5, 3)):
            a = rng.standard_normal(shape)
            ph = rng.standard_normal(shape)
            pv = rng.standard_normal(shape)
            gh, gv = image_gradient(a)
            lhs = (gh * ph).sum() + (gv * pv).sum()
            rhs = (a * image_gradient_adjoint(ph, pv)).sum()
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_constant_has_zero_gradient(self):
        gh, gv = image_gradient(np.full((4, 4), 2.5))
        assert not gh.any() and not gv.any()
        assert total_variation(np.full((4, 4), 2.5)) == 0.0


class TestTvProx:
    def test_constant_input_exact_fixed_point(self):
        cfg = SolverConfig()
        v = np.full(16, 3.14)
        out, info = tv_prox(v, 0.5, 4, cfg)
        assert np.array_equal(out, v)
        assert info["iterations"] == 0

    def test_vanishing_weight_returns_input(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(64)
        out, _ = tv_prox(v, 1e-12, 8, SolverConfig())
        assert np.abs(out - v).max() < 1e-8

    def test_beats_subgradient_oracle_small(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(16)
        cfg = SolverConfig(bregman_tol=1e-9, bregman_max=3000)
        out, _ = tv_prox(v, 0.5, 4, cfg)
        assert tv_objective(out, v, 0.5, 4) <= tv_subgradient_oracle(v, 0.5, 4) + 1e-3

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=3),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_descent_from_input(self, seed, n, k, weight):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n * n, k))
        out, _ = tv_prox(v, weight, n, SolverConfig())
        assert tv_objective(out, v, weight, n) <= tv_objective(v, v, weight, n)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=3),
           st.floats(min_value=0.05, max_value=1.0),
           st.sampled_from([1e-2, 1e-1, 1.0]))
    @settings(max_examples=20, deadline=None)
    def test_non_expansive(self, seed, n, k, weight, step):
        rng = np.random.default_rng(seed)
        shape = (n * n,) if k == 1 else (n * n, k)
        a = rng.standard_normal(shape)
        b = a + step * rng.standard_normal(shape)
        cfg = SolverConfig(bregman_tol=1e-9, bregman_max=5000)
        prox_a, _ = tv_prox(a, weight, n, cfg)
        prox_b, _ = tv_prox(b, weight, n, cfg)
        assert np.linalg.norm(prox_a - prox_b) <= np.linalg.norm(a - b) * (1 + 1e-6)

    def test_warm_state_round_trip(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((64, 2))
        cfg = SolverConfig(bregman_tol=1e-8, bregman_max=2000)
        out_cold, info = tv_prox(v, 0.4, 8, cfg)
        out_warm, _ = tv_prox(v, 0.4, 8, cfg, state=info["state"])
        np.testing.assert_allclose(out_warm, out_cold, atol=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tv_prox(np.ones(16), 0.0, 4, SolverConfig())
        with pytest.raises(ValueError):
            tv_prox(np.full(16, np.inf), 1.0, 4, SolverConfig())


class TestTvProxInnerSolve:
    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
    @pytest.mark.parametrize("k", [None, 1, 2, 8])
    def test_one_pass_solves_the_inner_system(self, n, k):
        # with the shrinkage pair and the Bregman variables at zero, one
        # pass returns (I + s grad^T grad)^-1 of the input; k None is a
        # flat (N,) image
        rng = np.random.default_rng(n)
        rhs = rng.standard_normal((n * n,) if k is None else (n * n, k))
        _, zero = tv_prox(np.zeros_like(rhs), 1.0, n, SolverConfig())
        u, info = tv_prox(rhs, 1.0, n, SolverConfig(bregman_max=1), state=zero["state"])
        assert info["iterations"] == 1 and u.shape == rhs.shape
        grid = u.reshape(n, n, -1)
        lhs = grid + BREGMAN_PENALTY_SCALE * image_gradient_adjoint(*image_gradient(grid))
        residual = np.linalg.norm(lhs - rhs.reshape(n, n, -1))
        assert residual <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
    def test_basis_is_orthonormal(self, n):
        basis, _ = _neumann_basis(n, BREGMAN_PENALTY_SCALE)
        np.testing.assert_allclose(basis @ basis.T, np.eye(n), rtol=0, atol=1e-13)

    def test_leaves_scipy_fft_unimported(self):
        # scipy.fft pulls in scipy.special, several MB of resident memory
        # that the dense basis does without
        code = ("import sys, numpy as np, srsct\n"
                "srsct.tv_prox(np.arange(16.0), 0.5, 4, srsct.SolverConfig())\n"
                "print(sorted({'scipy.fft', 'scipy.special'} & set(sys.modules)))")
        src = str(Path(sys.modules["srsct"].__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert run.stdout.strip() == "[]"


class TestSolveReconstruction:
    def test_identity_system_exact(self):
        # target value and prior mean coincide class-wise: both terms vanish
        prior = ClassPrior(np.array([0.2, 0.8]), np.array([0.1, 0.1]))
        tiny = 1e-12
        phi = np.array([[1 - tiny, tiny], [tiny, 1 - tiny],
                        [1 - tiny, tiny], [tiny, 1 - tiny]])
        b = np.array([0.2, 0.8, 0.2, 0.8])
        system = SystemMatrix(sp.identity(4, format="csr"))
        cfg = SolverConfig(data_weight=1.0, cgls_tol=1e-14, cgls_max=200)
        x, _ = solve_reconstruction(system, b, phi, prior, cfg)
        np.testing.assert_allclose(x, b, atol=1e-10)

    def test_scalar_calculus_oracle(self):
        # minimize x^2 + (x - 1)^2 / 2: derivative zero at x = 1/3
        system = SystemMatrix(sp.identity(1, format="csr"))
        prior = ClassPrior(np.array([1.0]), np.array([1.0]))
        cfg = SolverConfig(data_weight=1.0, cgls_tol=1e-14, cgls_max=100)
        x, _ = solve_reconstruction(system, np.zeros(1), np.ones((1, 1)), prior, cfg)
        assert x[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        n, m, k = 8, 40, 3
        system = SystemMatrix(sp.csr_matrix(rng.standard_normal((m, n * n))))
        b = rng.standard_normal(m)
        phi = rng.dirichlet(np.ones(k), size=n * n)
        prior = ClassPrior(np.array([0.0, 0.4, 0.9]), np.array([0.1, 0.15, 0.2]))
        cfg = SolverConfig(data_weight=0.7, tikhonov_weight=0.3,
                           cgls_tol=1e-13, cgls_max=600)
        x, _ = solve_reconstruction(system, b, phi, prior, cfg)

        inv_var = 1.0 / prior.std_devs ** 2
        w = phi @ inv_var
        mean_target = (phi @ (prior.means * inv_var)) / w
        grad_rows = np.zeros((2 * n * n, n * n))
        for j in range(n * n):
            e = np.zeros(n * n)
            e[j] = 1.0
            gh, gv = image_gradient(e.reshape(n, n))
            grad_rows[:n * n, j] = gh.ravel()
            grad_rows[n * n:, j] = gv.ravel()
        stacked = np.vstack([
            math.sqrt(cfg.data_weight) * system.toarray(),
            np.diag(np.sqrt(w / 2)),
            math.sqrt(cfg.tikhonov_weight) * grad_rows,
        ])
        rhs = np.concatenate([
            math.sqrt(cfg.data_weight) * b,
            np.sqrt(w / 2) * mean_target,
            np.zeros(2 * n * n),
        ])
        expected, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
        assert np.linalg.norm(x - expected) / np.linalg.norm(expected) < 1e-6

    def test_shape_validation(self):
        system = SystemMatrix(sp.identity(4, format="csr"))
        prior = ClassPrior(np.array([0.0, 1.0]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            solve_reconstruction(system, np.zeros(4), np.ones((3, 2)), prior,
                                 SolverConfig())
        with pytest.raises(ValueError):
            solve_reconstruction(system, np.zeros(5), np.ones((4, 2)), prior,
                                 SolverConfig())
