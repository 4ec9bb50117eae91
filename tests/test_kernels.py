"""Solver kernels against independent oracles.

Expected values marked as frozen were computed from the scalar formulas or
the brute-force oracles defined in this file.
"""

import math
import os
import subprocess
import sys
import threading
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
from srsct import geometry, kernels, parallel
from srsct.kernels import (
    BREGMAN_PENALTY_SCALE,
    Workspace,
    _neumann_basis,
    admm_workspace,
)


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

    def test_zero_responsibility_without_positive_linear_part_is_zero(self):
        # linear parts -0.3 and exactly 0: the conjugate denominators are 0.6
        # and 0, and both entries come out 0 without a warning
        eta = update_coupling(np.zeros((1, 2)), np.zeros((1, 2)), np.array([[-0.3, 0.0]]),
                              np.zeros((1, 2)), np.zeros((1, 2)), 1.0, 2.0)
        assert np.array_equal(eta, [[0.0, 0.0]])

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

    def test_integer_scores(self):
        assert np.array_equal(normalize_to_simplex(np.array([[1, 3]]), np.zeros((1, 2)), 1, 1e-4),
                              [[0.25, 0.75]])

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

    @staticmethod
    def extreme_scores(seed, k, max_exponent):
        """Coupling and multiplier entries of random sign and magnitudes
        10^-300 .. 10^max_exponent, uniform in the exponent."""
        rng = np.random.default_rng(seed)

        def draw():
            return (rng.choice([-1.0, 1.0], size=(6, k))
                    * 10.0 ** rng.uniform(-300.0, max_exponent, size=(6, k)))
        return draw(), draw(), float(rng.uniform(0.1, 3.0))

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8))
    @settings(max_examples=100, deadline=None)
    def test_extreme_scores_stay_positive_and_normalized(self, seed, k):
        coupling, mult, penalty = self.extreme_scores(seed, k, 300.0)
        out = normalize_to_simplex(coupling, mult, penalty, 1e-4)
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8))
    @settings(max_examples=100, deadline=None)
    def test_large_scores_stay_strictly_interior(self, seed, k):
        # scores below about 4e8 keep score / floor far under 1 / eps, so no
        # entry can round up to 1; far above it the largest entry of a row
        # comes out exactly 1.0
        coupling, mult, penalty = self.extreme_scores(seed, k, 8.0)
        out = normalize_to_simplex(coupling, mult, penalty, 1e-4)
        assert np.all((out > 0) & (out < 1))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-9)


@pytest.mark.parametrize("kernel", ["coupling", "simplex", "tv_prox-stack", "tv_prox-flat"])
def test_operand_of_another_shape_rejected(kernel):
    # a (K,) multiplier no longer broadcasts along the rows: every operand
    # has the field's shape. An (8, 2) stack or a flat (32,) image does not
    # fill a 4 x 4 grid: N = grid_side² is required
    field, row = np.full((4, 3), 1 / 3), np.zeros(3)
    rng = np.random.default_rng(0)
    calls = {"coupling": lambda: update_coupling(field, field, row, field, field, 1.0, 2.0),
             "simplex": lambda: normalize_to_simplex(field, row, 2.0, 1e-4),
             "tv_prox-stack": lambda: tv_prox(rng.random((8, 2)), 0.5, 4, SolverConfig()),
             "tv_prox-flat": lambda: tv_prox(rng.random(32), 0.5, 4, SolverConfig())}
    message = (r"operand of shape \(3,\) does not match" if kernel in ("coupling", "simplex")
               else r"is not pixel-major, \(N,\) or \(N, K\) with N = 4 \* 4")
    with pytest.raises(ValueError, match=message):
        calls[kernel]()


@pytest.mark.parametrize("count", [1, 2, 3])
def test_workspace_calls_match_standalone_calls(admm_blocks, count):
    # each kernel on the same (N, K) fields: once on the membership ADMM's
    # workspace, whose class-major fields it takes as they are and whose
    # output field it writes in place, and once standalone, through the
    # adapter pair; at one block and split
    admm_blocks(count)
    n, k, g1, g2 = 7, 3, 0.7, 1.3
    rng = np.random.default_rng(11)
    memb, simp, resp = (rng.dirichlet(np.ones(k), size=n * n) for _ in range(3))
    target, l1, l2 = rng.standard_normal((3, n * n, k))
    ws = admm_workspace(resp, memb, n, g1, g2)
    assert len(ws.blocks) == count

    def class_major(field):
        return np.ascontiguousarray(field.T).reshape(k, n, n)

    for name, field in (("target", target), ("psi", simp), ("lam_tv", l1), ("lam_simplex", l2)):
        np.copyto(getattr(ws, name), class_major(field))
    cfg = SolverConfig(bregman_max=3, bregman_tol=1e-6)
    delta, info = tv_prox(ws.target, 0.5, n, cfg, state=ws)
    ref_delta, ref_info = tv_prox(target, 0.5, n, cfg)
    eta = update_coupling(ws.delta, ws.psi, ws.lam_tv, ws.lam_simplex, resp, g1, g2, work=ws)
    ref_eta = update_coupling(ref_delta, simp, l1, l2, resp, g1, g2)
    psi = normalize_to_simplex(ws.eta, ws.lam_simplex, g2, 1e-4, work=ws)
    ref_psi = normalize_to_simplex(ref_eta, l2, g2, 1e-4)
    assert delta is ws.delta and eta is ws.eta and psi is ws.psi
    assert info["state"] is ws and info["iterations"] == ref_info["iterations"]
    for mine, ref in ((delta, ref_delta), (eta, ref_eta), (psi, ref_psi)):
        assert ref.shape == (n * n, k)
        assert np.array_equal(mine, class_major(ref))


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

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_fallback_rows_exactly_uniform(self, seed, k):
        # rows at a class mean keep a density far above the floor; rows 40
        # widest deviations beyond every mean underflow (exp(-800) == 0)
        rng = np.random.default_rng(seed)
        prior = ClassPrior(rng.uniform(0.0, 1.0, k), 10.0 ** rng.uniform(-3.0, 0.0, k))
        far = rng.random(12) < 0.5
        edge = prior.means.max() + 40.0 * prior.std_devs.max()
        x = np.where(far, edge * (1.0 + rng.uniform(0.0, 1e6, 12)),
                     prior.means[rng.integers(0, k, 12)])
        memb = rng.dirichlet(np.ones(k), size=12)
        resp, fallbacks = update_responsibilities(x, memb, prior)
        assert fallbacks == np.count_nonzero(far)
        np.testing.assert_array_equal(resp[far], np.full((far.sum(), k), 1.0 / k))
        assert np.all(resp > 0)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=0, atol=1e-12)

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

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 16), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_adjointness_random_shapes(self, seed, n, k):
        # k = 0 stands for a flat (n, n) field
        rng = np.random.default_rng(seed)
        shape = (n, n) if k == 0 else (n, n, k)
        a, ph, pv = (rng.standard_normal(shape) for _ in range(3))
        gh, gv = image_gradient(a)
        adj = image_gradient_adjoint(ph, pv)
        lhs = (gh * ph).sum() + (gv * pv).sum()
        rhs = (a * adj).sum()
        scale = np.abs(gh * ph).sum() + np.abs(gv * pv).sum() + np.abs(a * adj).sum()
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_constant_has_zero_gradient(self):
        gh, gv = image_gradient(np.full((4, 4), 2.5))
        assert not gh.any() and not gv.any()
        assert total_variation(np.full((4, 4), 2.5)) == 0.0


def strided_gradient(field, start, stop):
    """Rows start:stop of the gradient of a class-major (K, n, n) field, by
    strided column and row slices of each class image: the reference that
    the flat shifts must match bit for bit."""
    f = field[:, start:stop]
    gh, gv = np.empty_like(f), np.empty_like(f)
    np.subtract(f[:, :, 1:], f[:, :, :-1], out=gh[:, :, :-1])
    gh[:, :, -1] = 0.0
    inner = min(stop, field.shape[1] - 1) - start
    np.subtract(field[:, start + 1:start + 1 + inner], f[:, :inner], out=gv[:, :inner])
    gv[:, inner:] = 0.0
    return gh, gv


def strided_gradient_adjoint(gh, gv, start, stop):
    """Rows start:stop of the gradient adjoint of class-major (gh, gv), by
    strided slices; it never reads gh's last column or gv's last row."""
    h = gh[:, start:stop]
    out = np.empty_like(h)
    np.subtract(0.0, h[:, :, :-1], out=out[:, :, :-1])
    out[:, :, -1] = 0.0
    out[:, :, 1:] += h[:, :, :-1]
    inner = min(stop, gh.shape[1] - 1) - start
    out[:, :inner] -= gv[:, start:start + inner]
    top = 1 if start == 0 else 0
    out[:, top:] += gv[:, start + top - 1:stop - 1]
    return out


class TestFlatStencils:
    """The gradient and its adjoint as flat shifts of each class image equal
    the strided formulas bit for bit, with the wrapped entries handled."""

    @staticmethod
    def draw(seed, n, k):
        # k = 0 stands for a flat (n, n) field. Signed zeros and repeated
        # values make differences of exactly +0 and -0; the last column of
        # gh and the last row of gv hold garbage the adjoint must not read
        rng = np.random.default_rng(seed)
        shape = (max(k, 1), n, n)
        field, gh, gv = (rng.choice([-0.0, 0.0, 1.0, rng.standard_normal()], size=shape)
                         + (rng.random(shape) < 0.5) * rng.standard_normal(shape)
                         for _ in range(3))
        gh[..., -1] = rng.uniform(1.0, 1e3, size=shape[:2])
        gv[:, -1] = rng.uniform(1.0, 1e3, size=(shape[0], n))
        return field, gh, gv

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_whole_fields(self, seed, n, k):
        field, gh, gv = self.draw(seed, n, k)
        ref_h, ref_v = strided_gradient(field, 0, n)
        ref_adj = strided_gradient_adjoint(gh, gv, 0, n)
        if k == 0:  # the public (n, n) functions
            out_h, out_v = image_gradient(field[0])
            out_adj = image_gradient_adjoint(gh[0], gv[0])
            ref_h, ref_v, ref_adj = ref_h[0], ref_v[0], ref_adj[0]
        else:
            out_h, out_v, out_adj = (np.full_like(field, np.nan) for _ in range(3))
            kernels._gradient_rows(field, slice(0, n), out_h, out_v)
            kernels._gradient_adjoint_rows(gh, gv, slice(0, n), out_adj)
        for out, ref in ((out_h, ref_h), (out_v, ref_v), (out_adj, ref_adj)):
            assert out.tobytes() == ref.tobytes()

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_row_blocks(self, seed, n, k, data):
        field, gh, gv = self.draw(seed, n, k)
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        # the block's rows of fields laid out as a workspace holds them
        out_h, out_v, out_adj = (np.full_like(field, np.nan)[:, start:stop] for _ in range(3))
        kernels._gradient_rows(field, slice(start, stop), out_h, out_v)
        kernels._gradient_adjoint_rows(gh, gv, slice(start, stop), out_adj)
        ref_h, ref_v = strided_gradient(field, start, stop)
        for out, ref in ((out_h, ref_h), (out_v, ref_v),
                         (out_adj, strided_gradient_adjoint(gh, gv, start, stop))):
            assert out.tobytes() == ref.tobytes()


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

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=3),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_duality_gap(self, seed, n, k, weight):
        # the draws of test_non_expansive. The scaled Bregman variable,
        # projected onto the unit disc at each pixel, is a feasible dual
        # point p, so the gap P(u) - D(p) >= P(u) - min P bounds how far the
        # returned u is from the prox. It must stay within 1e-5 of
        # 0.5 ||v||^2, the objective at u = v; 2,400 random draws gave at
        # most 2.2e-6
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n * n,) if k == 1 else (n * n, k))
        out, info = tv_prox(v, weight, n, SolverConfig(bregman_tol=1e-9, bregman_max=5000))
        state = info["state"]
        # the state is class-major, (K, n, n); the public adjoint takes (n, n, K)
        ph, pv = (np.moveaxis(b, 0, -1) / (weight / BREGMAN_PENALTY_SCALE)
                  for b in (state.bh, state.bv))
        norm = np.maximum(np.sqrt(ph * ph + pv * pv), 1.0)
        ph, pv = ph / norm, pv / norm
        grid = v.reshape(n, n, -1)
        half_norm = 0.5 * np.sum(grid ** 2)
        primal = tv_objective(out, v, weight, n)
        dual = half_norm - 0.5 * np.sum((grid - weight * image_gradient_adjoint(ph, pv)) ** 2)
        assert -1e-12 * half_norm <= primal - dual <= 1e-5 * half_norm

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


def allocating_tv_prox(v_flat, weight, n, cfg, state=None):
    """The split-Bregman prox as a plain allocating loop on a class-major
    (K, n, n) copy of the input, over the public gradient pair of each
    class image, with the state as a tuple (u, dh, dv, bh, bv) of fresh
    class-major arrays. Kept as the reference that the in-place passes
    must match bit for bit."""
    scale = BREGMAN_PENALTY_SCALE
    thresh = weight / scale
    basis, eig = _neumann_basis(n, scale)
    v = np.ascontiguousarray(v_flat.reshape(n * n, -1).T).reshape(-1, n, n)

    def gradient(u):
        return tuple(np.stack(parts) for parts in zip(*map(image_gradient, u)))

    def gradient_adjoint(h, g):
        return np.stack([image_gradient_adjoint(a, b) for a, b in zip(h, g)])

    def shrink(ah, av):
        mag = np.sqrt(ah * ah + av * av)
        factor = np.maximum(mag - thresh, 0.0) / np.where(mag > 0.0, mag, 1.0)
        return factor * ah, factor * av

    if state is None:
        u = v.copy()
        gh, gv = gradient(u)
        dh, dv = shrink(gh, gv)
        bh, bv = gh - dh, gv - dv
    else:
        u, dh, dv, bh, bv = (part.copy() for part in state)
    for iterations in range(1, cfg.bregman_max + 1):
        u_prev = u
        rhs = v + scale * gradient_adjoint(dh - bh, dv - bv)
        # C^T ((C rhs C^T) / eig) C, one whole GEMM per class and product
        u = (basis.T @ ((basis @ (rhs @ basis.T)) / eig)) @ basis
        gh, gv = gradient(u)
        dh, dv = shrink(gh + bh, gv + bv)
        bh = bh + gh - dh
        bv = bv + gv - dv
        denom = np.linalg.norm(u_prev)
        if denom > 0.0 and np.linalg.norm(u - u_prev) / denom < cfg.bregman_tol:
            break
    return u.reshape(len(u), -1).T.reshape(v_flat.shape), iterations, (u, dh, dv, bh, bv)


def state_arrays(state):
    return (state.delta, state.dh, state.dv, state.bh, state.bv)


def state_buffers(state):
    return [state.delta, state.delta_prev, state.spare, state.dh, state.dv, state.bh, state.bv,
            state.work]


class TestTvProxInPlace:
    @pytest.mark.parametrize("bregman_max", [1, 2, 5, 200])
    def test_bit_identical_to_the_allocating_loop(self, bregman_max):
        # a cold call, then warm calls on nearby targets, as the ADMM makes them
        rng = np.random.default_rng(31)
        n = 8
        cfg = SolverConfig(bregman_max=bregman_max)
        v = rng.standard_normal((n * n, 3))
        state = ref_state = None
        for _ in range(4):
            out, info = tv_prox(v, 0.7, n, cfg, state=state)
            ref, ref_iters, ref_state = allocating_tv_prox(v, 0.7, n, cfg, ref_state)
            state = info["state"]
            assert np.array_equal(out, ref)
            assert info["iterations"] == ref_iters
            for mine, theirs in zip(state_arrays(state), ref_state):
                assert np.array_equal(mine, theirs)
            v = v + 0.05 * rng.standard_normal(v.shape)

    def test_warm_call_updates_its_state_in_place(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal((64, 2))
        cfg = SolverConfig(bregman_max=3, bregman_tol=1e-12)
        _, cold = tv_prox(v, 0.4, 8, cfg)
        state = cold["state"]
        start = state.delta
        buffers = {id(buf) for buf in state_buffers(state)}
        before = [part.copy() for part in state_arrays(state)]
        out, warm = tv_prox(v + 0.1, 0.4, 8, cfg, state=state)
        assert warm["state"] is state
        assert warm["iterations"] == 3
        # the same buffers, rotated among the iterate's three, and no new ones
        assert {id(buf) for buf in state_buffers(state)} == buffers
        assert np.shares_memory(out, state.delta)
        for old, new in zip(before, state_arrays(state)):
            assert not np.array_equal(old, new)
        # three passes, and the iterate they started from is still intact
        assert start is not state.delta and start is state.delta_prev
        assert np.array_equal(start, before[0])

    def test_cold_call_returns_fresh_state_and_constant_call_resets_it(self):
        rng = np.random.default_rng(14)
        v = rng.standard_normal((64, 2))
        cfg = SolverConfig()
        out, cold = tv_prox(v, 0.4, 8, cfg)
        given = cold["state"]
        assert isinstance(given, Workspace)
        assert not any(np.shares_memory(buf, v) for buf in state_buffers(given))
        buffers = {id(buf) for buf in state_buffers(given)}
        before = state_arrays(given)[0].copy()
        flat = np.full((64, 2), 0.3)
        out, const = tv_prox(flat, 0.4, 8, cfg, state=given)
        assert const["iterations"] == 0 and np.array_equal(out, flat)
        # the same workspace and buffers: the input became its iterate, with
        # (d, b) at zero, and the iterate it started from is still intact
        assert const["state"] is given
        assert {id(buf) for buf in state_buffers(given)} == buffers
        assert np.shares_memory(out, given.delta) and not np.shares_memory(out, flat)
        assert not any(part.any() for part in state_arrays(given)[1:])
        assert np.array_equal(given.delta_prev, before)


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


def assert_bit_identical(whole, split):
    """Two nested tuples of results agree: arrays bit for bit, the rest by ==."""
    assert len(whole) == len(split)
    for a, b in zip(whole, split):
        if isinstance(a, tuple):
            assert_bit_identical(a, b)
        elif isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("n", [7, 33])
@pytest.mark.parametrize("k", [1, 3, 8])
class TestSplitKernels:
    """Each ADMM kernel cut into row blocks equals its one-block result."""

    @staticmethod
    def tv_prox_calls(n, k):
        # a cold call, then three warm calls on nearby targets, as the ADMM
        # makes them; a few passes each
        rng = np.random.default_rng(100 * n + k)
        cfg = SolverConfig(bregman_max=3, bregman_tol=1e-6)
        v = rng.standard_normal((n * n, k))
        state, calls = None, []
        for _ in range(4):
            out, info = tv_prox(v, 0.7, n, cfg, state=state)
            state = info["state"]
            calls.append((out.copy(), info["iterations"],
                          tuple(part.copy() for part in state_arrays(state))))
            v = v + 0.05 * rng.standard_normal(v.shape)
        return tuple(calls), len(state.blocks)

    def test_tv_prox(self, admm_blocks, n, k, count):
        admm_blocks(1)
        whole, one = self.tv_prox_calls(n, k)
        admm_blocks(count)
        split, cut = self.tv_prox_calls(n, k)
        assert (one, cut) == (1, count)
        assert_bit_identical(whole, split)

    def test_coupling_and_simplex(self, admm_blocks, n, k, count):
        rng = np.random.default_rng(200 * n + k)
        memb, simp, resp = (rng.dirichlet(np.ones(k), size=n * n) for _ in range(3))
        l1, l2 = rng.standard_normal((2, n * n, k))

        def run():
            eta = update_coupling(memb, simp, l1, l2, resp, 0.7, 1.3)
            # shifted down so that some scores are clamped at the floor
            psi = normalize_to_simplex(eta - 0.3, l2, 2.0, 1e-4)
            # the row blocks of the calls' own class-major (K, N, 1) workspaces
            return (eta, psi), len(kernels._field_blocks((k, n * n, 1)))

        admm_blocks(1)
        whole, one = run()
        admm_blocks(count)
        split, cut = run()
        assert (one, cut) == (1, count)
        assert_bit_identical(whole, split)


@pytest.mark.parametrize("n,k", [(128, 3), (256, 3), (96, 8)])
def test_block_rule_splits_are_exact(monkeypatch, n, k):
    # the fields that the block rule cuts in two on two cores, at the
    # measured floor: two row blocks and two class blocks, and the same
    # bits as one block. A split of the DCT's products by rows would not
    # give them at every n (measured at n = 73..76, 81..84 and 193..199,
    # among others); one whole GEMM per class image does
    rng = np.random.default_rng(n + k)
    v = rng.standard_normal((n * n, k))
    cfg = SolverConfig(bregman_max=3, bregman_tol=1e-12)
    runs = []
    for threads in (1, 2):
        monkeypatch.setattr(parallel, "product_threads", lambda: threads)
        out, info = tv_prox(v, 0.7, n, cfg)
        out, info = tv_prox(v + 0.05, 0.7, n, cfg, state=info["state"])
        state = info["state"]
        runs.append(((out.copy(), *state_arrays(state)), (len(state.blocks), len(state.classes))))
    (whole, one), (split, cut) = runs
    assert (one, cut) == ((1, 1), (2, 2))
    assert_bit_identical(whole, split)


def test_concurrent_split_calls(admm_blocks):
    # more calling threads than cores, each running split kernels on its own
    # state over the shared pool, with the interpreter switching threads
    # as often as it can
    n, k = 16, 3
    rng = np.random.default_rng(9)
    targets = [rng.standard_normal((n * n, k)) for _ in range(6)]
    cfg = SolverConfig(bregman_max=3, bregman_tol=1e-6)
    admm_blocks(1)
    expected = [tv_prox(v, 0.7, n, cfg)[0].copy() for v in targets]
    admm_blocks(3)
    failures = []

    def worker(i):
        for _ in range(20):
            out, info = tv_prox(targets[i], 0.7, n, cfg)
            if len(info["state"].blocks) != 3 or not np.array_equal(out, expected[i]):
                failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(targets))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures


def test_admm_kernels_stay_one_block_without_blas_control(monkeypatch):
    # as the projector's products do: without a pinnable BLAS its idle
    # threads would hold the other cores
    monkeypatch.setattr(kernels, "MIN_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(geometry, "MIN_BLOCK_NNZ", 1)
    monkeypatch.setattr(parallel, "_BLAS", None)
    field = np.random.default_rng(3).random((64, 3))
    _, info = tv_prox(field, 0.5, 8, SolverConfig())
    assert len(info["state"].blocks) == 1
    assert len(admm_workspace(field, field, 8, 1.0, 2.0).blocks) == 1
    assert len(kernels._field_blocks(field.shape)) == 1
    system = geometry.build_parallel_geometry(16, 23, [45.0, 90.0])
    assert system._blocks == (system._matrix,)


class TestClassSum:
    @pytest.mark.parametrize("k", [*range(1, 21), 136, 300])
    def test_is_numpys_row_sum(self, k):
        # the simplex step divides by numpy's own sum over the class axis of
        # the class-major scores, which adds the class images one by one
        rng = np.random.default_rng(k)
        scores = rng.random((257, k)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(257, k))
        class_major = np.ascontiguousarray(np.maximum(scores, 1e-4).T)
        expected = class_major / class_major.sum(axis=0)
        out = normalize_to_simplex(scores, np.zeros_like(scores), 1.0, 1e-4)
        assert np.array_equal(out, expected.T)


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
