"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with its measured numbers. The desk-scale experiments run the
full solver, so this module takes tens of minutes; run it with `-v -s`.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from srsct import (
    ClassPrior,
    SolverConfig,
    SystemMatrix,
    add_noise,
    apply,
    build_parallel_geometry,
    image_gradient,
    image_gradient_adjoint,
    logsum_transform,
    make_piecewise_phantom,
    make_smooth_phantom,
    mixture_component,
    normalize_to_simplex,
    reconstruct_and_segment,
    reconstruction_error,
    segmentation_error,
    solve_reconstruction,
    total_variation,
    tv_prox,
    update_coupling,
    update_responsibilities,
)
from srsct.config import ExperimentConfig
from srsct.experiment import run_experiment, sweep_config
from srsct.solver import SrsProblem

pytestmark = pytest.mark.slow

REFERENCE_ANGLES = [6.0 * k for k in range(1, 31)]

PIECEWISE_SOLVER = SolverConfig(data_weight=0.2, tv_weight=1.0,
                                tikhonov_weight=1.0, tv_split_penalty=1.0,
                                simplex_split_penalty=2.0)
SMOOTH_SOLVER = SolverConfig(data_weight=123.0, tv_weight=0.55,
                             tikhonov_weight=35.0, tv_split_penalty=0.6,
                             simplex_split_penalty=0.6)


PRIOR_SIGMA = 0.1


def isolated_pixel_count(x, n, threshold):
    """Pixels that are strict local extrema: above every existing
    4-neighbor, or below every one, by more than the threshold. Border
    pixels are compared only with the neighbors they have.

    A pixel on a diagonal class edge, whose value lies between two
    neighbors of one class and two of another, is edge blur and is not
    counted. The acceptance runs use a quarter of the prior standard
    deviation, 0.1 / 4 = 0.025: the gap between adjacent piecewise class
    means is 1/7 ~ 0.143, and no reconstructed pixel stands out from its
    neighbors by two prior deviations (0.2), so a threshold that large
    counts nothing in either variant. The former measure used that
    threshold and was blind, so criterion 7 could not pass; with this one
    it does, and only the criterion-5 ordering fails by design.
    """
    grid = x.reshape(n, n)
    low = np.pad(grid, 1, constant_values=-np.inf)
    high = np.pad(grid, 1, constant_values=np.inf)
    neighbor_max = np.maximum.reduce([low[:-2, 1:-1], low[2:, 1:-1],
                                      low[1:-1, :-2], low[1:-1, 2:]])
    neighbor_min = np.minimum.reduce([high[:-2, 1:-1], high[2:, 1:-1],
                                      high[1:-1, :-2], high[1:-1, 2:]])
    peaks = grid - neighbor_max > threshold
    pits = neighbor_min - grid > threshold
    return int(np.sum(peaks | pits))


def run_piecewise_trial(system, phantom, seed, variant, solver=PIECEWISE_SOLVER,
                        noise=0.05):
    sino = add_noise(apply(system, phantom.image), noise, seed)
    prior = ClassPrior(phantom.class_means,
                       np.full(phantom.n_classes, PRIOR_SIGMA))
    problem = SrsProblem(system, sino, prior, phantom.grid_side)
    result = reconstruct_and_segment(problem, solver, variant)
    return result


@pytest.fixture(scope="module")
def reference_scan():
    phantom = make_piecewise_phantom(64)
    system = build_parallel_geometry(64, 91, REFERENCE_ANGLES)
    return system, phantom


@pytest.fixture(scope="module")
def piecewise_runs(reference_scan):
    """Ten noise seeds, both variants, at the reference settings."""
    system, phantom = reference_scan
    started = time.perf_counter()
    runs = {"model-9": [], "model-16": []}
    for seed in range(1000, 1010):
        for variant in runs:
            result = run_piecewise_trial(system, phantom, seed, variant)
            runs[variant].append({
                "seed": seed,
                "rec": reconstruction_error(result.x, phantom.image),
                "seg": segmentation_error(result.labels, phantom.labels),
                "isolated": isolated_pixel_count(result.x, 64, PRIOR_SIGMA / 4),
            })
    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_isolated_pixel_count_oracle():
    threshold = PRIOR_SIGMA / 4

    flat = np.zeros((5, 5))
    flat[2, 2] = 1.0
    assert isolated_pixel_count(flat.ravel(), 5, threshold) == 1
    flat[2, 2] = -1.0
    assert isolated_pixel_count(flat.ravel(), 5, threshold) == 1

    # diagonal staircase: each middle pixel has two neighbors of one class
    # and two of the other, and differs from all four by more than the
    # threshold, yet is no extremum
    i, j = np.indices((4, 4))
    stair = np.where(i + j < 3, 1 / 7, np.where(i + j > 3, 4 / 7, 0.35))
    assert abs(stair[1, 2] - stair[0, 2]) > threshold
    assert abs(stair[1, 2] - stair[2, 2]) > threshold
    assert isolated_pixel_count(stair.ravel(), 4, threshold) == 0

    small = np.zeros((5, 5))
    small[2, 2] = 0.8 * threshold
    assert isolated_pixel_count(small.ravel(), 5, threshold) == 0
    small[2, 2] = 1.2 * threshold
    assert isolated_pixel_count(small.ravel(), 5, threshold) == 1

    # a flat image has no extrema even at the border, and border spikes
    # are measured against the neighbors that exist only
    border = np.full((5, 5), 0.5)
    assert isolated_pixel_count(border.ravel(), 5, threshold) == 0
    border[0, 0] = 0.6
    border[4, 2] = 0.4
    assert isolated_pixel_count(border.ravel(), 5, threshold) == 2
    border[0, 1] = 0.6
    assert isolated_pixel_count(border.ravel(), 5, threshold) == 1


def test_criterion_1_logsum_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_identity = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        f = rng.uniform(0.05, 20.0, size=k)
        value, weights = logsum_transform(f)
        direct = float(-(weights @ np.log(f)) + weights @ np.log(weights))
        worst_identity = max(worst_identity, abs(value - direct))
        candidates = rng.dirichlet(np.ones(k), size=50)
        objective = -(candidates @ np.log(f)) + np.sum(
            candidates * np.log(candidates), axis=1)
        assert value <= objective.min() + 1e-12
    elapsed = time.perf_counter() - started
    assert worst_identity < 1e-12
    assert elapsed < 1.0
    print(f"\nACCEPTANCE criterion-1: PASS (max identity error "
          f"{worst_identity:.2e}, {elapsed:.2f}s)")


def test_criterion_2_closed_form_updates():
    started = time.perf_counter()
    rng = np.random.default_rng(7)

    # responsibilities against an exhaustive simplex grid search; the grid
    # is finer than the 1e-3 acceptance tolerance so quantization of the
    # dependent third coordinate cannot mask a real mismatch
    step = 5e-4
    ticks = np.arange(1, round(1 / step))
    p1, p2 = np.meshgrid(ticks, ticks, indexing="ij")
    p1 = p1.ravel() * step
    p2 = p2.ravel() * step
    p3 = 1.0 - p1 - p2
    keep = p3 >= step - 1e-12
    grid = np.column_stack([p1[keep], p2[keep], p3[keep]])
    grid_entropy = np.sum(grid * np.log(grid), axis=1)
    worst_entry = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 4))
        prior = ClassPrior(np.sort(rng.uniform(0.0, 1.0, size=k)),
                           rng.uniform(0.1, 0.3, size=k))
        memb = rng.dirichlet(np.ones(k), size=1)
        x = rng.uniform(0.0, 1.0, size=1)
        resp, _ = update_responsibilities(x, memb, prior)
        f = np.array([mixture_component(x[0], memb[0, j], prior.means[j],
                                        prior.std_devs[j]) for j in range(k)])
        if k == 2:
            t = np.arange(1, round(1 / step)) * step
            cand = np.column_stack([t, 1.0 - t])
            objective = -(cand @ np.log(f)) + np.sum(cand * np.log(cand), axis=1)
            best = cand[np.argmin(objective)]
        else:
            objective = -(grid @ np.log(f)) + grid_entropy
            best = grid[np.argmin(objective)]
        worst_entry = max(worst_entry, np.abs(resp[0] - best).max())
    assert worst_entry <= 1e-3

    # coupling update stationarity
    worst_residual = 0.0
    for _ in range(100):
        memb = rng.dirichlet(np.ones(4), size=25)
        simp = rng.dirichlet(np.ones(4), size=25)
        l1 = rng.standard_normal((25, 4))
        l2 = rng.standard_normal((25, 4))
        resp = rng.dirichlet(np.ones(4), size=25)
        g1 = float(rng.uniform(0.1, 4.0))
        g2 = float(rng.uniform(0.1, 4.0))
        eta = update_coupling(memb, simp, l1, l2, resp, g1, g2)
        assert np.all(eta > 0)
        residual = -resp / eta + g1 * (eta - memb) - l1 + g2 * (eta - simp) + l2
        worst_residual = max(worst_residual, float(np.abs(residual).max()))
    assert worst_residual < 1e-10

    # clamped normalization always lands on the simplex
    worst_sum = 0.0
    for _ in range(100):
        coupling = rng.uniform(-3.0, 3.0, size=(30, 5))
        mult = rng.uniform(-3.0, 3.0, size=(30, 5))
        out = normalize_to_simplex(coupling, mult, float(rng.uniform(0.1, 3.0)), 1e-4)
        worst_sum = max(worst_sum, float(np.abs(out.sum(axis=1) - 1.0).max()))
    assert worst_sum < 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE criterion-2: PASS (grid {worst_entry:.2e}, "
          f"stationarity {worst_residual:.2e}, row sums {worst_sum:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_3_reconstruction_step():
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    n, m, k = 8, 40, 3
    system = SystemMatrix(sp.csr_matrix(rng.standard_normal((m, n * n))))
    b = rng.standard_normal(m)
    phi = rng.dirichlet(np.ones(k), size=n * n)
    prior = ClassPrior(np.array([0.0, 0.4, 0.9]), np.array([0.1, 0.15, 0.2]))

    tight = SolverConfig(data_weight=0.7, tikhonov_weight=0.3,
                         cgls_tol=1e-13, cgls_max=600)
    x, _ = solve_reconstruction(system, b, phi, prior, tight)

    inv_var = 1.0 / prior.std_devs ** 2
    w = phi @ inv_var
    m_target = (phi @ (prior.means * inv_var)) / w
    grad_rows = np.zeros((2 * n * n, n * n))
    for j in range(n * n):
        e = np.zeros(n * n)
        e[j] = 1.0
        gh, gv = image_gradient(e.reshape(n, n))
        grad_rows[:n * n, j] = gh.ravel()
        grad_rows[n * n:, j] = gv.ravel()
    stacked = np.vstack([
        math.sqrt(tight.data_weight) * system.toarray(),
        np.diag(np.sqrt(w / 2)),
        math.sqrt(tight.tikhonov_weight) * grad_rows,
    ])
    rhs = np.concatenate([math.sqrt(tight.data_weight) * b,
                          np.sqrt(w / 2) * m_target, np.zeros(2 * n * n)])
    dense, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    rel_gap = np.linalg.norm(x - dense) / np.linalg.norm(dense)
    assert rel_gap < 1e-6

    # explicit objective gradient at the default-tolerance solution
    loose = SolverConfig(data_weight=0.7, tikhonov_weight=0.3)
    x_loose, _ = solve_reconstruction(system, b, phi, prior, loose)

    def objective_gradient(z):
        g = 2 * loose.data_weight * apply(system, apply(system, z) - b,
                                          transposed=True)
        g = g + w * (z - m_target)
        gh, gv = image_gradient(z.reshape(n, n))
        return g + 2 * loose.tikhonov_weight * image_gradient_adjoint(gh, gv).ravel()

    at_solution = np.linalg.norm(objective_gradient(x_loose))
    at_zero = np.linalg.norm(objective_gradient(np.zeros(n * n)))
    assert at_solution <= 10 * loose.cgls_tol * at_zero

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE criterion-3: PASS (dense gap {rel_gap:.2e}, gradient "
          f"ratio {at_solution / at_zero:.2e}, {elapsed:.1f}s)")


def test_criterion_4_tv_proximal():
    started = time.perf_counter()
    rng = np.random.default_rng(44)
    cfg = SolverConfig(bregman_tol=1e-9, bregman_max=4000)

    def objective(u, v, w):
        return w * total_variation(u.reshape(8, 8)) + 0.5 * np.sum((u - v) ** 2)

    worst_gap = -np.inf
    for _ in range(10):
        v = rng.standard_normal(64)
        w = float(rng.uniform(0.1, 1.0))
        out, _ = tv_prox(v, w, 8, cfg)
        ours = objective(out, v, w)

        u = v.copy()
        best = objective(u, v, w)
        for t in range(10_000):
            gh, gv = image_gradient(u.reshape(8, 8))
            mag = np.sqrt(gh * gh + gv * gv)
            safe = np.where(mag > 0, mag, 1.0)
            sub = image_gradient_adjoint(gh / safe, gv / safe).ravel()
            u = u - 0.5 / math.sqrt(t + 1.0) * ((u - v) + w * sub)
            best = min(best, objective(u, v, w))
        worst_gap = max(worst_gap, ours - best)
        assert ours <= best + 1e-3

    constant = np.full(64, 1.23)
    out, _ = tv_prox(constant, 0.7, 8, cfg)
    assert np.array_equal(out, constant)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE criterion-4: PASS (worst objective gap "
          f"{worst_gap:+.2e}, {elapsed:.1f}s)")


def test_criterion_5_piecewise_reference_errors(piecewise_runs):
    runs, elapsed = piecewise_runs
    mean9_rec = np.mean([r["rec"] for r in runs["model-9"]])
    mean9_seg = np.mean([r["seg"] for r in runs["model-9"]])
    mean16_rec = np.mean([r["rec"] for r in runs["model-16"]])
    mean16_seg = np.mean([r["seg"] for r in runs["model-16"]])
    assert mean9_rec <= 0.13
    assert mean9_seg <= 0.05
    assert mean16_rec <= 0.11
    assert mean16_seg <= 0.05
    assert elapsed < 600.0
    print(f"\nACCEPTANCE criterion-5 (error bounds): PASS "
          f"(model-9 {mean9_rec:.3f}/{mean9_seg:.3f}, "
          f"model-16 {mean16_rec:.3f}/{mean16_seg:.3f}, {elapsed:.0f}s)")


def test_criterion_5_tikhonov_reduces_reconstruction_error(piecewise_runs):
    # Known not to hold for this implementation, and kept as specified.
    # The means come out tied with the opposite sign (0.0969 for model-16
    # against 0.0961), model-16 is lower in 4 of 10 seeds and the per-seed
    # differences run from about -0.0039 to +0.0055. Not an inner-solver
    # artifact: on seed 1000 every CGLS step lies within 1.3e-4 (relative)
    # of a tightly solved step in both variants, and with a tenfold
    # membership ADMM budget model-16 still trails on seeds 1000 and 1001.
    # The squared-gradient term blurs the class edges of the piecewise
    # image: on seed 1000, from model-9 to model-16, the interior RMS error
    # goes from 0.0194 to 0.0197 and the edge RMS error from 0.0574 to
    # 0.0611. On the smooth phantom the ordering holds in every seed.
    runs, _ = piecewise_runs
    pairs = [(r16["rec"], r9["rec"])
             for r9, r16 in zip(runs["model-9"], runs["model-16"])]
    wins = sum(rec16 < rec9 for rec16, rec9 in pairs)
    mean16_rec, mean9_rec = np.mean(pairs, axis=0)
    shown = [(round(rec16, 4), round(rec9, 4)) for rec16, rec9 in pairs]
    print(f"\nACCEPTANCE criterion-5 (variant ordering): model-16 mean rec "
          f"{mean16_rec:.4f} vs model-9 {mean9_rec:.4f}, model-16 lower in "
          f"{wins}/{len(pairs)} seeds")
    assert mean16_rec < mean9_rec, (
        f"model-16 lower in {wins}/{len(pairs)} seeds, "
        f"(16, 9) rec per seed: {shown}")


def test_criterion_6_smooth_reference_errors():
    started = time.perf_counter()
    phantom = make_smooth_phantom(64)
    system = build_parallel_geometry(64, 91, REFERENCE_ANGLES)
    prior = ClassPrior(phantom.class_means, np.full(3, 0.05))
    means = {}
    for variant in ("model-9", "model-16"):
        recs, segs = [], []
        for seed in range(4000, 4010):
            sino = add_noise(apply(system, phantom.image), 0.01, seed)
            problem = SrsProblem(system, sino, prior, 64)
            result = reconstruct_and_segment(problem, SMOOTH_SOLVER, variant)
            recs.append(reconstruction_error(result.x, phantom.image))
            segs.append(segmentation_error(result.labels, phantom.labels))
        means[variant] = (float(np.mean(recs)), float(np.mean(segs)))
        assert means[variant][0] <= 0.25
        assert means[variant][1] <= 0.22
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"\nACCEPTANCE criterion-6: PASS (model-9 {means['model-9'][0]:.3f}/"
          f"{means['model-9'][1]:.3f}, model-16 {means['model-16'][0]:.3f}/"
          f"{means['model-16'][1]:.3f}, {elapsed:.0f}s)")


def test_criterion_7_isolated_points(piecewise_runs):
    runs, _ = piecewise_runs
    pairs = [(r16["isolated"], r9["isolated"])
             for r9, r16 in zip(runs["model-9"][:5], runs["model-16"][:5])]
    # a comparison of all-zero counts says nothing about the smoothing term
    assert all(count9 > 0 for _, count9 in pairs), (
        f"model-9 has no isolated points to suppress: {pairs}")
    wins = sum(count16 < count9 for count16, count9 in pairs)
    print(f"\nACCEPTANCE criterion-7: model-16 strictly lower in {wins}/5 seeds, "
          f"(16, 9) counts per seed: {pairs}")
    assert wins > 5 // 2, f"model-16 vs model-9 isolated counts: {pairs}"


def test_criterion_8_energy_monotonicity(reference_scan):
    system, phantom = reference_scan
    boosted = SolverConfig(
        data_weight=0.2, tv_weight=1.0, tikhonov_weight=1.0,
        tv_split_penalty=1.0, simplex_split_penalty=2.0,
        cgls_tol=1e-5, cgls_max=1000,
        admm_tol=1e-5, admm_max=500,
        bregman_tol=1e-3, bregman_max=2000,
    )
    result = run_piecewise_trial(system, phantom, 1000, "model-16", boosted)
    joint = [f for _, f in result.energy_trace]
    worst = -np.inf
    for prev, new in zip(joint, joint[1:]):
        rise = (new - prev) / abs(prev)
        worst = max(worst, rise)
    assert worst <= 1e-3, f"worst relative energy rise {worst:.2e}"
    print(f"\nACCEPTANCE criterion-8: PASS (worst relative rise {worst:.2e} "
          f"over {len(joint)} outer iterations)")


def test_criterion_9_resolution_scaling(tmp_path):
    base = ExperimentConfig(
        phantom="piecewise", grid_side=64, detector_pixels=91, angles="6:6:180",
        noise_level=0.05, trials=1, seed=77, variant="model-16",
        prior_sigma=0.1, out_dir=str(tmp_path), solver=PIECEWISE_SOLVER)
    reports = [run_experiment(sweep_config(base, side)) for side in (64, 128, 256)]
    seconds = [r.mean_seconds for r in reports]
    assert all(r.n_failed == 0 for r in reports)
    assert seconds[1] <= 12 * seconds[0]
    assert seconds[2] <= 12 * seconds[1]
    assert seconds[2] < 1800.0
    print(f"\nACCEPTANCE criterion-9: PASS (solve seconds {seconds[0]:.1f} / "
          f"{seconds[1]:.1f} / {seconds[2]:.1f}, growth "
          f"x{seconds[1] / seconds[0]:.1f} and x{seconds[2] / seconds[1]:.1f})")


def test_criterion_10_noise_free_sanity(reference_scan):
    system, phantom = reference_scan
    result = run_piecewise_trial(system, phantom, 0, "model-16", noise=0.0)
    seg = segmentation_error(result.labels, phantom.labels)
    assert seg < 0.02
    print(f"\nACCEPTANCE criterion-10: PASS (noise-free seg_err {seg:.4f})")
