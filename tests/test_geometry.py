"""System matrix construction, products, and sinogram noise."""

import math
import multiprocessing
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srsct import (
    SystemMatrix,
    add_noise,
    apply,
    build_parallel_geometry,
    export_triplets,
)

import scipy.sparse as sp

from srsct import geometry, parallel


def ray_origin_direction(theta_deg, offset):
    """Detector convention: axis (cos, sin), rays along (-sin, cos)."""
    th = math.radians(theta_deg)
    origin = (offset * math.cos(th), offset * math.sin(th))
    direction = (-math.sin(th), math.cos(th))
    return origin, direction


def clip_segment_length(origin, direction, xlo, xhi, ylo, yhi):
    """Slab clipping of an infinite line against a closed box."""
    t_lo, t_hi = -np.inf, np.inf
    for o, d, lo, hi in ((origin[0], direction[0], xlo, xhi),
                         (origin[1], direction[1], ylo, yhi)):
        if abs(d) < 1e-15:
            if not lo <= o <= hi:
                return 0.0
        else:
            t1, t2 = (lo - o) / d, (hi - o) / d
            t_lo = max(t_lo, min(t1, t2))
            t_hi = min(t_hi, max(t1, t2))
    return max(0.0, t_hi - t_lo)


class TestBuildGeometry:
    def test_reference_scan_shape(self):
        angles = [6.0 * k for k in range(1, 31)]
        A = build_parallel_geometry(64, 91, angles)
        assert A.m == 2730
        assert A.n == 4096
        assert A.m / A.n == pytest.approx(0.6665, abs=5e-4)

    def test_axis_aligned_ray_crosses_one_pixel_row(self):
        A = build_parallel_geometry(4, 1, [90.0])
        row = A.toarray()[0]
        nz = np.nonzero(row)[0]
        assert len(nz) == 4
        np.testing.assert_allclose(row[nz], 1.0)
        # all four pixels lie in a single image row
        assert len(set(nz // 4)) == 1

    def test_row_sums_match_clipping_oracle(self):
        n, p, theta = 8, 11, 30.0
        A = build_parallel_geometry(n, p, [theta])
        dense = A.toarray()
        spacing = n * math.sqrt(2.0) / p
        half = n / 2.0
        for i in range(p):
            offset = (i - (p - 1) / 2.0) * spacing
            origin, direction = ray_origin_direction(theta, offset)
            chord = clip_segment_length(origin, direction, -half, half, -half, half)
            assert dense[i].sum() == pytest.approx(chord, abs=1e-9)
            # per-pixel intersection lengths against independent clipping
            for iy in range(n):
                for ix in range(n):
                    expected = clip_segment_length(origin, direction,
                                                   ix - half, ix + 1 - half,
                                                   iy - half, iy + 1 - half)
                    assert dense[i, iy * n + ix] == pytest.approx(expected, abs=1e-9)

    def test_row_sums_match_chords_many_rays(self):
        angles = [10.0, 47.3, 90.0, 133.7, 180.0]
        n, p = 16, 23
        A = build_parallel_geometry(n, p, angles)
        dense = A.toarray()
        spacing = n * math.sqrt(2.0) / p
        half = n / 2.0
        for a_idx, theta in enumerate(angles):
            for i in range(p):
                offset = (i - (p - 1) / 2.0) * spacing
                origin, direction = ray_origin_direction(theta, offset)
                chord = clip_segment_length(origin, direction, -half, half, -half, half)
                assert dense[a_idx * p + i].sum() == pytest.approx(chord, abs=1e-9)

    def test_stored_values_strictly_positive(self):
        A = build_parallel_geometry(32, 45, [15.0, 45.0, 77.0, 180.0])
        assert np.all(A.values > 0.0)

    def test_deterministic_rebuild(self):
        kwargs = dict(grid_side=16, detector_pixels=23, angles_deg=[12.0, 98.5])
        A1 = build_parallel_geometry(**kwargs)
        A2 = build_parallel_geometry(**kwargs)
        assert np.array_equal(A1.values, A2.values)
        assert np.array_equal(A1.col_indices, A2.col_indices)
        assert np.array_equal(A1.row_offsets, A2.row_offsets)

    def test_adjoint_consistency(self):
        A = build_parallel_geometry(16, 23, [20.0, 65.0, 110.0, 155.0])
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = rng.standard_normal(A.n)
            v = rng.standard_normal(A.m)
            lhs = apply(A, u) @ v
            rhs = u @ apply(A, v, transposed=True)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("n,p,angles", [
        (1, 5, [30.0]),
        (8, 0, [30.0]),
        (8, 5, []),
        (8, 5, [0.0]),
        (8, 5, [180.1]),
        (8, 5, [-30.0]),
    ])
    def test_invalid_parameters(self, n, p, angles):
        with pytest.raises(ValueError):
            build_parallel_geometry(n, p, angles)


@st.composite
def scan_angles(draw):
    """Angle sets with exactly 90 and 180 degrees, angles within 1e-13 of an
    axis, and free angles, in any order."""
    near = [axis + (abs(d) if axis == 0.0 else -abs(d) if axis == 180.0 else d)
            for axis, d in draw(st.lists(st.tuples(
                st.sampled_from([0.0, 90.0, 180.0]),
                st.floats(min_value=-1e-13, max_value=1e-13)), max_size=3))]
    free = draw(st.lists(st.floats(min_value=1e-3, max_value=180.0), max_size=3))
    return draw(st.permutations([90.0, 180.0] + [a for a in near if a > 0.0] + free))


class TestProjectorProperties:
    @given(st.integers(2, 24), st.integers(1, 40), scan_angles(),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matrix_is_canonical_and_adjoint(self, n, p, angles, seed):
        A = build_parallel_geometry(n, p, angles)
        for mat in (A._matrix, A._matrix_t):
            assert mat.indices.dtype == np.int32 and mat.indptr.dtype == np.int32
            assert mat.has_canonical_format and np.all(mat.data > 0.0)
            row_of = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
            same_row = row_of[1:] == row_of[:-1]
            assert np.all(np.diff(mat.indices)[same_row] > 0)
        np.testing.assert_array_equal(A._matrix_t.toarray(), A.toarray().T)

        rng = np.random.default_rng(seed)
        x = rng.standard_normal(A.n)
        y = rng.standard_normal(A.m)
        lhs = apply(A, x) @ y
        rhs = x @ apply(A, y, transposed=True)
        scale = np.abs(A.toarray()) @ np.abs(x) @ np.abs(y)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @given(st.integers(2, 24), st.integers(1, 40), scan_angles())
    @settings(max_examples=60, deadline=None)
    def test_row_sums_are_chord_lengths(self, n, p, angles):
        A = build_parallel_geometry(n, p, angles)
        sums = apply(A, np.ones(A.n))
        spacing = n * math.sqrt(2.0) / p
        half = n / 2.0
        for a_idx, theta in enumerate(angles):
            for i in range(p):
                offset = (i - (p - 1) / 2.0) * spacing
                origin, direction = ray_origin_direction(theta, offset)
                chord = clip_segment_length(origin, direction, -half, half, -half, half)
                assert sums[a_idx * p + i] == pytest.approx(chord, abs=1e-9)

    @given(st.integers(2, 24), st.integers(1, 40), scan_angles(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_drawn_row_has_per_pixel_lengths(self, n, p, angles, data):
        row = data.draw(st.integers(0, p * len(angles) - 1), label="row")
        theta = angles[row // p]
        offset = (row % p - (p - 1) / 2.0) * n * math.sqrt(2.0) / p
        half = n / 2.0
        # a ray along a grid line borders two pixels: the projector's half-open
        # pixels give it to one, the closed boxes of the oracle to both
        near_axis = min(abs(math.sin(math.radians(theta))),
                        abs(math.cos(math.radians(theta)))) < 1e-12
        assume(not (near_axis and (offset + half) % 1.0 == 0.0))
        A = build_parallel_geometry(n, p, angles)
        lengths = A._matrix.getrow(row).toarray().reshape(n, n)
        origin, direction = ray_origin_direction(theta, offset)
        for iy in range(n):
            for ix in range(n):
                expected = clip_segment_length(origin, direction,
                                               ix - half, ix + 1 - half,
                                               iy - half, iy + 1 - half)
                assert lengths[iy, ix] == pytest.approx(expected, abs=1e-9)


def fork_apply(system, vector, transposed):
    return apply(system, vector, transposed)


@pytest.fixture
def split_scan(monkeypatch):
    """The 64x64 reference scan cut into three row blocks: the block floor
    is lowered and three product threads are assumed, whatever the host."""
    monkeypatch.setattr(geometry, "MIN_BLOCK_NNZ", 1)
    monkeypatch.setattr(parallel, "product_threads", lambda: 3)
    return build_parallel_geometry(64, 91, [6.0 * k for k in range(1, 31)])


class TestRowBlocks:
    def test_reference_scan_stays_one_block(self):
        A = build_parallel_geometry(64, 91, [6.0 * k for k in range(1, 31)])
        assert A._blocks == (A._matrix,) and A._blocks_t == (A._matrix_t,)

    def test_products_equal_the_whole_matrix_bit_for_bit(self, split_scan):
        A = split_scan
        assert len(A._blocks) == len(A._blocks_t) == 3
        rng = np.random.default_rng(5)
        for _ in range(3):
            u = rng.standard_normal(A.n)
            v = rng.standard_normal(A.m)
            assert np.array_equal(apply(A, u), A._matrix @ u)
            assert np.array_equal(apply(A, v, transposed=True), A._matrix_t @ v)

    def test_blocks_are_views_balanced_by_nonzeros(self, split_scan):
        for whole, blocks in ((split_scan._matrix, split_scan._blocks),
                              (split_scan._matrix_t, split_scan._blocks_t)):
            longest_row = np.diff(whole.indptr).max()
            share = whole.nnz / len(blocks)
            for block in blocks:
                assert np.shares_memory(block.data, whole.data)
                assert np.shares_memory(block.indices, whole.indices)
                assert abs(block.nnz - share) <= longest_row
            assert sum(block.shape[0] for block in blocks) == whole.shape[0]
            np.testing.assert_array_equal(sp.vstack(blocks).toarray(), whole.toarray())

    def test_concurrent_pins_and_split_products(self, split_scan):
        # more threads than cores, each pinning the BLAS and splitting products
        A = split_scan
        v = np.random.default_rng(7).standard_normal(A.n)
        expected = A._matrix @ v
        blas_threads = parallel._BLAS[0] if parallel._BLAS else (lambda: None)
        before = blas_threads()
        failures = []

        def worker():
            for _ in range(30):
                with parallel.one_blas_thread():
                    if blas_threads() not in (None, 1):
                        failures.append("pin lost")
                    if not np.array_equal(apply(A, v), expected):
                        failures.append("product differs")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert blas_threads() == before

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_worker_applies_after_the_parent_used_the_pool(self, split_scan):
        A = split_scan
        rng = np.random.default_rng(6)
        u, v = rng.standard_normal(A.n), rng.standard_normal(A.m)
        expected = (apply(A, u), apply(A, v, transposed=True))
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = (pool.apply_async(fork_apply, (A, u, False)).get(timeout=60),
                   pool.apply_async(fork_apply, (A, v, True)).get(timeout=60))
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


REFERENCE_SCAN = (64, 91, [6.0 * k for k in range(1, 31)])
# 45 degree rays through pixel corners: slivers of about 1e-15 give 12
# (ray, pixel) pairs a second entry before the rows are made canonical
CORNER_SCAN = (16, 3, [45.0, 90.0, 135.0])


def matrix_arrays(system):
    return [arr for mat in (system._matrix, system._matrix_t)
            for arr in (mat.indptr, mat.indices, mat.data)]


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def build_arrays(n, p, angles):
    return matrix_arrays(build_parallel_geometry(n, p, angles))


@contextmanager
def build_blocks(count):
    """Trace the build in `count` angle blocks (at most one per angle),
    whatever the host: the trace floor is lowered to one unit and that many
    product threads are assumed."""
    with mock.patch.object(geometry, "MIN_TRACE_UNITS", 1), \
            mock.patch.object(parallel, "product_threads", lambda: count):
        yield


@pytest.fixture
def traced_blocks(monkeypatch):
    """The block counts of the calls to `parallel.map_blocks` from then on."""
    counts, real = [], parallel.map_blocks

    def counting(fn, blocks):
        counts.append(len(blocks))
        return real(fn, blocks)
    monkeypatch.setattr(parallel, "map_blocks", counting)
    return counts


class TestSplitBuild:
    def test_reference_scan_traces_in_one_block(self, monkeypatch, traced_blocks):
        monkeypatch.setattr(parallel, "product_threads", lambda: 64)
        build_parallel_geometry(*REFERENCE_SCAN)
        assert traced_blocks == [1]

    @pytest.mark.parametrize("scan", [REFERENCE_SCAN, CORNER_SCAN], ids=["reference", "corner"])
    @pytest.mark.parametrize("count", [2, 3])
    def test_blocks_build_the_one_block_matrix_bit_for_bit(self, traced_blocks, scan, count):
        with build_blocks(1):
            whole = build_arrays(*scan)
        with build_blocks(count):
            split = build_arrays(*scan)
        assert traced_blocks == [1, count]
        assert_same_arrays(split, whole)

    def test_corner_rays_sum_their_duplicates_within_a_block(self, monkeypatch):
        summed, real = [], sp.csr_matrix.sum_duplicates

        def counting(matrix):
            before = matrix.nnz
            real(matrix)
            summed.append(before - matrix.nnz)
        monkeypatch.setattr(sp.csr_matrix, "sum_duplicates", counting)
        with build_blocks(3):
            A = build_parallel_geometry(*CORNER_SCAN)
        # one canonicalisation per block, and nothing left for the whole
        # matrix. The blocks finish on the pool in any order
        assert sorted(summed[:-1]) == [0, 2, 10] and summed[-1] == 0
        assert A._matrix.has_canonical_format and np.all(A.values > 0.0)

    @given(st.integers(2, 24), st.integers(1, 40), scan_angles(), st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_drawn_scan_in_blocks_equals_one_block(self, n, p, angles, count):
        with build_blocks(1):
            whole = build_arrays(n, p, angles)
        with build_blocks(count):
            assert_same_arrays(build_arrays(n, p, angles), whole)

    def test_concurrent_builds_in_blocks(self):
        # more building threads than cores, each tracing three blocks on the pool
        scan = (16, 23, [10.0, 45.0, 90.0, 133.7, 135.0, 180.0])
        with build_blocks(1):
            expected = build_arrays(*scan)
        failures = []

        def worker():
            for _ in range(10):
                try:
                    assert_same_arrays(build_arrays(*scan), expected)
                except AssertionError:
                    failures.append("build differs")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with build_blocks(3):
                threads = [threading.Thread(target=worker) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_worker_builds_after_the_parent_built_in_blocks(self, traced_blocks):
        with build_blocks(3):
            expected = build_arrays(*REFERENCE_SCAN)
            with multiprocessing.get_context("fork").Pool(1) as pool:
                got = pool.apply_async(build_arrays, REFERENCE_SCAN).get(timeout=60)
        assert traced_blocks == [3]
        assert_same_arrays(got, expected)


class TestApply:
    def test_single_row_picks_first_entry(self):
        A = SystemMatrix(sp.csr_matrix(np.array([[1.0, 0.0, 0.0]])))
        np.testing.assert_allclose(apply(A, np.array([7.0, 1.0, 2.0])), [7.0])

    def test_zero_vector(self):
        A = build_parallel_geometry(8, 11, [30.0])
        np.testing.assert_array_equal(apply(A, np.zeros(A.n)), np.zeros(A.m))
        np.testing.assert_array_equal(apply(A, np.zeros(A.m), transposed=True),
                                      np.zeros(A.n))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((5, 7)) * (rng.random((5, 7)) > 0.4)
        A = SystemMatrix(sp.csr_matrix(dense))
        v = rng.standard_normal(7)
        w = rng.standard_normal(5)
        assert np.abs(apply(A, v) - dense @ v).max() < 1e-12
        assert np.abs(apply(A, w, transposed=True) - dense.T @ w).max() < 1e-12

    def test_dimension_mismatch(self):
        A = build_parallel_geometry(8, 11, [30.0])
        with pytest.raises(ValueError):
            apply(A, np.zeros(A.n + 1))
        with pytest.raises(ValueError):
            apply(A, np.zeros(A.n), transposed=True)


class TestAddNoise:
    def test_zero_level_is_exact(self):
        b = np.array([1.0, -2.0, 3.0])
        out = add_noise(b, 0.0, 123)
        np.testing.assert_array_equal(out.values, b)

    def test_relative_norm_matches_level(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal(500) + 5.0
        out = add_noise(b, 0.05, 99)
        ratio = np.linalg.norm(out.values - b) / np.linalg.norm(b)
        assert ratio == pytest.approx(0.05, abs=1e-12)

    def test_seed_determinism(self):
        b = np.linspace(0.0, 4.0, 50)
        a1 = add_noise(b, 0.02, 7).values
        a2 = add_noise(b, 0.02, 7).values
        a3 = add_noise(b, 0.02, 8).values
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, a3)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.ones(3), -0.1, 0)


def test_triplet_export_round_trip(tmp_path):
    A = build_parallel_geometry(8, 11, [30.0, 120.0])
    path = tmp_path / "matrix.txt"
    export_triplets(A, path)
    rows, cols, vals = [], [], []
    for line in path.read_text("ascii").splitlines():
        r, c, v = line.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(float(v))
    rebuilt = sp.coo_matrix((vals, (rows, cols)), shape=(A.m, A.n)).toarray()
    np.testing.assert_array_equal(rebuilt, A.toarray())
