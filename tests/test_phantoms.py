"""Phantom generation: class statistics, consistency, determinism, export."""

import numpy as np
import pytest

from srsct import make_piecewise_phantom, make_smooth_phantom
from srsct.kernels import image_gradient
from srsct.pgm import write_pgm
from srsct.phantoms import write_labels_csv


class TestPiecewisePhantom:
    def test_class_means(self):
        ph = make_piecewise_phantom(64)
        np.testing.assert_allclose(ph.class_means, np.arange(8) / 7.0)

    def test_values_consistent_with_labels(self):
        ph = make_piecewise_phantom(64)
        np.testing.assert_array_equal(ph.image, ph.class_means[ph.labels - 1])

    def test_value_set_is_exactly_the_means(self):
        ph = make_piecewise_phantom(48)
        assert set(np.unique(ph.image)) == set(ph.class_means)

    def test_every_class_covers_half_percent(self):
        ph = make_piecewise_phantom(64)
        counts = np.bincount(ph.labels, minlength=9)[1:]
        assert counts.min() >= 0.005 * 64 * 64

    def test_all_classes_present_at_minimum_size(self):
        ph = make_piecewise_phantom(16)
        assert set(np.unique(ph.labels)) == set(range(1, 9))

    def test_deterministic(self):
        a = make_piecewise_phantom(32)
        b = make_piecewise_phantom(32)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_piecewise_phantom(15)

    def test_label_map_region_count_bounded(self):
        # piecewise layout: label transitions happen on a small fraction of pixels
        ph = make_piecewise_phantom(64)
        grid = ph.labels.reshape(64, 64)
        jumps = np.count_nonzero(np.diff(grid, axis=0)) + np.count_nonzero(np.diff(grid, axis=1))
        assert jumps < 0.3 * grid.size


class TestSmoothPhantom:
    def test_class_means(self):
        ph = make_smooth_phantom(64)
        np.testing.assert_allclose(ph.class_means, [0.16, 0.24, 0.565])

    def test_labels_are_nearest_mean(self):
        ph = make_smooth_phantom(64)
        dist = np.abs(ph.image[:, None] - ph.class_means[None, :])
        np.testing.assert_array_equal(ph.labels, np.argmin(dist, axis=1) + 1)

    def test_genuinely_smooth(self):
        ph = make_smooth_phantom(64)
        gh, gv = image_gradient(ph.image.reshape(64, 64))
        nonzero = np.count_nonzero((gh != 0) | (gv != 0))
        assert nonzero > 0.5 * ph.image.size

    def test_all_three_classes_present(self):
        ph = make_smooth_phantom(64)
        assert set(np.unique(ph.labels)) == {1, 2, 3}

    def test_deterministic(self):
        a = make_smooth_phantom(32)
        b = make_smooth_phantom(32)
        np.testing.assert_array_equal(a.image, b.image)


def test_labels_csv_round_trip(tmp_path):
    ph = make_piecewise_phantom(16)
    path = tmp_path / "labels.csv"
    write_labels_csv(path, ph.labels.reshape(16, 16))
    rows = [list(map(int, line.split(","))) for line in path.read_text().splitlines()]
    np.testing.assert_array_equal(np.asarray(rows).ravel(), ph.labels)


def test_phantom_pgm_header_and_scale(tmp_path):
    ph = make_piecewise_phantom(16)
    path = tmp_path / "phantom.pgm"
    write_pgm(path, ph.image.reshape(16, 16))
    lines = path.read_text("ascii").splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "16 16"
    assert lines[2] == "65535"
    values = np.array([int(v) for line in lines[3:] for v in line.split()])
    assert values.max() == 65535  # image max maps to full scale
    assert values.min() == 0
