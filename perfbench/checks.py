"""Correctness checks on the outputs of one benchmark operation.

Each check recomputes what it tests with plain numpy, from the phantom or
from a closed form, and never compares with a saved copy of earlier
output. A failed check raises `CheckFailed` with the numbers that failed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def chord_lengths(grid_side: int, detector_pixels: int, angles_deg) -> np.ndarray:
    """Length of each ray through the square [-n/2, n/2]^2, in closed form.

    A line at distance |t| from the centre, with direction cosines a >= b
    against the square's axes, crosses it over 2h/a while |t| <= h(a - b)
    and over (h(a + b) - |t|) / (a b) until |t| reaches h(a + b), where h
    is the half side. Rays are ordered angle-major and the detector spans
    the image diagonal with pixel centres at (i - (p - 1)/2) n sqrt(2)/p.
    """
    n, p = int(grid_side), int(detector_pixels)
    h = n / 2.0
    t = np.abs((np.arange(p) - (p - 1) / 2.0) * (n * math.sqrt(2.0) / p))
    rows = []
    for theta in angles_deg:
        c = abs(math.cos(math.radians(theta)))
        s = abs(math.sin(math.radians(theta)))
        a, b = max(c, s), min(c, s)
        if b < 1e-12:  # axis-aligned rays
            rows.append(np.where(t < h, 2.0 * h, 0.0))
            continue
        slope = (h * (a + b) - t) / (a * b)
        rows.append(np.where(t <= h * (a - b), 2.0 * h / a,
                             np.maximum(slope, 0.0)))
    return np.concatenate(rows)


def check_chord_lengths(row_sums: np.ndarray, grid_side: int,
                        detector_pixels: int, angles_deg) -> float:
    """A times the all-ones image must equal each ray's chord length."""
    expected = chord_lengths(grid_side, detector_pixels, angles_deg)
    _require(row_sums.shape == expected.shape,
             f"A.1 has {row_sums.shape} entries, expected {expected.shape}")
    err = float(np.max(np.abs(row_sums - expected)))
    _require(err <= 1e-9 * grid_side,
             f"A.1 differs from the chord lengths by up to {err:.3e}")
    return err


def check_adjoint(forward, adjoint, n_cols: int, n_rows: int,
                  rng: np.random.Generator, probes: int = 3) -> float:
    """<A u, v> must equal <u, A^T v> for random u and v."""
    worst = 0.0
    for _ in range(probes):
        u = rng.standard_normal(n_cols)
        v = rng.standard_normal(n_rows)
        au, atv = forward(u), adjoint(v)
        scale = np.linalg.norm(au) * np.linalg.norm(v) + np.linalg.norm(u) * np.linalg.norm(atv)
        gap = abs(float(au @ v) - float(u @ atv)) / scale
        worst = max(worst, gap)
    _require(worst <= 1e-12, f"projector adjointness gap {worst:.3e}")
    return worst


def check_errors(x, labels, image_true, labels_true, reported_rec: float,
                 reported_seg: float, rec_max: float, seg_max: float):
    """Recompute rec_err = ||x - x_true|| / ||x|| and seg_err (share of
    wrong labels), compare with the reported values and the bounds, and
    return the recomputed pair."""
    x = np.asarray(x, dtype=np.float64)
    rec = float(np.sqrt(np.sum((x - image_true) ** 2) / np.sum(x * x)))
    seg = float(np.mean(np.asarray(labels) != np.asarray(labels_true)))
    _require(math.isclose(rec, reported_rec, rel_tol=1e-9),
             f"rec_err {reported_rec!r} reported, {rec!r} recomputed")
    _require(math.isclose(seg, reported_seg, rel_tol=1e-9, abs_tol=1e-12),
             f"seg_err {reported_seg!r} reported, {seg!r} recomputed")
    _require(rec <= rec_max, f"rec_err {rec:.4f} above {rec_max}")
    _require(seg <= seg_max, f"seg_err {seg:.4f} above {seg_max}")
    return rec, seg


def check_fields(memberships: np.ndarray, responsibilities: np.ndarray) -> None:
    """Membership rows strictly inside the simplex, summing to 1;
    responsibility rows nonnegative, summing to 1."""
    d = np.asarray(memberships)
    r = np.asarray(responsibilities)
    _require(np.all(d > 0.0) and np.all(d < 1.0),
             "membership entries outside the open interval (0, 1)")
    gap = float(np.max(np.abs(d.sum(axis=1) - 1.0)))
    _require(gap <= 1e-9, f"membership rows sum to 1 only within {gap:.3e}")
    _require(np.all(r >= 0.0), "negative responsibility")
    gap = float(np.max(np.abs(r.sum(axis=1) - 1.0)))
    _require(gap <= 1e-9, f"responsibility rows sum to 1 only within {gap:.3e}")


def check_labels(labels: np.ndarray, memberships: np.ndarray) -> None:
    """Labels are argmax + 1 of the membership rows, within 1..K."""
    d = np.asarray(memberships)
    labels = np.asarray(labels)
    _require(labels.min() >= 1 and labels.max() <= d.shape[1],
             f"labels span {labels.min()}..{labels.max()}, not 1..{d.shape[1]}")
    wrong = int(np.count_nonzero(labels != np.argmax(d, axis=1) + 1))
    _require(wrong == 0, f"{wrong} labels differ from the membership argmax")


def check_finite(x: np.ndarray, energies) -> None:
    _require(np.all(np.isfinite(x)), "non-finite reconstruction")
    e = np.asarray(energies, dtype=np.float64)
    _require(e.size > 0 and np.all(np.isfinite(e)), "missing or non-finite energies")


def check_span_coverage(spans, share: float = 0.95) -> float:
    """The direct children of each solve span (CGLS, ADMM, responsibilities,
    energies) must cover at least `share` of it. Returns the lowest share."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    lowest = math.inf
    for s in spans:
        if s["name"] == "solver.solve":
            covered = child_time.get(s["id"], 0.0) / (s["end"] - s["start"])
            lowest = min(lowest, covered)
    _require(lowest != math.inf, "no solve span recorded")
    _require(lowest >= share, f"top-level spans cover {lowest:.3f} of a solve")
    return lowest


# ----------------------------------------------------------------------
# Files written by `srs run`
# ----------------------------------------------------------------------

def read_pgm(path) -> np.ndarray:
    """Parse a 16-bit P2 or P5 image into an integer array."""
    data = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:  # magic, width, height, maxval
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        _require(pos > start, f"{path}: truncated header")
        fields.append(data[start:pos].decode("ascii"))
    magic, width, height, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    _require(maxval == 65535, f"{path}: maxval {maxval}, expected 65535")
    if magic == "P5":
        img = np.frombuffer(data[pos + 1:], dtype=">u2")
    else:
        _require(magic == "P2", f"{path}: magic {magic!r}")
        img = np.array([int(v) for v in data[pos:].split()], dtype=np.int64)
    _require(img.size == width * height,
             f"{path}: {img.size} samples for {width}x{height}")
    return img.reshape(height, width)


def check_pgm(path, side: int) -> None:
    img = read_pgm(path)
    _require(img.shape == (side, side), f"{path}: shape {img.shape}, expected {side}x{side}")
    _require(img.min() >= 0 and img.max() == 65535,
             f"{path}: samples span {img.min()}..{img.max()}, the maximum must map to 65535")


def check_labels_csv(path, side: int, n_classes: int) -> np.ndarray:
    """Parse a side x side grid of labels in 1..n_classes and return it."""
    rows = [line.split(",") for line in Path(path).read_text(encoding="ascii").splitlines()]
    _require(len(rows) == side and all(len(r) == side for r in rows),
             f"{path}: not a {side}x{side} grid")
    labels = np.array(rows, dtype=np.int64)
    _require(labels.min() >= 1 and labels.max() <= n_classes,
             f"{path}: labels outside 1..{n_classes}")
    return labels


def check_energy_trace_csv(path) -> int:
    """Parse the energy trace, require finite energies, return its row count."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    _require(len(lines) > 1 and lines[0] == "iter,E0,F,rel_change_x",
             f"{path}: bad header or no rows")
    values = np.array([line.split(",")[1:3] for line in lines[1:]], dtype=np.float64)
    _require(np.all(np.isfinite(values)), f"{path}: non-finite energy")
    return len(lines) - 1


def check_first_trial(labels, labels_true, trace_rows: int,
                      reported_seg: float, outer_iters: int) -> float:
    """labels.csv and energy_trace.csv belong to the first trial: its
    seg_err, recomputed from the phantom's labels, must equal the report's,
    and its energy trace must hold one row per outer iteration. Returns
    the recomputed seg_err."""
    seg = float(np.mean(np.asarray(labels).ravel() != np.asarray(labels_true).ravel()))
    _require(math.isclose(seg, reported_seg, rel_tol=1e-9, abs_tol=1e-12),
             f"first trial: seg_err {reported_seg!r} reported, {seg!r} recomputed "
             "from labels.csv")
    _require(trace_rows == outer_iters,
             f"first trial: {trace_rows} energy rows for {outer_iters} outer iterations")
    return seg


def read_report(path, seeds, rec_max: float, seg_max: float):
    """Check report.csv: one row per seed, in seed order; each `ok` row
    within the bounds, each `failed` row without errors; a mean row equal
    to the recomputed means of the `ok` rows. Returns the trial rows as
    (rec_err, seg_err, seconds, outer_iters, status) and the mean pair."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    _require(lines and lines[0] == "seed,rec_err,seg_err,seconds,outer_iters,status",
             f"{path}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    _require(len(rows) == len(seeds) + 1, f"{path}: {len(rows)} rows, expected {len(seeds) + 1}")
    trials = []
    for seed, row in zip(seeds, rows):
        _require(len(row) == 6 and row[0] == str(seed) and row[5] in ("ok", "failed"),
                 f"{path}: row {row} is not a trial row of seed {seed}")
        rec, seg, secs, outer = float(row[1]), float(row[2]), float(row[3]), int(row[4])
        if row[5] == "ok":
            _require(rec <= rec_max and seg <= seg_max,
                     f"{path}: seed {seed} rec_err {rec:.4f} seg_err {seg:.4f} over the bounds")
        else:
            _require(math.isnan(rec) and math.isnan(seg),
                     f"{path}: failed trial of seed {seed} reports errors")
        trials.append((rec, seg, secs, outer, row[5]))
    mean_row = rows[-1]
    _require(mean_row[0] == "mean", f"{path}: last row is not the mean row")
    means = (float(mean_row[1]), float(mean_row[2]))
    ok = [t for t in trials if t[4] == "ok"]
    recomputed = ((sum(t[0] for t in ok) / len(ok), sum(t[1] for t in ok) / len(ok))
                  if ok else (math.nan, math.nan))
    for name, got, want in zip(("rec_err", "seg_err"), means, recomputed):
        _require(math.isclose(got, want, rel_tol=1e-12)
                 or (math.isnan(got) and math.isnan(want)),
                 f"{path}: mean {name} {got!r}, recomputed {want!r}")
    return trials, means
