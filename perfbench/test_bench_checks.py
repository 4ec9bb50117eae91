"""Each benchmark check passes on a right output and fails on a wrong one.

Fast: the scans are 8x8 and 16x16.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402

ANGLES = [15.0 * k for k in range(1, 13)]  # includes 45, 90 and 180 degrees


@pytest.fixture(scope="module")
def srsct():
    return pytest.importorskip("srsct")


def test_chord_lengths_match_a_times_ones(srsct):
    for n, p in ((8, 11), (16, 23)):
        system = srsct.build_parallel_geometry(n, p, ANGLES)
        row_sums = srsct.apply(system, np.ones(system.n))
        assert checks.check_chord_lengths(row_sums, n, p, ANGLES) < 1e-12


def test_chord_lengths_catch_a_wrong_ray(srsct):
    system = srsct.build_parallel_geometry(8, 11, ANGLES)
    row_sums = srsct.apply(system, np.ones(system.n))
    row_sums[17] *= 1.001
    with pytest.raises(CheckFailed):
        checks.check_chord_lengths(row_sums, 8, 11, ANGLES)
    with pytest.raises(CheckFailed):  # rays in the wrong order
        checks.check_chord_lengths(row_sums[::-1].copy(), 8, 11, ANGLES[::-1])


def test_chord_lengths_closed_form_by_hand():
    # the central ray of a 2x2 square runs along the diagonal at 45
    # degrees and along the middle at 90 degrees
    lengths = checks.chord_lengths(2, 1, [45.0, 90.0])
    assert lengths == pytest.approx([2.0 * math.sqrt(2.0), 2.0])


def test_adjoint_passes_for_a_matrix_and_its_transpose():
    a = np.random.default_rng(0).standard_normal((7, 5))
    checks.check_adjoint(lambda u: a @ u, lambda v: a.T @ v, 5, 7,
                         np.random.default_rng(1))


def test_adjoint_catches_a_wrong_transpose():
    a = np.random.default_rng(0).standard_normal((7, 5))
    b = a.copy()
    b[3, 2] += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_adjoint(lambda u: a @ u, lambda v: b.T @ v, 5, 7,
                             np.random.default_rng(1))


def _solution():
    x_true = np.array([0.0, 0.5, 1.0, 1.0])
    labels_true = np.array([1, 2, 3, 3])
    x = x_true + np.array([0.01, -0.02, 0.0, 0.03])
    labels = np.array([1, 2, 3, 2])
    rec = float(np.linalg.norm(x - x_true) / np.linalg.norm(x))
    return x, labels, x_true, labels_true, rec, 0.25


def test_errors_recomputed():
    x, labels, x_true, labels_true, rec, seg = _solution()
    assert checks.check_errors(x, labels, x_true, labels_true, rec, seg, 0.1, 0.3) \
        == pytest.approx((rec, seg))


@pytest.mark.parametrize("change", [
    dict(reported_rec_scale=1.01),      # wrong reported rec_err
    dict(reported_seg=0.5),             # wrong reported seg_err
    dict(rec_max=0.01),                 # rec_err over its bound
    dict(seg_max=0.2),                  # seg_err over its bound
])
def test_errors_catch_wrong_values(change):
    x, labels, x_true, labels_true, rec, seg = _solution()
    with pytest.raises(CheckFailed):
        checks.check_errors(x, labels, x_true, labels_true,
                            rec * change.get("reported_rec_scale", 1.0),
                            change.get("reported_seg", seg),
                            change.get("rec_max", 0.1), change.get("seg_max", 0.3))


def _fields():
    memberships = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    responsibilities = np.array([[0.0, 0.25, 0.75], [1.0, 0.0, 0.0]])
    return memberships, responsibilities


def test_fields_pass():
    checks.check_fields(*_fields())


@pytest.mark.parametrize("row", [
    [0.0, 0.5, 0.5],            # on the simplex boundary
    [1.0, 1e-12, 1e-12],        # on a vertex, the sum within tolerance
    [0.25, 0.3, 0.5],           # sums to 1.05
])
def test_fields_catch_bad_memberships(row):
    memberships, responsibilities = _fields()
    memberships[0] = row
    with pytest.raises(CheckFailed):
        checks.check_fields(memberships, responsibilities)


def test_fields_catch_bad_responsibilities():
    memberships, responsibilities = _fields()
    responsibilities[1] = [0.9, 0.0, 0.0]
    with pytest.raises(CheckFailed):
        checks.check_fields(memberships, responsibilities)
    responsibilities[1] = [1.1, -0.1, 0.0]
    with pytest.raises(CheckFailed):
        checks.check_fields(memberships, responsibilities)


def test_labels_are_argmax_plus_one():
    memberships, _ = _fields()
    checks.check_labels(np.array([3, 1]), memberships)
    with pytest.raises(CheckFailed):
        checks.check_labels(np.array([2, 0]), memberships)  # argmax, not + 1
    with pytest.raises(CheckFailed):
        checks.check_labels(np.array([3, 2]), memberships)


def test_finite():
    checks.check_finite(np.ones(4), [(1.0, 2.0)])
    with pytest.raises(CheckFailed):
        checks.check_finite(np.array([1.0, np.nan]), [(1.0, 2.0)])
    with pytest.raises(CheckFailed):
        checks.check_finite(np.ones(4), [(1.0, np.inf)])
    with pytest.raises(CheckFailed):
        checks.check_finite(np.ones(4), [])


def _spans(child_seconds):
    spans = [{"id": 0, "name": "solver.solve", "parent": None, "start": 0.0, "end": 1.0}]
    t = 0.0
    for i, sec in enumerate(child_seconds, 1):
        spans.append({"id": i, "name": "kernels.cgls", "parent": 0,
                      "start": t, "end": t + sec})
        t += sec
    return spans


def test_span_coverage():
    assert checks.check_span_coverage(_spans([0.5, 0.48])) == pytest.approx(0.98)
    with pytest.raises(CheckFailed):
        checks.check_span_coverage(_spans([0.5, 0.4]))
    with pytest.raises(CheckFailed):
        checks.check_span_coverage([])


def test_tracer_records_nested_spans_and_restores(srsct):
    import srsct.solver
    original = srsct.solver.tv_prox
    tracer = Tracer()
    tracer.install()
    try:
        phi = np.random.default_rng(0).random((16, 2)) + 0.1
        srsct.solver.solve_membership_subproblem(
            phi, np.full((16, 2), 0.5), srsct.SolverConfig(admm_max=2), 4)
    finally:
        tracer.uninstall()
    assert srsct.solver.tv_prox is original
    admm = tracer.spans[0]
    assert admm["name"] == "solver.admm" and admm["iterations"] == 2
    names = [s["name"] for s in tracer.spans[1:]]
    assert names == ["kernels.tv_prox", "kernels.coupling", "kernels.simplex"] * 2
    for child in tracer.spans[1:]:
        assert child["parent"] == admm["id"]
        assert admm["start"] <= child["start"] <= child["end"] <= admm["end"]


def test_tracer_fails_on_a_missing_trace_point(srsct):
    import srsct.solver
    original = srsct.solver.tv_prox
    tracer = Tracer()
    points = [("srsct.solver", "tv_prox", "kernels.tv_prox", None),
              ("srsct.solver", "no_such_function", "solver.gone", None)]
    try:
        with pytest.raises(CheckFailed):
            tracer.install(points)
    finally:
        tracer.uninstall()
    assert srsct.solver.tv_prox is original


def test_pgm_written_by_the_program_parses(srsct, tmp_path):
    from srsct.pgm import write_pgm
    image = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    for binary in (False, True):
        path = tmp_path / f"x{binary}.pgm"
        write_pgm(path, image, binary=binary)
        assert checks.read_pgm(path).shape == (3, 4)


def test_pgm_catches_wrong_files(srsct, tmp_path):
    from srsct.pgm import write_pgm
    path = tmp_path / "x.pgm"
    write_pgm(path, np.linspace(0.0, 1.0, 16).reshape(4, 4))
    checks.check_pgm(path, 4)
    with pytest.raises(CheckFailed):
        checks.check_pgm(path, 5)  # wrong size
    text = path.read_text()
    path.write_text(text.rsplit(" ", 1)[0] + "\n")  # one sample short
    with pytest.raises(CheckFailed):
        checks.check_pgm(path, 4)
    path.write_text("P2\n2 2\n65535\n0 100 200 300\n")
    with pytest.raises(CheckFailed):
        checks.check_pgm(path, 2)  # the image maximum does not map to 65535


def test_labels_csv(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("1,2\n3,1\n")
    assert checks.check_labels_csv(path, 2, 3).tolist() == [[1, 2], [3, 1]]
    with pytest.raises(CheckFailed):
        checks.check_labels_csv(path, 2, 2)  # label 3 of 2 classes
    path.write_text("1,2\n3\n")
    with pytest.raises(CheckFailed):
        checks.check_labels_csv(path, 2, 3)


def test_energy_trace_csv(tmp_path):
    path = tmp_path / "energy_trace.csv"
    path.write_text("iter,E0,F,rel_change_x\n1,2.5,3.0,inf\n2,2.0,2.5,0.1\n")
    assert checks.check_energy_trace_csv(path) == 2
    path.write_text("iter,E0,F,rel_change_x\n1,nan,3.0,inf\n")
    with pytest.raises(CheckFailed):
        checks.check_energy_trace_csv(path)


def test_first_trial():
    labels_true = np.array([1, 2, 3, 3])
    labels = np.array([[1, 2], [3, 2]])  # one of four labels wrong
    assert checks.check_first_trial(labels, labels_true, 5, 0.25, 5) == 0.25
    with pytest.raises(CheckFailed):  # the report's seg_err is not the labels'
        checks.check_first_trial(labels, labels_true, 5, 0.0, 5)
    with pytest.raises(CheckFailed):  # labels of another trial
        checks.check_first_trial(np.array([[1, 2], [3, 3]]), labels_true, 5, 0.25, 5)
    with pytest.raises(CheckFailed):  # one energy row short
        checks.check_first_trial(labels, labels_true, 4, 0.25, 5)


def _report(tmp_path, rows, mean):
    path = tmp_path / "report.csv"
    lines = ["seed,rec_err,seg_err,seconds,outer_iters,status"]
    lines += [",".join(str(v) for v in row) for row in rows]
    lines.append(f"mean,{mean[0]!r},{mean[1]!r},1.000,,")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_report(tmp_path):
    rows = [(7, 0.1, 0.02, "1.250", 4, "ok"), (8, 0.2, 0.04, "0.750", 6, "ok")]
    mean = (float(np.mean([0.1, 0.2])), float(np.mean([0.02, 0.04])))
    trials, means = checks.read_report(_report(tmp_path, rows, mean), [7, 8], 0.25, 0.22)
    assert trials == [(0.1, 0.02, 1.25, 4, "ok"), (0.2, 0.04, 0.75, 6, "ok")]
    assert means == mean


def test_report_with_a_failed_trial(tmp_path):
    # a failed trial is written with nan errors and left out of the means
    rows = [(7, 0.1, 0.02, "1.250", 4, "ok"), (8, "nan", "nan", "0.000", 0, "failed")]
    trials, means = checks.read_report(_report(tmp_path, rows, (0.1, 0.02)),
                                       [7, 8], 0.25, 0.22)
    assert [t[4] for t in trials] == ["ok", "failed"]
    assert means == (0.1, 0.02)
    rows = [(7, "nan", "nan", "0.000", 0, "failed"), (8, "nan", "nan", "0.000", 0, "failed")]
    checks.read_report(_report(tmp_path, rows, (math.nan, math.nan)), [7, 8], 0.25, 0.22)


@pytest.mark.parametrize("rows, mean", [
    ([(7, 0.1, 0.02, "1.0", 4, "ok"), (8, 0.2, 0.04, "1.0", 6, "ok")], (0.16, 0.03)),
    ([(7, 0.1, 0.02, "1.0", 4, "ok"), (8, "nan", "nan", "0.0", 0, "failed")], (0.15, 0.03)),
    ([(7, 0.1, 0.02, "1.0", 4, "ok"), (8, 0.2, 0.04, "1.0", 6, "failed")], (0.1, 0.02)),
    ([(7, 0.1, 0.02, "1.0", 4, "ok"), (8, "nan", "nan", "0.0", 0, "lost")], (0.1, 0.02)),
    ([(7, 0.1, 0.02, "1.0", 4, "ok"), (8, 0.3, 0.04, "1.0", 6, "ok")], (0.2, 0.03)),
    ([(7, 0.1, 0.02, "1.0", 4, "ok")], (0.1, 0.02)),
    ([(8, 0.2, 0.04, "1.0", 6, "ok"), (7, 0.1, 0.02, "1.0", 4, "ok")], (0.15, 0.03)),
])
def test_report_catches_wrong_reports(tmp_path, rows, mean):
    # a wrong mean row, a mean that counts a failed trial, a failed trial
    # with errors, an unknown status, a trial over the rec_err bound, a
    # missing trial, and the trials out of seed order
    with pytest.raises(CheckFailed):
        checks.read_report(_report(tmp_path, rows, mean), [7, 8], 0.25, 0.22)
