#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the srsct solver.

    python3 perfbench/run.py --workload piecewise64 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. One run sets up the workload's scan several times, then repeats
whole operations (one solve, or one `srs run` of 12 trials) until
`--seconds` have passed, and checks every output with `checks.py`. The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` (solves or trials) and `metrics`, the end-to-end metrics with
`--trace 0` and the per-layer metrics, read from in-memory spans, with
`--trace 1`. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracing import Tracer, duration  # noqa: E402


@dataclass(frozen=True)
class Workload:
    phantom: str
    grid_side: int
    detector_pixels: int
    angles: str
    noise_level: float
    noise_seed: int
    rec_max: float            # acceptance bounds on the solve's errors
    seg_max: float
    setup_reps: int
    trials: int = 0           # > 0: one operation is `srs run` of this many trials


WORKLOADS = {
    # the paper's reference experiment: the membership ADMM does almost all
    # the work and the projector almost none
    "piecewise64": Workload("piecewise", 64, 91, "6:6:180", 0.05, 1000,
                            0.11, 0.05, setup_reps=25),
    # the sweep's 256 scan: the projector does most of the work, K = 3
    "smooth256": Workload("smooth", 256, 364, "1.5:1.5:180", 0.01, 4000,
                          0.25, 0.22, setup_reps=3),
    # many short solves through the CLI and its harness, plus its writers
    "trials64": Workload("smooth", 64, 91, "6:6:180", 0.01, 4000,
                         0.25, 0.22, setup_reps=25, trials=12),
}

# The trial pool (SRS_THREADS=2) is left out: its workers oversubscribe the
# two cores with BLAS threads and one `srs run` takes 15 s to 37 s, a spread
# no bound can hold. The sequential default of the CLI is measured instead.
SRS_THREADS = "1"


def import_srsct():
    """Import the package from this checkout's `src/`, never another copy."""
    if not (SRC / "srsct" / "__init__.py").is_file():
        sys.exit(f"perfbench: no srsct sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import srsct
    if Path(srsct.__file__).resolve().parent != SRC / "srsct":
        sys.exit(f"perfbench: imported srsct from {srsct.__file__}, not {SRC}")
    return srsct


def experiment_config(srsct_config, wl: Workload):
    """The program's own reference settings for the workload's phantom."""
    return srsct_config.build_experiment_config({}, {
        "phantom": wl.phantom, "grid_side": wl.grid_side,
        "detector_pixels": wl.detector_pixels, "angles": wl.angles,
        "noise_level": wl.noise_level, "seed": wl.noise_seed,
        "variant": "model-16"})


def build_scan(srsct, wl: Workload):
    maker = (srsct.phantoms.make_piecewise_phantom if wl.phantom == "piecewise"
             else srsct.phantoms.make_smooth_phantom)
    phantom = maker(wl.grid_side)
    system = srsct.geometry.build_parallel_geometry(
        wl.grid_side, wl.detector_pixels, srsct.config.parse_angles(wl.angles))
    b_clean = srsct.geometry.apply(system, phantom.image)
    return phantom, system, b_clean


def check_scan(srsct, wl: Workload, system, seed: int) -> None:
    ones = np.ones(system.n)
    checks.check_chord_lengths(srsct.geometry.apply(system, ones), wl.grid_side,
                               wl.detector_pixels, srsct.config.parse_angles(wl.angles))
    checks.check_adjoint(lambda u: srsct.geometry.apply(system, u),
                         lambda v: srsct.geometry.apply(system, v, transposed=True),
                         system.n, system.m, np.random.default_rng(seed))


def solve_once(srsct, wl: Workload, cfg, scan, run_dir: Path) -> dict:
    """One reconstruct_and_segment on the workload's noisy sinogram, timed,
    with every output checked. Returns the operation's figures."""
    phantom, system, b_clean = scan
    sino = srsct.geometry.add_noise(b_clean, wl.noise_level, wl.noise_seed)
    prior = srsct.config.ClassPrior(phantom.class_means,
                                    np.full(phantom.n_classes, cfg.prior_sigma))
    problem = srsct.solver.SrsProblem(system, sino, prior, wl.grid_side)
    started = time.perf_counter()
    result = srsct.solver.reconstruct_and_segment(problem, cfg.solver, cfg.variant)
    wall = time.perf_counter() - started

    checks.check_finite(result.x, result.energy_trace)
    checks.check_fields(result.memberships, result.responsibilities)
    checks.check_labels(result.labels, result.memberships)
    rec, seg = checks.check_errors(
        result.x, result.labels, phantom.image, phantom.labels,
        srsct.metrics.reconstruction_error(result.x, phantom.image),
        srsct.metrics.segmentation_error(result.labels, phantom.labels),
        wl.rec_max, wl.seg_max)
    pgm_path = run_dir / "x_final.pgm"
    srsct.pgm.write_pgm(pgm_path, result.x.reshape(wl.grid_side, wl.grid_side))
    checks.check_pgm(pgm_path, wl.grid_side)
    return {"wall": wall, "solves": 1, "rec_err": rec, "seg_err": seg,
            "program_solve_s": result.seconds, "program_outer_iters": result.iterations}


def _run_child(argv, env, timeout: float):
    """Run a child in its own process group; on timeout kill the group, so
    that no pool worker outlives the run."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err += f"\nperfbench: killed after {timeout:.0f} s"
    return proc.returncode, err


def trials_once(wl: Workload, run_dir: Path, spans_path: Path | None,
                labels_true: np.ndarray) -> dict:
    """One `srs run` of the workload's trials in a child process, timed from
    start to exit, with its report and first-trial files checked. A trial
    that the report marks `failed` counts as failed."""
    for stale in run_dir.iterdir():
        stale.unlink()
    cli = ["run", "--phantom", wl.phantom, "--n", str(wl.grid_side),
           "--trials", str(wl.trials), "--seed", str(wl.noise_seed),
           "--out", str(run_dir)]
    if spans_path is None:
        argv = [sys.executable, "-m", "srsct.cli", *cli]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *cli]
    env = dict(os.environ, PYTHONPATH=str(SRC), SRS_THREADS=SRS_THREADS)
    started = time.perf_counter()
    code, err = _run_child(argv, env, timeout=150.0)
    wall = time.perf_counter() - started
    # `srs run` exits with 2 when some trials failed, after writing its report
    if code not in (0, 2):
        raise checks.CheckFailed(f"srs run exited with {code}:\n{err[-2000:]}")

    seeds = [wl.noise_seed + i for i in range(wl.trials)]
    trials, (rec, seg) = checks.read_report(run_dir / "report.csv", seeds,
                                            wl.rec_max, wl.seg_max)
    ok = [t for t in trials if t[4] == "ok"]
    failed = len(trials) - len(ok)
    if (code == 2) != (failed > 0):
        raise checks.CheckFailed(f"srs run exited with {code} with {failed} failed trials")
    if failed:
        print(f"perfbench: srs run: {failed} of {len(trials)} trials failed:\n{err[-2000:]}",
              file=sys.stderr)
    first = trials[0]
    if first[4] == "ok":
        checks.check_pgm(run_dir / "x_final.pgm", wl.grid_side)
        labels = checks.check_labels_csv(run_dir / "labels.csv", wl.grid_side, 3)
        trace_rows = checks.check_energy_trace_csv(run_dir / "energy_trace.csv")
        checks.check_first_trial(labels, labels_true, trace_rows, first[1], first[3])
    return {"wall": wall, "solves": len(ok), "failed": failed, "rec_err": rec, "seg_err": seg,
            "program_solve_s": sum(t[2] for t in ok),
            "program_outer_iters": sum(t[3] for t in ok)}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest
    # waited-for descendant: the `srs` child and any pool workers of its own
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(ops: list[dict], setup_times: list[float]) -> dict:
    done = [op for op in ops if op["solves"]]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(op["wall"] / op["solves"] for op in done), "s"),
        "trials_per_s": (statistics.median(op["solves"] / op["wall"] for op in done), "1/s"),
        "rec_err": (statistics.median(op["rec_err"] for op in done), "ratio"),
        "seg_err": (statistics.median(op["seg_err"] for op in done), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _op_layers(spans: list[dict], cfg_solver) -> dict:
    """Per-layer figures of one operation from its spans."""
    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(duration(s) for s in named(name))

    cgls, admm = named("kernels.cgls"), named("solver.admm")
    admm_s = total("solver.admm")
    admm_children = total("kernels.tv_prox") + total("kernels.coupling") + total("kernels.simplex")
    return {
        "geometry.apply_calls": (len(named("geometry.apply")), "count"),
        "geometry.apply_s": (total("geometry.apply"), "s"),
        "kernels.cgls_s": (total("kernels.cgls"), "s"),
        "kernels.cgls_iters": (sum(s["iterations"] for s in cgls), "count"),
        "kernels.cgls_capped": (sum(s["iterations"] >= cfg_solver.cgls_max
                                    and s["rel_change"] >= cfg_solver.cgls_tol
                                    for s in cgls), "count"),
        "kernels.tv_prox_calls": (len(named("kernels.tv_prox")), "count"),
        "kernels.tv_prox_s": (total("kernels.tv_prox"), "s"),
        "kernels.bregman_iters": (sum(s["iterations"] for s in named("kernels.tv_prox")), "count"),
        "kernels.coupling_s": (total("kernels.coupling"), "s"),
        "kernels.simplex_s": (total("kernels.simplex"), "s"),
        "kernels.responsibilities_s": (total("kernels.responsibilities"), "s"),
        "solver.energy_s": (total("solver.marginal_energy") + total("solver.joint_energy"), "s"),
        "solver.admm_s": (admm_s, "s"),
        "solver.admm_self_s": (admm_s - admm_children, "s"),
        "solver.admm_iters": (sum(s["iterations"] for s in admm), "count"),
        "solver.admm_capped": (sum(s["iterations"] >= cfg_solver.admm_max
                                   and s["rel_change"] >= cfg_solver.admm_tol
                                   for s in admm), "count"),
        "solver.outer_iters": (sum(s["iterations"] for s in named("solver.solve")), "count"),
        "solver.solve_s": (total("solver.solve"), "s"),
        "pgm.write_s": (total("pgm.write"), "s"),
    }


def per_layer(ops: list[dict], op_spans: list[list[dict]], setup_spans: list[dict],
              cfg_solver) -> dict:
    """Each layer figure is the median over the run's operations."""
    layers = [_op_layers(spans, cfg_solver) for spans in op_spans]
    done = [op for op in ops if op["solves"]]
    metrics = {name: (statistics.median(layer[name][0] for layer in layers), unit)
               for name, (_, unit) in layers[0].items()}
    builds = [duration(s) for s in setup_spans if s["name"] == "geometry.build"]
    metrics["geometry.build_s"] = (statistics.median(builds), "s")
    metrics["experiment.trial_solve_s"] = (
        statistics.median(op["program_solve_s"] for op in done), "s")
    metrics["experiment.outer_iters"] = (
        statistics.median(op["program_outer_iters"] for op in done), "count")
    return metrics


def scan_summary(system) -> str:
    nnz = len(system.values)
    csr = sum(a.nbytes for a in (system.values, system.col_indices, system.row_offsets))
    # the transposed copy holds the same values and column indices with n + 1 offsets
    both = 2 * (system.values.nbytes + system.col_indices.nbytes) + \
        (system.m + system.n + 2) * system.row_offsets.itemsize
    return (f"scan {system.m}x{system.n} nnz={nnz} csr_bytes={csr} "
            f"csr_bytes_with_transpose={both}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="seeds the random probe vectors of the projector checks")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    srsct = import_srsct()
    import srsct.config, srsct.errors, srsct.geometry, srsct.metrics  # noqa: E401
    import srsct.pgm, srsct.phantoms, srsct.solver  # noqa: E401
    wl = WORKLOADS[args.workload]
    cfg = experiment_config(srsct.config, wl)
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir()

    tracer = Tracer()
    correct, ops, op_spans = True, [], []
    try:
        if args.trace:
            tracer.install()
        setup_times, scan = [], None
        for _ in range(wl.setup_reps):
            scan = None  # free the previous scan before building the next
            started = time.perf_counter()
            scan = build_scan(srsct, wl)
            setup_times.append(time.perf_counter() - started)
        setup_spans = list(tracer.spans)
        check_scan(srsct, wl, scan[1], args.seed)
        print(f"perfbench: {args.workload} {scan_summary(scan[1])}", file=sys.stderr)

        deadline = time.perf_counter() + args.seconds
        while not ops or time.perf_counter() < deadline:
            tracer.op = len(ops)
            first_span = len(tracer.spans)
            if wl.trials:
                spans_path = run_dir / "child_spans.json" if args.trace else None
                op = trials_once(wl, run_dir, spans_path, scan[0].labels)
                spans = (json.loads(spans_path.read_text())["spans"]
                         if args.trace and op["solves"] else [])
            else:
                try:
                    op = solve_once(srsct, wl, cfg, scan, run_dir)
                except srsct.errors.DivergenceError as exc:
                    print(f"perfbench: solve failed: {exc!r}", file=sys.stderr)
                    op = {"wall": 0.0, "solves": 0, "failed": 1}
                spans = tracer.spans[first_span:]
            if args.trace and op["solves"]:
                checks.check_span_coverage(spans)
            ops.append(op)
            op_spans.append(spans)
    except checks.CheckFailed as exc:
        # the operation under way, or the scan checks before the first one,
        # counts as attempted and failed
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
        ops.append({"wall": 0.0, "solves": 0, "failed": wl.trials or 1})
        op_spans.append([])
    finally:
        tracer.uninstall()

    failed = sum(op.get("failed", 0) for op in ops)
    attempted = sum(op["solves"] for op in ops) + failed
    metrics = {}
    if correct and attempted > failed:
        if args.trace:
            metrics = per_layer(ops, [s for op, s in zip(ops, op_spans) if op["solves"]],
                                setup_spans, cfg.solver)
            child_spans = op_spans if wl.trials else []
            tracer.write(OUT / f"trace-{args.workload}.json", child_spans)
        else:
            metrics = end_to_end(ops, setup_times)
    for child in run_dir.iterdir():
        child.unlink()
    run_dir.rmdir()

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
