"""Experiment harness: multi-seed trials, aggregation, CSV and image output."""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import parallel
from .config import ClassPrior, ExperimentConfig, parse_angles
from .geometry import add_noise, apply, build_parallel_geometry
from .metrics import reconstruction_error, segmentation_error
from .pgm import write_pgm
from .phantoms import make_piecewise_phantom, make_smooth_phantom, write_labels_csv
from .solver import SrsProblem, reconstruct_and_segment

REPORT_HEADER = "seed,rec_err,seg_err,seconds,outer_iters,status"

# Reference scan at 64x64; the sweep scales detector count and angle step
# with the resolution so the measurement/unknown ratio stays fixed.
_BASE_SIDE = 64
_BASE_DETECTOR = 91
_BASE_ANGLE_STEP = 6.0


@dataclass
class TrialResult:
    seed: int
    rec_err: float
    seg_err: float
    seconds: float
    outer_iters: int
    status: str = "ok"


@dataclass
class RunReport:
    config: ExperimentConfig
    trials: list[TrialResult]
    mean_rec_err: float
    mean_seg_err: float
    mean_seconds: float

    @property
    def n_failed(self) -> int:
        return sum(1 for t in self.trials if t.status != "ok")


@lru_cache(maxsize=4)
def _scan_setup(phantom_kind: str, grid_side: int, detector_pixels: int, angles: str):
    """Phantom, projector and clean sinogram for one scan configuration.

    Cached so that parallel workers and repeated runs build the system
    matrix only once per process.
    """
    maker = make_piecewise_phantom if phantom_kind == "piecewise" else make_smooth_phantom
    phantom = maker(grid_side)
    system = build_parallel_geometry(grid_side, detector_pixels, parse_angles(angles))
    b_clean = apply(system, phantom.image)
    return phantom, system, b_clean


def run_trial(cfg: ExperimentConfig, seed: int):
    """One noise realization: corrupt, solve, score. Returns (trial, result)."""
    phantom, system, b_clean = _scan_setup(cfg.phantom, cfg.grid_side,
                                           cfg.detector_pixels, cfg.angles)
    sino = add_noise(b_clean, cfg.noise_level, seed)
    prior = ClassPrior(phantom.class_means,
                       np.full(phantom.n_classes, cfg.prior_sigma))
    problem = SrsProblem(system, sino, prior, cfg.grid_side)
    result = reconstruct_and_segment(problem, cfg.solver, cfg.variant)
    trial = TrialResult(
        seed=seed,
        rec_err=reconstruction_error(result.x, phantom.image),
        seg_err=segmentation_error(result.labels, phantom.labels),
        seconds=result.seconds,
        outer_iters=result.iterations,
    )
    return trial, result


def _outcome(seed: int, run, *args):
    """run(*args), the (trial, result) of the trial of this seed. A trial
    that raises, or whose pool worker died, fails: its traceback goes to
    stderr, and it is marked failed, with no result."""
    try:
        return run(*args)
    except Exception:  # the trial's boundary: the run goes on without it
        traceback.print_exc()
        return TrialResult(seed, float("nan"), float("nan"), 0.0, 0, "failed"), None


def _pool_outcomes(cfg: ExperimentConfig, seeds, workers: int):
    """The _outcome of each seed's trial on a pool of workers, in seed order;
    a trial that a broken pool left unfinished runs again alone."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_trial, cfg, seed) for seed in seeds]
        for seed, future in zip(seeds, futures):
            if isinstance(future.exception(), BrokenProcessPool):
                with ProcessPoolExecutor(max_workers=1) as alone:
                    yield _outcome(seed, alone.submit(run_trial, cfg, seed).result)
            else:
                yield _outcome(seed, future.result)


def worker_count() -> int:
    """The SRS_THREADS environment variable as an integer; 1 when unset or empty."""
    value = os.environ.get("SRS_THREADS") or "1"
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"SRS_THREADS must be an integer, got {value!r}") from None


def make_out_dir(cfg: ExperimentConfig) -> None:
    """Create cfg.out_dir, if set, with its parents. A path that cannot be a
    directory raises OSError (FileExistsError, NotADirectoryError)."""
    if cfg.out_dir is not None:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run all trials of one experiment and write the report artifacts.

    Trial seeds are base seed + trial index, so reports are reproducible
    (apart from wall-clock times) regardless of worker count. The worker
    pool size comes from the SRS_THREADS environment variable, capped at the
    trial count and at the cores this process may run on; below 2 the trials
    run sequentially, and a value that is not an integer raises ValueError.
    Either way a trial that raises is marked failed and its traceback goes
    to stderr. A pool worker that dies breaks the whole pool; each trial it
    left unfinished runs again alone in a fresh one-worker pool, and fails
    the same way if that worker dies too.
    Output files (report.csv, x_final.pgm, labels.csv, energy_trace.csv for
    the first trial) are written when out_dir is set; the directory is made
    (`make_out_dir`) before any trial runs.
    """
    seeds = range(cfg.seed, cfg.seed + cfg.trials)
    workers = min(worker_count(), cfg.trials, parallel.cores())
    make_out_dir(cfg)

    if workers > 1:
        # build the scan before the fork so the workers inherit it
        _scan_setup(cfg.phantom, cfg.grid_side, cfg.detector_pixels, cfg.angles)
        outcomes = _pool_outcomes(cfg, seeds, workers)
    else:
        outcomes = (_outcome(seed, run_trial, cfg, seed) for seed in seeds)
    trials, first_result = [], None
    for trial, result in outcomes:
        if not trials:
            first_result = result
        trials.append(trial)

    ok = [t for t in trials if t.status == "ok"]
    means = [float(np.mean([getattr(t, name) for t in ok])) if ok else float("nan")
             for name in ("rec_err", "seg_err", "seconds")]
    report = RunReport(cfg, trials, *means)
    if cfg.out_dir is not None:
        _write_artifacts(report, first_result)
    return report


def _write_artifacts(report: RunReport, first_result) -> None:
    cfg = report.config
    out = Path(cfg.out_dir)

    with open(out / "report.csv", "w", encoding="ascii") as fh:
        fh.write(REPORT_HEADER + "\n")
        for t in report.trials:
            fh.write(f"{t.seed},{t.rec_err!r},{t.seg_err!r},{t.seconds:.3f},"
                     f"{t.outer_iters},{t.status}\n")
        fh.write(f"mean,{report.mean_rec_err!r},{report.mean_seg_err!r},"
                 f"{report.mean_seconds:.3f},,\n")

    if first_result is not None:
        side = cfg.grid_side
        write_pgm(out / "x_final.pgm", first_result.x.reshape(side, side),
                  binary=cfg.pgm_binary)
        write_labels_csv(out / "labels.csv", first_result.labels.reshape(side, side))
        with open(out / "energy_trace.csv", "w", encoding="ascii") as fh:
            fh.write("iter,E0,F,rel_change_x\n")
            for i, ((e0, f_val), rel) in enumerate(
                    zip(first_result.energy_trace, first_result.rel_changes), 1):
                fh.write(f"{i},{e0!r},{f_val!r},{rel!r}\n")


def sweep_config(base: ExperimentConfig, grid_side: int) -> ExperimentConfig:
    """Scale the scan so the measurement/unknown ratio matches the base setup;
    the scaled config is checked as any other."""
    if grid_side not in (64, 128, 256, 512):
        raise ValueError("sweep sides must be one of 64, 128, 256, 512")
    step = _BASE_ANGLE_STEP / (grid_side // _BASE_SIDE)
    out_dir = None
    if base.out_dir is not None:
        out_dir = str(Path(base.out_dir) / f"n{grid_side}")
    return replace(base,
                   grid_side=grid_side,
                   detector_pixels=round(_BASE_DETECTOR * grid_side / _BASE_SIDE),
                   angles=f"{step}:{step}:180",
                   out_dir=out_dir)
