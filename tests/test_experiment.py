"""Experiment harness: config handling, trial reports, artifacts, CLI."""

import os
import signal
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import srsct.experiment as exp
from srsct import parallel
from srsct.cli import main
from srsct.config import (
    MAX_ANGLES,
    ExperimentConfig,
    SolverConfig,
    build_experiment_config,
    parse_angles,
    parse_config_file,
)
from srsct.experiment import run_experiment, sweep_config
from srsct.pgm import write_pgm

# small but complete experiment: fast enough for the unit suite
FAST = dict(
    phantom="piecewise", grid_side=16, detector_pixels=23, angles="15:15:180",
    noise_level=0.02, trials=2, seed=11, variant="model-16", prior_sigma=0.1,
)
FAST_SOLVER = SolverConfig(data_weight=0.2, tv_weight=1.0, tikhonov_weight=1.0,
                           simplex_split_penalty=2.0, outer_max=6)
# one angle over the bound, every angle in (0, 180]
OVERSIZE_ANGLES = "{0}:{0}:180".format(180 / (MAX_ANGLES + 1))


# every config key with its annotated type: the fields of both dataclasses
FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig) + fields(SolverConfig)
               if f.name != "solver"}
SOLVER_KEYS = {f.name for f in fields(SolverConfig)}
# (file text, parsed value): by type, or by key where the value has a domain
TYPE_SAMPLES = {"bool": ("off", False), "int": ("7", 7), "float": ("0.5", 0.5)}
STRING_SAMPLES = {"phantom": ("smooth", "smooth"), "angles": ("12:12:180", "12:12:180"),
                  "grid_side": ("32", 32),
                  "variant": ("model-9", "model-9"), "out_dir": ("runs/x", "runs/x")}


REAL_RUN_TRIAL = exp.run_trial


def killed_at_seed_3(cfg, seed):
    """run_trial, except that the process running seed 3 is killed."""
    if seed == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return REAL_RUN_TRIAL(cfg, seed)


def no_trial(cfg, seed):
    """run_trial for a run that must fail before any trial starts."""
    pytest.fail(f"trial of seed {seed} ran")


def fail_trial(monkeypatch, seed, error):
    """Make the solve of the trial of this seed raise `error`. A trial draws
    its noise (`add_noise`) just before its solve, in the same process, so
    the seed of the last draw names the trial being solved."""
    seeds = []
    real_noise, real_solve = exp.add_noise, exp.reconstruct_and_segment

    def noise(b_clean, noise_level, noise_seed):
        seeds.append(noise_seed)
        return real_noise(b_clean, noise_level, noise_seed)

    def solve(problem, cfg, variant):
        if seeds[-1] == seed:
            raise error
        return real_solve(problem, cfg, variant)

    monkeypatch.setattr(exp, "add_noise", noise)
    monkeypatch.setattr(exp, "reconstruct_and_segment", solve)


class RecordingPool:
    """ProcessPoolExecutor's stand-in: records each pool's size in `sizes`
    and runs each submitted call at once in this process, so it starts no
    process."""
    sizes: list = []  # each test sets a list of its own

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def fast_config(**overrides):
    kwargs = dict(FAST)
    kwargs.update(overrides)
    return ExperimentConfig(solver=FAST_SOLVER, **kwargs)


class TestAngleSpec:
    def test_six_degree_spacing(self):
        angles = parse_angles("6:6:180")
        assert len(angles) == 30
        assert angles[0] == 6.0 and angles[-1] == 180.0

    def test_fractional_step(self):
        angles = parse_angles("1.5:1.5:180")
        assert len(angles) == 120

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_angles("6:180")
        with pytest.raises(ValueError):
            parse_angles("6:-6:180")
        for spec in ("0:1:inf", "nan:6:180", "6:inf:180", "6:6:-inf"):
            with pytest.raises(ValueError, match="must be finite"):
                parse_angles(spec)

    def test_last_angle_stops_at_stop(self):
        # 0.05 * 3599 rounds to 180.00000000000003: clamped to the stop
        angles = parse_angles("0.05:0.05:180")
        assert len(angles) == 3600 and angles[-1] == 180.0

    def test_angle_count_bounded(self):
        # a spec one angle over the bound fails; the count is checked before
        # the list is built, so a spec such as 1:1e-12:180 never expands
        assert len(parse_angles(f"1:1:{MAX_ANGLES}")) == MAX_ANGLES
        for spec in (OVERSIZE_ANGLES, "0.5:1e-320:180"):  # a count that overflows to inf
            with pytest.raises(ValueError, match=f"more than {MAX_ANGLES} angles"):
                parse_angles(spec)


class TestConfigFile:
    def test_parse_and_merge(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "phantom = smooth\n"
            "grid_side = 32   # inline comment\n"
            "trials = 3\n"
            "data_weight = 7.5\n"
        )
        cfg = build_experiment_config(parse_config_file(path))
        assert cfg.phantom == "smooth"
        assert cfg.grid_side == 32
        assert cfg.trials == 3
        assert cfg.solver.data_weight == 7.5
        # untouched smooth defaults fill the rest
        assert cfg.noise_level == 0.01
        assert cfg.solver.tikhonov_weight == 35.0

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("trials = 3\nnoise_level = 0.10\n")
        cfg = build_experiment_config(parse_config_file(path),
                                      {"trials": 5, "noise_level": 0.2})
        assert cfg.trials == 5
        assert cfg.noise_level == 0.2

    def test_piecewise_defaults(self):
        cfg = build_experiment_config({}, {})
        assert cfg.phantom == "piecewise"
        assert cfg.noise_level == 0.05
        assert cfg.solver.data_weight == 0.2
        assert cfg.solver.tv_weight == 1.0
        assert cfg.solver.simplex_split_penalty == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        # the last two were SolverConfig fields and are now fixed constants
        for key in ("phantum", "bregman_penalty_scale", "simplex_floor"):
            path.write_text(f"{key} = 1\n")
            with pytest.raises(ValueError, match="unknown config key"):
                build_experiment_config(parse_config_file(path))

    @pytest.mark.parametrize("name", FIELD_TYPES)
    def test_every_field_parses_to_its_type(self, tmp_path, name):
        text, expected = STRING_SAMPLES.get(name) or TYPE_SAMPLES[FIELD_TYPES[name]]
        path = tmp_path / "exp.cfg"
        path.write_text(f"{name} = {text}\n")
        cfg = build_experiment_config(parse_config_file(path))
        value = getattr(cfg.solver if name in SOLVER_KEYS else cfg, name)
        assert type(value) is type(expected)
        assert value == expected

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("trials\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(phantom="cube")
        with pytest.raises(ValueError):
            ExperimentConfig(variant="model-5")

    @pytest.mark.parametrize("setting,message", [
        (dict(grid_side=8), "grid_side must be at least 16, got 8"),
        (dict(grid_side=1), "grid_side must be at least 16, got 1"),
        (dict(detector_pixels=0), "detector_pixels must be at least 1, got 0"),
        (dict(angles="0:6:180"), r"angle 0.0 outside \(0, 180\] degrees"),
        (dict(angles="0:1:inf"), "must be finite"),
        (dict(angles=OVERSIZE_ANGLES), f"more than {MAX_ANGLES} angles"),
        (dict(noise_level=-1.0), "noise_level must be finite and at least 0, got -1.0"),
        (dict(noise_level=float("nan")), "noise_level must be finite and at least 0, got nan"),
        (dict(prior_sigma=0.0), "prior_sigma must be finite and greater than 0, got 0.0"),
        (dict(prior_sigma=float("nan")), "must be finite"),
        (dict(seed=-1), "seed must be at least 0, got -1"),
        (dict(noise_level="0.05"), "noise_level must be a real number, got '0.05'"),
        (dict(noise_level=True), "noise_level must be a real number, got True"),
        (dict(prior_sigma="0.1"), "prior_sigma must be a real number, got '0.1'"),
    ], ids=["n8", "n1", "zero-detector-pixels", "zero-angle", "infinite-angle-stop",
            "too-many-angles", "negative-noise", "nan-noise", "zero-prior-sigma",
            "nan-prior-sigma", "negative-seed", "string-noise", "bool-noise",
            "string-prior-sigma"])
    def test_bad_scan_setting_rejected_at_construction(self, setting, message):
        # the rules the CLI applies: no config, hence no trial, exists
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**setting)

    @pytest.mark.parametrize("make,setting,name", [
        (ExperimentConfig, dict(grid_side=16.5, detector_pixels=23, angles="15:15:180"),
         "grid_side"),
        (ExperimentConfig, dict(detector_pixels=22.5), "detector_pixels"),
        (ExperimentConfig, dict(trials=1.5), "trials"),
        (ExperimentConfig, dict(seed=0.5), "seed"),
        (SolverConfig, dict(outer_max=2.5), "outer_max"),
        (SolverConfig, dict(cgls_max=10.0), "cgls_max"),
        (SolverConfig, dict(admm_max=np.float64(5.0)), "admm_max"),
        (SolverConfig, dict(bregman_max=1.5), "bregman_max"),
        # operator.index takes a bool as 1 or 0
        (ExperimentConfig, dict(trials=True), "trials"),
        (ExperimentConfig, dict(seed=False), "seed"),
        (SolverConfig, dict(outer_max=True), "outer_max"),
    ], ids=["grid-side", "detector-pixels", "trials", "seed", "outer-max", "cgls-max",
            "admm-max", "bregman-max", "bool-trials", "bool-seed", "bool-outer-max"])
    def test_non_integral_setting_rejected_at_construction(self, make, setting, name):
        # a float is not truncated into a smaller scan or a cap that fails the trial later
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make(**setting)

    @pytest.mark.parametrize("setting,message", [
        (dict(data_weight="1.0"), "data_weight must be a real number, got '1.0'"),
        (dict(data_weight=None), "data_weight must be a real number, got None"),
        (dict(tv_weight=True), "tv_weight must be a real number, got True"),
        (dict(data_weight=0.0), "data_weight must be finite and greater than 0, got 0.0"),
        (dict(tikhonov_weight=-1.0), "tikhonov_weight must be finite and at least 0, got -1.0"),
        (dict(simplex_split_penalty=float("inf")),
         "simplex_split_penalty must be finite and greater than 0, got inf"),
        (dict(admm_tol=np.float64("nan")), "admm_tol must be finite and greater than 0, got nan"),
    ], ids=["string-weight", "none-weight", "bool-weight", "zero-data-weight",
            "negative-tikhonov", "infinite-penalty", "nan-tolerance"])
    def test_bad_real_setting_rejected_at_construction(self, setting, message):
        # weights, penalties and tolerances take one rule; the smoothing weights may be 0
        with pytest.raises(ValueError, match=message):
            SolverConfig(**setting)


class TestRunExperiment:
    def test_report_rows_and_aggregate(self, tmp_path):
        cfg = fast_config(out_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        assert len(report.trials) == 2
        assert [t.seed for t in report.trials] == [11, 12]
        recs = [t.rec_err for t in report.trials]
        assert report.mean_rec_err == pytest.approx(np.mean(recs), abs=1e-12)
        segs = [t.seg_err for t in report.trials]
        assert report.mean_seg_err == pytest.approx(np.mean(segs), abs=1e-12)

        out = tmp_path / "run"
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "seed,rec_err,seg_err,seconds,outer_iters,status"
        assert len(lines) == 4  # header + 2 trials + aggregate
        assert lines[-1].startswith("mean,")
        # aggregate cells parse as plain decimal numbers
        agg_cells = lines[-1].split(",")
        assert float(agg_cells[1]) == pytest.approx(report.mean_rec_err, abs=1e-15)
        assert float(agg_cells[2]) == pytest.approx(report.mean_seg_err, abs=1e-15)
        assert (out / "x_final.pgm").exists()
        assert (out / "labels.csv").exists()
        trace_lines = (out / "energy_trace.csv").read_text().splitlines()
        assert trace_lines[0] == "iter,E0,F,rel_change_x"
        assert len(trace_lines) >= 2

    def test_single_noise_free_trial_aggregate_equals_row(self, tmp_path):
        cfg = fast_config(trials=1, noise_level=0.0, out_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert len(report.trials) == 1
        assert report.mean_rec_err == report.trials[0].rec_err
        assert report.mean_seg_err == report.trials[0].seg_err
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_report_reproducible_except_seconds(self, tmp_path):
        cfg1 = fast_config(out_dir=str(tmp_path / "a"))
        cfg2 = fast_config(out_dir=str(tmp_path / "b"))
        run_experiment(cfg1)
        run_experiment(cfg2)

        def strip_seconds(path):
            rows = []
            for line in path.read_text().splitlines():
                cells = line.split(",")
                rows.append(",".join(cells[:3] + cells[4:]))
            return rows

        assert strip_seconds(tmp_path / "a" / "report.csv") == \
            strip_seconds(tmp_path / "b" / "report.csv")

    def test_parallel_matches_sequential(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "cores", lambda: 2)  # a pool of two on any host
        cfg_seq = fast_config(out_dir=str(tmp_path / "seq"))
        monkeypatch.delenv("SRS_THREADS", raising=False)
        seq = run_experiment(cfg_seq)
        monkeypatch.setenv("SRS_THREADS", "2")
        par = run_experiment(fast_config(out_dir=str(tmp_path / "par")))
        for a, b in zip(seq.trials, par.trials):
            assert a.seed == b.seed
            assert a.rec_err == b.rec_err
            assert a.seg_err == b.seg_err
            assert a.outer_iters == b.outer_iters
        for name in ("x_final.pgm", "labels.csv"):
            assert (tmp_path / "seq" / name).read_bytes() == \
                (tmp_path / "par" / name).read_bytes()

    def test_non_integer_srs_threads_rejected(self, monkeypatch):
        monkeypatch.setenv("SRS_THREADS", "abc")
        with pytest.raises(ValueError, match="SRS_THREADS"):
            run_experiment(fast_config())

    def test_no_files_without_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_experiment(fast_config(trials=1))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads, trials, cores, size", [
        ("64", 64, 2, 2), ("8", 3, 16, 3), ("2", 5, 4, 2), ("4", 4, 1, None)],
        ids=["cores", "trials", "threads", "one-core-sequential"])
    def test_pool_capped_at_trials_and_cores(self, monkeypatch, threads, trials, cores, size):
        monkeypatch.setenv("SRS_THREADS", threads)
        monkeypatch.setattr(parallel, "cores", lambda: cores)
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setattr(exp, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(exp, "run_trial", lambda cfg, seed: (
            exp.TrialResult(seed, 0.1, 0.1, 0.0, 1), None))
        report = run_experiment(fast_config(trials=trials))
        assert RecordingPool.sizes == ([] if size is None else [size])
        assert [t.seed for t in report.trials] == list(range(11, 11 + trials))

    def test_unusable_out_dir_raises_before_any_trial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(exp, "run_trial", no_trial)
        (tmp_path / "file").write_text("")
        with pytest.raises(NotADirectoryError):
            run_experiment(fast_config(out_dir=str(tmp_path / "file" / "out")))

    def test_failed_trial_marked_and_run_continues(self, tmp_path, monkeypatch):
        from srsct.errors import DivergenceError

        fail_trial(monkeypatch, 11, DivergenceError("forced failure"))
        report = run_experiment(fast_config(out_dir=str(tmp_path)))
        assert report.n_failed == 1
        statuses = [t.status for t in report.trials]
        assert statuses == ["failed", "ok"]
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[1].startswith("11,nan,nan,") and lines[1].endswith("failed")
        # aggregate uses only the successful trials
        assert report.mean_rec_err == report.trials[1].rec_err


class TestSweep:
    def test_scaled_scan_keeps_measurement_ratio(self):
        base = fast_config()
        for side in (64, 128, 256, 512):
            cfg = sweep_config(base, side)
            n_angles = len(parse_angles(cfg.angles))
            rate = cfg.detector_pixels * n_angles / cfg.grid_side ** 2
            assert rate == pytest.approx(0.667, abs=2e-3)
        assert sweep_config(base, 128).detector_pixels == 182
        assert sweep_config(base, 128).angles == "3.0:3.0:180"

    def test_rejects_other_sides(self):
        with pytest.raises(ValueError):
            sweep_config(fast_config(), 96)

    def test_sweep_runs_at_base_side(self, tmp_path):
        # grid side 64 is the smallest sweep point; single fast trial
        base = fast_config(trials=1, out_dir=str(tmp_path),
                           noise_level=0.05)
        report = run_experiment(sweep_config(base, 64))
        assert report.config.grid_side == 64
        assert (tmp_path / "n64" / "report.csv").exists()


class TestPgmWriter:
    def test_ascii_and_binary_agree(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((5, 7))
        write_pgm(tmp_path / "a.pgm", img, binary=False)
        write_pgm(tmp_path / "b.pgm", img, binary=True)
        text = (tmp_path / "a.pgm").read_text("ascii").split()
        ascii_vals = np.array(text[4:], dtype=np.uint16)
        raw = (tmp_path / "b.pgm").read_bytes()
        header_end = raw.index(b"65535\n") + len(b"65535\n")
        binary_vals = np.frombuffer(raw[header_end:], dtype=">u2")
        np.testing.assert_array_equal(ascii_vals, binary_vals.astype(np.uint16))

    def test_negative_values_clip_to_zero(self, tmp_path):
        write_pgm(tmp_path / "c.pgm", np.array([[-1.0, 1.0]]))
        vals = (tmp_path / "c.pgm").read_text().split()[4:]
        assert vals == ["0", "65535"]


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        code = main(["run", "--phantom", "piecewise", "--n", "16",
                     "--trials", "1", "--seed", "3", "--noise", "0.02",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert "rec_err=" in capsys.readouterr().out

    def test_run_with_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "phantom = piecewise\ngrid_side = 16\ndetector_pixels = 23\n"
            "angles = 15:15:180\ntrials = 1\nnoise_level = 0.0\n"
            f"out_dir = {tmp_path / 'out'}\nouter_max = 5\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "report.csv").exists()

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("phantum = piecewise\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_non_integer_srs_threads_exit_one(self, monkeypatch, capsys):
        monkeypatch.setenv("SRS_THREADS", "abc")
        assert main(["run", "--phantom", "piecewise", "--n", "16", "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "SRS_THREADS" in err

    def test_missing_config_file_exit_one(self):
        assert main(["run", "--config", "/nonexistent/path.cfg"]) == 1

    def test_unknown_flag_exit_one(self):
        assert main(["run", "--does-not-exist", "1"]) == 1

    def test_bad_sides_exit_one(self, tmp_path):
        assert main(["sweep", "--sides", "", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command, regular_file, out", [
        (["run"], "file", "file/out"), (["sweep", "--sides", "64,128"], "n128", ".")],
        ids=["run-out-under-a-file", "sweep-point-is-a-file"])
    def test_unusable_out_exit_one_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                    command, regular_file, out):
        monkeypatch.setattr(exp, "run_trial", no_trial)
        (tmp_path / regular_file).write_text("")
        argv = command + ["--phantom", "smooth", "--trials", "1", "--out", str(tmp_path / out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("srs: configuration error: ")

    @pytest.mark.parametrize("args,cfg_line", [
        (["run", "--n", "8"], None),
        (["run", "--n", "1"], None),
        (["run", "--noise", "-1", "--n", "16"], None),
        (["sweep", "--sides", "100"], None),
        (["run"], "detector_pixels = 0"),
        (["run"], "angles = 0:6:180"),
        (["run"], "prior_sigma = 0"),
        (["run"], "angles = 0:1:inf"),
        (["run", "--n", "16"], "tv_weight = nan"),
        (["run", "--n", "16"], "outer_tol = nan"),
        (["run", "--n", "16"], "data_weight = inf"),
        (["run", "--n", "16"], "noise_level = nan"),
        (["run", "--n", "16"], "prior_sigma = nan"),
        (["run", "--n", "16"], "pgm_binary = ture"),
        (["run", "--n", "16"], f"angles = {OVERSIZE_ANGLES}"),
        (["run", "--n", "16", "--seed", "-1"], None),
    ], ids=["n8", "n1", "negative-noise", "sweep-side-100", "zero-detector-pixels",
            "zero-angle", "zero-prior-sigma", "infinite-angle-stop", "nan-tv-weight",
            "nan-outer-tol", "infinite-data-weight", "nan-noise", "nan-prior-sigma",
            "misspelled-bool", "too-many-angles", "negative-seed"])
    def test_bad_scan_settings_exit_one_before_any_trial(self, tmp_path, args, cfg_line):
        out = tmp_path / "out"
        argv = args + ["--trials", "1", "--out", str(out)]
        if cfg_line is not None:
            (tmp_path / "exp.cfg").write_text(cfg_line + "\n")
            argv += ["--config", str(tmp_path / "exp.cfg")]
        src = str(Path(sys.modules["srsct"].__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "srsct.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("srs: configuration error: "), run.stderr
        assert "Traceback" not in run.stderr
        assert not out.exists()

    # the small CLI run of the fault rule's tests: trials of seeds 3 and 4
    FAULT_ARGV = ["run", "--phantom", "piecewise", "--n", "16", "--trials", "2",
                  "--seed", "3", "--noise", "0.02"]

    @staticmethod
    def assert_first_trial_failed(out):
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[1].startswith("3,nan,nan,") and lines[1].endswith(",failed")

    def test_raising_trial_fails_with_traceback_and_exit_two(self, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.delenv("SRS_THREADS", raising=False)
        fail_trial(monkeypatch, 3, RuntimeError("forced fault"))
        assert main(self.FAULT_ARGV + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: forced fault" in err
        self.assert_first_trial_failed(tmp_path)
        assert (tmp_path / "report.csv").read_text().splitlines()[2].endswith(",ok")

    def test_killed_pool_worker_fails_its_trial_and_exit_two(self, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.setenv("SRS_THREADS", "2")
        # a pool of two on any host: run sequentially, seed 3 would kill pytest
        monkeypatch.setattr(parallel, "cores", lambda: 2)
        monkeypatch.setattr(exp, "run_trial", killed_at_seed_3)
        assert main(self.FAULT_ARGV + ["--out", str(tmp_path)]) == 2
        # seed 3's rerun alone dies too; seed 4's rerun, if the break cut it, is ok
        err = capsys.readouterr().err
        assert err.count("Traceback (most recent call last)") == 1
        assert err.count("BrokenProcessPool:") == 1
        self.assert_first_trial_failed(tmp_path)
        assert (tmp_path / "report.csv").read_text().splitlines()[2].endswith(",ok")

    def test_partial_failure_exit_two(self, monkeypatch):
        import srsct.cli as cli

        class Stub:
            config = fast_config()
            mean_rec_err = 0.1
            mean_seg_err = 0.1
            mean_seconds = 1.0
            n_failed = 1

        monkeypatch.setattr(cli, "run_experiment", lambda cfg: Stub())
        assert main(["run", "--phantom", "piecewise"]) == 2
