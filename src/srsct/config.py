"""Solver and experiment configuration objects."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np


@dataclass
class SolverConfig:
    """All weights, penalties, tolerances and iteration caps in one place.

    Weights: `data_weight` multiplies the sinogram misfit, `tv_weight` the
    total variation of each membership column, `tikhonov_weight` the squared
    gradient of the reconstruction (the model-16 variant; model-9 forces it
    to zero). `tv_split_penalty` and `simplex_split_penalty` are the two
    quadratic penalties of the membership ADMM. All stopping rules are
    relative-change tests in the Frobenius norm over the full iterate.
    """

    data_weight: float = 1.0
    tv_weight: float = 1.0
    tikhonov_weight: float = 0.0
    tv_split_penalty: float = 1.0
    simplex_split_penalty: float = 1.0
    outer_tol: float = 1e-4
    outer_max: int = 200
    cgls_tol: float = 1e-4
    cgls_max: int = 100
    admm_tol: float = 1e-4
    admm_max: int = 50
    bregman_tol: float = 1e-2
    bregman_max: int = 200

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.data_weight <= 0:
            raise ValueError("data_weight must be positive")
        for name in ("tv_weight", "tikhonov_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("tv_split_penalty", "simplex_split_penalty",
                     "outer_tol", "cgls_tol", "admm_tol", "bregman_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("outer_max", "cgls_max", "admm_max", "bregman_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class ClassPrior:
    """Per-class Gaussian prior: means and strictly positive standard deviations."""

    means: np.ndarray
    std_devs: np.ndarray

    def __post_init__(self):
        self.means = np.atleast_1d(np.asarray(self.means, dtype=np.float64))
        self.std_devs = np.atleast_1d(np.asarray(self.std_devs, dtype=np.float64))
        if self.means.shape != self.std_devs.shape:
            raise ValueError("means and std_devs must have equal length")
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.std_devs))):
            raise ValueError("means and standard deviations must be finite")
        if np.any(self.std_devs <= 0):
            raise ValueError("standard deviations must be positive")

    @property
    def n_classes(self) -> int:
        return len(self.means)


VARIANTS = ("model-9", "model-16")

# Parameter sets that reproduce the reference experiments at 64x64.
_PIECEWISE_DEFAULTS = dict(
    noise_level=0.05, prior_sigma=0.1,
    data_weight=0.2, tv_weight=1.0, tikhonov_weight=1.0,
    tv_split_penalty=1.0, simplex_split_penalty=2.0,
)
_SMOOTH_DEFAULTS = dict(
    noise_level=0.01, prior_sigma=0.05,
    data_weight=123.0, tv_weight=0.55, tikhonov_weight=35.0,
    tv_split_penalty=0.6, simplex_split_penalty=0.6,
)


@dataclass
class ExperimentConfig:
    """One experiment: phantom, scan geometry, noise, trials and solver knobs."""

    phantom: str = "piecewise"
    grid_side: int = 64
    detector_pixels: int = 91
    angles: str = "6:6:180"
    noise_level: float = 0.05
    trials: int = 1
    seed: int = 0
    variant: str = "model-16"
    out_dir: str | None = None
    prior_sigma: float = 0.1
    pgm_binary: bool = False
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.phantom not in ("piecewise", "smooth"):
            raise ValueError(f"unknown phantom kind {self.phantom!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        parse_angles(self.angles)  # rejects a malformed or empty spec


# Most angles a scan may have: one per 0.05 degrees over 180, 15 times the
# 240 of the 512 sweep scan. Checked before a spec is expanded.
MAX_ANGLES = 3600


def parse_angles(spec: str) -> list[float]:
    """Expand a `start:step:stop` degree spec into an inclusive angle list
    of at most MAX_ANGLES angles; the count is checked before expanding."""
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ValueError(f"angle spec {spec!r} must be start:step:stop")
    start, step, stop = (float(x) for x in parts)
    if not np.all(np.isfinite((start, step, stop))):
        raise ValueError(f"angle spec {spec!r} must be finite")
    if step <= 0:
        raise ValueError("angle step must be positive")
    count = np.floor((stop - start) / step + 1e-9) + 1  # a float, inf for a tiny step
    if count < 1:
        raise ValueError(f"angle spec {spec!r} yields no angles")
    if count > MAX_ANGLES:
        raise ValueError(f"angle spec {spec!r} yields more than {MAX_ANGLES} angles")
    return [start + step * k for k in range(int(count))]


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse_bool(value: str) -> bool:
    """1/0, true/false, yes/no or on/off, in any case; anything else is an error."""
    try:
        return _BOOLS[value.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean (1/0, true/false, yes/no, on/off), "
                         f"got {value!r}") from None


# Config keys are the dataclass fields; each parses from its file string by
# its annotated type (a string here, as annotations are postponed).
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str, "str | None": str}
_KEY_PARSERS = {f.name: _PARSERS[f.type]
                for f in fields(ExperimentConfig) + fields(SolverConfig)
                if f.name != "solver"}


def parse_config_file(path) -> dict:
    """Read a flat `key = value` file with `#` comments into a raw dict."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            raw[key] = value
    return raw


def build_experiment_config(file_values: dict | None = None,
                            overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults, config-file values and CLI overrides, in that order.

    Phantom-specific defaults (noise, prior sigma, solver weights) apply
    unless explicitly set in the file or on the command line.
    """
    merged: dict = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in _KEY_PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _KEY_PARSERS[key](value) if isinstance(value, str) else value

    phantom = merged.get("phantom", "piecewise")
    defaults = _PIECEWISE_DEFAULTS if phantom == "piecewise" else _SMOOTH_DEFAULTS
    for key, value in defaults.items():
        merged.setdefault(key, value)

    solver = SolverConfig(**{f.name: merged.pop(f.name)
                             for f in fields(SolverConfig) if f.name in merged})
    return ExperimentConfig(solver=solver, **merged)
