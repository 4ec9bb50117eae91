"""In-memory span tracing of calls into the srsct package.

A `Tracer` replaces functions at the module attributes through which the
solver, the harness and the benchmark call them (for example
`srsct.solver.tv_prox` or `srsct.kernels.apply`), so the package itself is
not edited. Each call becomes a span: name, start, end, parent span, the
benchmark operation it belongs to, and a few numbers read from the call's
result (iteration counts and stopping residuals). Spans stay in
memory until `write` is called when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

from checks import CheckFailed


def _info_attrs(result):
    # (value, info) pairs: keep the scalar entries of the info dict
    info = result[1]
    return {k: v for k, v in info.items() if isinstance(v, (int, float))}


def _result_attrs(result):
    return {"iterations": result.iterations}


# (module, attribute, span name, attribute extractor). One span name may be
# wrapped at several attributes: the solver, the kernels and the harness
# each hold their own reference to `apply`.
TRACE_POINTS = [
    ("srsct.geometry", "build_parallel_geometry", "geometry.build", None),
    ("srsct.experiment", "build_parallel_geometry", "geometry.build", None),
    ("srsct.geometry", "apply", "geometry.apply", None),
    ("srsct.kernels", "apply", "geometry.apply", None),
    ("srsct.solver", "apply", "geometry.apply", None),
    ("srsct.experiment", "apply", "geometry.apply", None),
    ("srsct.geometry", "add_noise", "geometry.add_noise", None),
    ("srsct.experiment", "add_noise", "geometry.add_noise", None),
    ("srsct.solver", "solve_reconstruction", "kernels.cgls", _info_attrs),
    ("srsct.solver", "tv_prox", "kernels.tv_prox", _info_attrs),
    ("srsct.solver", "update_coupling", "kernels.coupling", None),
    ("srsct.solver", "normalize_to_simplex", "kernels.simplex", None),
    ("srsct.solver", "update_responsibilities", "kernels.responsibilities", None),
    ("srsct.solver", "marginal_energy", "solver.marginal_energy", None),
    ("srsct.solver", "joint_energy", "solver.joint_energy", None),
    ("srsct.solver", "solve_membership_subproblem", "solver.admm", _info_attrs),
    ("srsct.solver", "reconstruct_and_segment", "solver.solve", _result_attrs),
    ("srsct.experiment", "reconstruct_and_segment", "solver.solve", _result_attrs),
    ("srsct.experiment", "run_trial", "experiment.run_trial", None),
    ("srsct.experiment", "run_experiment", "experiment.run_experiment", None),
    ("srsct.cli", "run_experiment", "experiment.run_experiment", None),
    ("srsct.pgm", "write_pgm", "pgm.write", None),
    ("srsct.experiment", "write_pgm", "pgm.write", None),
]


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None          # index of the benchmark operation under way
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, attrs):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.update(attrs(result))
            return result
        return traced

    def install(self, points=TRACE_POINTS) -> None:
        """Wrap every trace point. A point whose module attribute no longer
        exists fails the run, rather than reading 0 in its metrics."""
        for module_name, attr, name, attrs in points:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                raise CheckFailed(f"trace point {module_name}.{attr} not found")
            setattr(module, attr, self._wrap(original, name, attrs))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def write(self, path, child_spans=()) -> None:
        """Write this process's spans and, per operation, the spans that a
        traced child process returned."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "child_spans": list(child_spans)}, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]
