"""In-memory span tracing of imagewell's public functions, from outside.

``Tracer.installed()`` replaces each function in ``TRACED`` by a wrapper on
its module, so every call that goes through the module attribute (which is
how the CLI and the scenarios reach the layers below them) records a span:
name, start, end, parent span and job.  Spans stay in memory and are
written out once, at the end of the run.  Counters are read only from the
public return values and arguments, so they repeat exactly for the same
job list.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

from imagewell import cli
from imagewell import electrostatics as el
from imagewell import scenarios as sn
from imagewell import schrodinger as sc


def _count_series(counters, args, kwargs, result):
    counters["electrostatics.series_terms"] += result.terms_used


def _count_images(counters, args, kwargs, result):
    counters["electrostatics.images_terms"] += result.terms_used


def _count_quadrature(counters, args, kwargs, result):
    counters["electrostatics.quadrature_evals"] += result.terms_used


def _count_states(counters, args, kwargs, result):
    profile = args[0] if args else kwargs["profile"]
    counters["schrodinger.states"] += len(result)
    counters["schrodinger.grid_points"] += profile.grid_bohr.size


def _count_levitation_rows(counters, args, kwargs, result):
    counters["scenarios.levitation_rows"] += len(result)


def _count_rows(counters, args, kwargs, result):
    # render(cfg, header, rows, failed, meta)
    counters["cli.rows"] += len(args[2])
    counters["cli.rows_failed"] += len(args[3])


# layer -> [(function, counter hook or None)]
TRACED = {
    "electrostatics": (el, [
        ("potential_slab_series", _count_series),
        ("potential_slab_images", _count_images),
        ("potential_kernel_quadrature", _count_quadrature),
        ("slab_potential_curve", None),
        ("halfplane_potential_curve", None),
        ("plate_plate_curve", None),
    ]),
    "schrodinger": (sc, [
        ("solve_eigenstates", _count_states),
    ]),
    "scenarios": (sn, [
        ("halfline_profile", None),
        ("interval_profile", None),
        ("two_plate_spectrum", None),
        ("averaged_plate_plate", None),
        ("total_force", None),
        ("levitation_curve", _count_levitation_rows),
        ("schottky_gap_sweep", None),
        ("noble_film_sweep", None),
        ("effective_epsilon_curve", None),
    ]),
    "cli": (cli, [
        ("parse_args", None),
        ("render", _count_rows),
    ]),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, (_mod, fns) in TRACED.items() for fn, _ in fns)

COUNTER_NAMES = (
    "electrostatics.series_terms",
    "electrostatics.images_terms",
    "electrostatics.quadrature_evals",
    "schrodinger.states",
    "schrodinger.grid_points",
    "schrodinger.runtime_warnings",
    "scenarios.spectra_per_levitation_row",
    "cli.rows",
    "cli.rows_failed",
)

JOB_SPAN = "job"


class Tracer:
    """Spans are lists [name, start_ns, end_ns, parent_index, job]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._job = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self._job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        originals = []
        try:
            for layer, (module, fns) in TRACED.items():
                for fn_name, hook in fns:
                    fn = getattr(module, fn_name)
                    originals.append((module, fn_name, fn))
                    setattr(module, fn_name, self._wrap(f"{layer}.{fn_name}", fn, hook))
            yield self
        finally:
            for module, fn_name, fn in originals:
                setattr(module, fn_name, fn)

    @contextmanager
    def job(self, index: int):
        """Root span of one CLI invocation; its self time is the CLI glue."""
        self._job = index
        with self.span(JOB_SPAN):
            yield

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per traced function, plus the counters.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        self_ns = Counter()
        for i, (name, start, end, _parent, _job) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for name in COUNTER_NAMES:
            out[name] = self.counters[name]
        rows = self.counters["scenarios.levitation_rows"]
        out["scenarios.spectra_per_levitation_row"] = (
            self._spectra_under("scenarios.levitation_curve") / rows if rows else 0
        )
        return out

    def _spectra_under(self, ancestor: str) -> int:
        n = 0
        for name, _start, _end, parent, _job in self.spans:
            if name != "scenarios.two_plate_spectrum":
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            n += parent >= 0
        return n

    def write(self, path, extra: dict) -> None:
        doc = {
            **extra,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "job"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
