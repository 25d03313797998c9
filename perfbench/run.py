"""imagewell benchmark: batch CLI jobs, end-to-end and per layer.

    python3 perfbench/run.py --workload plates --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: ``imagewell.cli.main(argv)`` runs in
process and each job starts only after the previous one returns.  Numeric
library threads are pinned to 1 before numpy is imported.

The job list of a run is fixed by workload, seed and ``--seconds`` (see
``workloads.jobs``): it is sized to take ``--seconds`` at the commit that
introduced the benchmark, and every later commit runs the same list.

``--trace 0`` runs the list once and reports the end-to-end metrics.
Set-up time is the median over fresh interpreters, measured before the
jobs.

``--trace 1`` takes the list for half of ``--seconds``, runs it once
untraced and once with every public layer function wrapped, and reports
calls and self time per function, the work counters (which repeat exactly
for a given seed) and the tracing overhead: traced wall time minus untraced
wall time.  Spans are written to ``perfbench/out/``.

Both modes check the outputs after the timed region (see ``checks.py``)
and print, before the result line, one JSON line with the environment and
the details behind the metrics.  The last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import os

THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOADS = ("potential", "surface", "plates", "levitate")

SETUP_REPEATS = 5
ORACLE_SAMPLE = 4

_FLAGGED_ROW = re.compile(r"^imagewell \w+: row (\d+) failed:", re.MULTILINE)


@dataclass
class Result:
    job: object
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    runtime_warnings: int = 0

    @property
    def produced(self) -> int:
        return max(self.stdout.count("\n") - 1, 0)

    def flagged_rows(self) -> set[int]:
        if self.rc not in (0, 1) or self.produced != self.job.rows:
            return set(range(self.job.rows))
        return {int(m) for m in _FLAGGED_ROW.findall(self.stderr)}


def run_job(cli, job, record_warnings: bool = False) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        caught = None
        if record_warnings:
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        t0 = time.perf_counter()
        rc = cli.main(list(job.argv))
        wall = time.perf_counter() - t0
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught) if caught else 0
    return Result(job, rc, out.getvalue(), err.getvalue(), wall, n_warn)


# ---------------------------------------------------------------------------
# Set-up time and environment


def measure_setup() -> list[float]:
    """Spawn-to-ready time of fresh interpreters running ``setup_probe.py``."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return samples


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in an export that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_pinning": THREAD_PINNING,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Correctness gate


def check(workload: str, seed: int, results: list[Result]) -> dict[int, set[int]]:
    """Rows failing a correctness check, by job index."""
    import numpy as np

    import checks

    reference = checks.load_reference()
    bad: dict[int, set[int]] = {}
    candidates = []
    for i, r in enumerate(results):
        if r.produced != r.job.rows:
            continue  # already counted as flagged
        rows: set[int] = set()
        if r.job.readme:
            rows |= checks.reference_bad_rows(r.stdout, reference[checks.reference_key(r.job.argv)])
        if workload == "potential":
            rows |= checks.potential_bad_rows(r.job.argv, r.stdout)
        else:
            candidates += [(i, u) for u in range(checks.spectrum_units(r.job.argv, r.stdout))]
        if workload == "levitate":
            rows |= checks.levitate_bad_rows(r.job.argv, r.stdout)
        if rows:
            bad[i] = rows
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(len(candidates), min(ORACLE_SAMPLE, len(candidates)), replace=False) \
        if candidates else []
    for k in sorted(picks):
        i, unit = candidates[k]
        rows = checks.oracle_bad_rows(results[i].job.argv, results[i].stdout, [unit])
        if rows:
            bad.setdefault(i, set()).update(rows)
    return bad


def tally(results, bad) -> tuple[int, int]:
    attempted = sum(r.job.rows for r in results)
    failed = sum(len(r.flagged_rows() | bad.get(i, set())) for i, r in enumerate(results))
    return attempted, failed


def stdout_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.stdout.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Modes


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 jobs beyond it: (value,
    percentile, jobs beyond).  Below 20 jobs that percentile would fall
    under the median, so the maximum is reported instead, with 0 beyond."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(cli, workloads, workload: str, seed: int, seconds: float):
    setup = measure_setup()
    jobs = workloads.jobs(workload, seed, seconds)
    t0, c0 = time.perf_counter(), time.process_time()
    results = [run_job(cli, job) for job in jobs]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad = check(workload, seed, results)
    cheapest = min(range(len(results)), key=lambda i: results[i].wall_s)
    if run_job(cli, results[cheapest].job).stdout != results[cheapest].stdout:
        bad[cheapest] = set(range(results[cheapest].job.rows))
    attempted, failed = tally(results, bad)
    rows = sum(r.produced for r in results)
    walls = [r.wall_s for r in results]
    tail_s, tail_pct, beyond = tail(walls)
    metrics = {
        "rows_per_s": (rows / wall, "1/s"),
        "cpu_s_per_row": (cpu / max(rows, 1), "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_s, "s"),
        "row_ok_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    details = {
        "jobs": len(results),
        "rows": rows,
        "wall_s": wall,
        "cpu_s": cpu,
        "tail_percentile": tail_pct,
        "tail_jobs_beyond": beyond,
        "setup_samples_s": setup,
        "readme_job_wall_s": {" ".join(r.job.argv): r.wall_s for r in results if r.job.readme},
        "rerun_job": " ".join(results[cheapest].job.argv),
        "check_failed_rows": {results[i].job.name: sorted(v) for i, v in bad.items()},
        "stdout_sha256": stdout_digest(results),
    }
    return metrics, details, attempted, failed, not bad


def per_layer(cli, workloads, workload: str, seed: int, seconds: float):
    from tracing import Tracer

    jobs = workloads.jobs(workload, seed, seconds / 2)
    # Each job runs untraced, then traced, back to back, so the overhead
    # compares the two under the same machine load.
    tracer = Tracer()
    plain, traced = [], []
    for i, job in enumerate(jobs):
        plain.append(run_job(cli, job))
        with tracer.installed(), tracer.job(i):
            traced.append(run_job(cli, job, record_warnings=True))
    plain_wall = sum(r.wall_s for r in plain)
    traced_wall = sum(r.wall_s for r in traced)
    tracer.counters["schrodinger.runtime_warnings"] = sum(r.runtime_warnings for r in traced)

    bad = check(workload, seed, traced)
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a.stdout != b.stdout:
            bad[i] = set(range(a.job.rows))
    attempted, failed = tally(traced, bad)
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = traced_wall - plain_wall
    metrics = {
        name: (v, "s" if name.endswith("_s") else "count/row" if name.endswith("_row") else "count")
        for name, v in values.items()
    }
    details = {
        "jobs": len(jobs),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "check_failed_rows": {traced[i].job.name: sorted(v) for i, v in bad.items()},
        "stdout_sha256": stdout_digest(traced),
        "spans": len(tracer.spans),
    }
    out = OUT_DIR / f"trace-{workload}-{seed}.json"
    tracer.write(out, {"workload": workload, "seed": seed,
                       "jobs": [" ".join(j.argv) for j in jobs], "metrics": values})
    details["trace_file"] = str(out.relative_to(ROOT))
    return metrics, details, attempted, failed, not bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    if not (SRC / "imagewell" / "__init__.py").is_file():
        print(f"run.py: no imagewell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from imagewell import cli
    from setup_probe import WARMUP

    import workloads

    for warm in WARMUP:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(warm))

    if args.trace:
        metrics, details, attempted, failed, correct = per_layer(
            cli, workloads, args.workload, args.seed, args.seconds)
    else:
        metrics, details, attempted, failed, correct = end_to_end(
            cli, workloads, args.workload, args.seed, args.seconds)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, **details, "environment": environment()}
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
