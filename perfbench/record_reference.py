"""Record the README examples' stdout into ``reference.json``.

    python3 perfbench/record_reference.py

The file was written once, at the commit that introduced the benchmark;
``checks.py`` compares every later run against it.  Re-record only for an
intended numeric change, and list that change and its size in CHANGES.md.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

from imagewell import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    stdout = {}
    for workload in run.WORKLOADS:
        for job in workloads.jobs(workload, 0, 0):
            if not job.readme:
                continue
            result = run.run_job(cli, job)
            if result.rc != 0:
                print(f"{job.name} exited {result.rc}", file=sys.stderr)
                return 1
            stdout[checks.reference_key(job.argv)] = result.stdout
    doc = {"commit": run.git_commit(), "stdout": stdout}
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
