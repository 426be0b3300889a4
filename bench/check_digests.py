"""Check every perfbench pool job's stdout against ``perfbench/digests.json``.

Usage: python3 bench/check_digests.py

Runs each pool job of every workload through this checkout's
``starquant.cli.main``, with perfbench's own job runner and checks (exit
code, embedded report verdicts, SHA-256 of the stdout).  Prints each
mismatch and the number of jobs checked; exits 1 on any mismatch.  Job
files go to a temporary directory; nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_run():
    # loaded by path: this directory has a run.py of its own
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    perfbench = _perfbench_run()
    main_fn = perfbench.import_cli().main
    digests = perfbench.load_digests()
    checked = bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        job_path = Path(tmp) / "job.json"
        for workload in perfbench.jobgen.WORKLOADS:
            for pool_job in perfbench.jobgen.all_pool_jobs(workload):
                run = perfbench.run_cli(main_fn, pool_job["job"], job_path)
                reason = perfbench.check_job(pool_job, run, digests)
                checked += 1
                if reason is not None:
                    bad += 1
                    print(f"{pool_job['key']}: {reason}")
    print(f"{checked} pool jobs checked, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
