"""One pool job of every benchmark job kind, checked byte for byte.

Runs pool job 0 of each (workload, kind) pair of ``perfbench/jobgen.py``
through perfbench's own job runner and checks it against
``perfbench/digests.json`` (exit code, embedded report verdicts, SHA-256 of
the stdout), as ``bench/check_digests.py`` does for the whole pool.  Job
files go to the test's temporary directory; nothing under ``perfbench/`` is
written.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_run():
    # loaded by path, under a name of its own: bench/ has a run.py too
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perfbench = _perfbench_run()
KINDS = [
    (workload, kind)
    for workload, (kinds, _) in perfbench.jobgen.WORKLOADS.items()
    for kind in dict.fromkeys(kinds)
]


@pytest.fixture(scope="module")
def cli_and_digests():
    return perfbench.import_cli().main, perfbench.load_digests()


@pytest.mark.parametrize("workload, kind", KINDS, ids=[f"{w}/{k}" for w, k in KINDS])
def test_first_pool_job_matches_its_digest(workload, kind, cli_and_digests, tmp_path):
    main, digests = cli_and_digests
    pool_job = perfbench.jobgen.pool_job(workload, kind, 0)
    run = perfbench.run_cli(main, pool_job["job"], tmp_path / "job.json")
    assert perfbench.check_job(pool_job, run, digests) is None
