"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

They check that the correctness gate counts every kind of failure, that the
exact counters of the traced run repeat exactly across processes with
different hash seeds, and that the benchmark refuses to run without the
package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import hostspeed
import jobgen
import run


def _runner(workload="small-jobs", seed=1):
    return run.Runner(workload, seed)


def test_job_list_depends_only_on_seed():
    a = jobgen.job_list("poly-lambda", 3)
    assert a == jobgen.job_list("poly-lambda", 3)
    assert [j["key"] for j in a] != [j["key"] for j in jobgen.job_list("poly-lambda", 4)]
    kinds = [j["key"].split("/")[1] for j in a]
    unit = jobgen.WORKLOADS["poly-lambda"][0]
    assert kinds == list(unit) * jobgen.WORKLOADS["poly-lambda"][1]


def test_host_clock_scales_by_samples_around_the_job(monkeypatch):
    taken = iter([0.010] * 5 + [0.020] * 8)
    monkeypatch.setattr(hostspeed, "sample", lambda: next(taken))
    monkeypatch.setattr(hostspeed, "SHARE", 0.05)
    monkeypatch.setattr(hostspeed, "WINDOW", 5)
    clock = hostspeed.HostClock()

    def factor(loop_s):
        return (hostspeed.REFERENCE_S / loop_s) ** hostspeed.SENSITIVITY

    # the first job gets the five samples the window needs
    assert clock.scale(0.1) == factor(0.010)
    # 5 % of 2 s less the 0.045 s sampled ahead: three samples after the
    # job, and the five before it still hold the median
    assert clock.scale(2.0) == factor(0.010)
    # five samples after the third job; only the eight around it count
    assert clock.scale(2.0) == factor(0.020)
    assert len(clock.samples) == 13


def test_every_pool_job_has_a_digest():
    digests = run.load_digests()
    for workload in jobgen.WORKLOADS:
        for pool_job in jobgen.all_pool_jobs(workload):
            assert pool_job["key"] in digests


def test_correct_job_passes():
    runner = _runner()
    runner.run(runner.jobs[5])  # a riccati job with an embedded oracle report
    assert runner.attempted == 1 and runner.failures == []


def test_corrupted_digest_is_a_failure():
    runner = _runner()
    pool_job = runner.jobs[0]
    runner.digests = dict(runner.digests, **{pool_job["key"]: "0" * 64})
    runner.run(pool_job)
    assert len(runner.failures) == 1
    assert "digest" in runner.failures[0]["reason"]


def test_wrong_expected_exit_code_is_a_failure():
    runner = _runner("poly-lambda")
    pool_job = next(j for j in runner.jobs if j["key"].startswith("poly-lambda/cyclic-jacobi"))
    assert pool_job["expect"]["exit"] == 1
    runner.run(pool_job)
    assert runner.failures == []
    runner.run(dict(pool_job, expect=dict(pool_job["expect"], exit=0)))
    assert len(runner.failures) == 1
    assert runner.failures[0]["reason"].startswith("exit code 1")


def test_wrong_report_verdict_is_a_failure():
    runner = _runner()
    pool_job = runner.jobs[5]
    wrong = {"exit": 0, "passed": {"result.oracle_check.pass": False}}
    runner.run(dict(pool_job, expect=wrong))
    assert "oracle_check" in runner.failures[0]["reason"]


def test_traceback_is_a_failure():
    runner = _runner()

    def broken(argv):
        raise KeyError("inputs")

    runner.run(runner.jobs[0], main=broken)
    assert runner.failures[0]["reason"].startswith("raised: KeyError")


_TRACE_SUBSET = """
import json, sys
sys.path.insert(0, {here!r})
import run
metrics = {{}}
for workload in ("starexp", "small-jobs"):
    runner = run.Runner(workload, 2)
    # one n=2 star-exp job (third of the unit), or the first small-jobs unit
    runner.jobs = runner.jobs[2:3] if workload == "starexp" else runner.jobs[:runner.unit]
    for name, m in runner.traced()[0].items():
        metrics[workload + ":" + name] = m
print(json.dumps(metrics))
"""


def _traced_subset(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    code = _TRACE_SUBSET.format(here=str(run.HERE))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=run.ROOT, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_exact_counters_repeat_across_processes():
    first, second = _traced_subset("1"), _traced_subset("2")
    counters = {name for name, m in first.items() if m["unit"] in ("count", "bits", "bytes")}
    assert "starexp:matrices.closed_form_calls" in counters
    assert first["starexp:matrices.closed_form_calls"]["value"] == 3
    assert first["starexp:star.top_order_terms"]["value"] > 0
    assert first["small-jobs:scalars.ops"]["value"] > 0
    for name in sorted(counters):
        assert first[name]["value"] == second[name]["value"], name
    for name in first:
        if name.endswith("trace.unattributed_s"):
            job_s = first[name.replace("unattributed_s", "job_s")]["value"]
            assert abs(first[name]["value"]) < 0.05 * job_s


def test_refuses_to_run_without_the_package():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cayley",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
