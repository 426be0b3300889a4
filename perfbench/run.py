"""starquant benchmark: closed-loop CLI jobs with end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

Each workload is one client running one job at a time in this process: a
fixed JSON job is written to a file and passed to ``starquant.cli.main``
with stdout captured, exactly as ``starquant --job FILE`` would run it.
Every job is checked (exit code, embedded report verdicts, SHA-256 of the
stdout against ``digests.json``); a traceback counts as a failed job.

A run makes whole passes over the seed's job list until ``--seconds`` are
used.  Each job time is scaled to a reference host speed by the reference
loop of ``hostspeed.py``, timed around the job, because the speed of a
shared host drifts by up to a factor of two within a run; a job counts
with the median of its passes.  The unscaled figures go to the record.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
the first units of the job list twice each, plain and traced, and reports
the per-layer metrics, the tracing overhead, and writes the spans to
``perfbench/out``.  The last stdout line is the result object; the line
before it records the environment and the job sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import jobgen  # noqa: E402

SETUP_PROBES = 15
# reference-loop samples after each set-up probe
SETUP_SAMPLES = 5
# units traced per --trace 1 run, sized to take a few seconds untraced
TRACE_UNITS = {"starexp": 1, "cayley": 6, "poly-lambda": 1, "small-jobs": 32}
# passes over the job list in every --trace 0 run, however long they take
MIN_PASSES = 3
# stop before a pass that would push the run past this many seconds
RUN_LIMIT_S = 150.0
# a tail percentile needs at least ten samples beyond it
P90_MIN_JOBS = 100


def import_cli():
    """Import ``starquant.cli`` from this checkout's ``src``, nowhere else."""
    package = SRC / "starquant"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no starquant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import starquant.cli

    if Path(starquant.__file__).resolve().parent != package:
        raise SystemExit(f"benchmark: imported starquant from {starquant.__file__}")
    return starquant.cli


def load_digests() -> dict:
    path = HERE / "digests.json"
    if not path.is_file():
        raise SystemExit(f"benchmark: missing {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


# --- one job ---------------------------------------------------------------------


def run_cli(main, job: dict, path: Path) -> dict:
    """Run one JSON job through ``main(["--job", path])``; time only the call."""
    path.write_text(json.dumps(job), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    error = None
    gc.collect()  # each CLI job normally starts in a fresh process
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--job", str(path)])
    except (Exception, SystemExit):  # a traceback is a failed job, never a crash
        code, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    path.unlink()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error, "seconds": elapsed}


def _lookup(payload, path: list) -> list:
    if not path:
        return [payload]
    head, rest = path[0], path[1:]
    if head == "*":
        items = payload if isinstance(payload, list) else []
        return [v for item in items for v in _lookup(item, rest)]
    if isinstance(payload, dict) and head in payload:
        return _lookup(payload[head], rest)
    return []


def check_job(pool_job: dict, run: dict, digests: dict) -> str | None:
    """The reason a job failed, or None when every check passes."""
    expect = pool_job["expect"]
    if run["error"] is not None:
        return "raised: " + run["error"].strip().splitlines()[-1]
    if run["code"] != expect["exit"]:
        return f"exit code {run['code']}, expected {expect['exit']}: {run['stderr'][:200]}"
    try:
        payload = json.loads(run["stdout"])
    except json.JSONDecodeError:
        return "stdout is not JSON"
    for path, want in expect["passed"].items():
        found = _lookup(payload, path.split("."))
        if not found or any(v is not want for v in found):
            return f"{path} is {found}, expected {want}"
    digest = hashlib.sha256(run["stdout"].encode("utf-8")).hexdigest()
    recorded = digests.get(pool_job["key"])
    if recorded is None:
        return "no recorded digest"
    if digest != recorded:
        return f"stdout digest {digest[:12]} differs from recorded {recorded[:12]}"
    return None


_INT = re.compile(r"\d+")


def coefficient_bits(payload) -> int:
    """Largest numerator or denominator bit length of any output coefficient
    (every scalar ``value`` string and every phase-matrix entry)."""
    best = 0

    def scan(text: str) -> None:
        nonlocal best
        for digits in _INT.findall(text):
            best = max(best, int(digits).bit_length())

    def walk(node, in_matrix: bool) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "value" and isinstance(value, str):
                    scan(value)
                else:
                    walk(value, in_matrix or key == "phase_matrix")
        elif isinstance(node, list):
            for item in node:
                walk(item, in_matrix)
        elif in_matrix and isinstance(node, str):
            scan(node)

    walk(payload, False)
    return best


# --- set-up --------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> tuple:
    """Median fresh-process set-up time, scaled and raw.

    The first probe only warms caches.  The reference loop runs between
    probes, and the median of all its samples scales the median probe.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times, samples = [], []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
        samples += [hostspeed.sample() for _ in range(SETUP_SAMPLES)]
    raw = statistics.median(times)
    return raw * hostspeed.factor(samples), raw


# --- the two kinds of run ------------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.unit = len(jobgen.WORKLOADS[workload][0])
        self.jobs = jobgen.job_list(workload, seed)
        self.digests = load_digests()
        self.cli = import_cli()
        OUT.mkdir(exist_ok=True)
        self.job_path = OUT / f"job-{os.getpid()}.json"
        self.attempted = 0
        self.failures = []
        # the harness's own long-lived objects stay out of every collection,
        # as they would be absent from a one-job CLI process
        gc.collect()
        gc.freeze()

    def run(self, pool_job: dict, main=None) -> dict:
        """Run and check one job; ``main`` replaces the CLI entry when tracing."""
        result = run_cli(main or self.cli.main, pool_job["job"], self.job_path)
        self.attempted += 1
        reason = check_job(pool_job, result, self.digests)
        if reason is not None:
            self.failures.append({"key": pool_job["key"], "reason": reason})
            print(f"FAILED {pool_job['key']}: {reason}", file=sys.stderr)
            if result["error"]:
                print(result["error"], file=sys.stderr)
        return result

    def closed_loop(self, seconds: float) -> tuple:
        """Whole passes over the job list, one job at a time.

        Runs at least ``MIN_PASSES`` passes, then stops before a pass that
        would end after ``seconds``.  Returns each job's times, raw and
        scaled to reference host speed, one per pass.
        """
        clock = hostspeed.HostClock()
        raw = [[] for _ in self.jobs]
        scaled = [[] for _ in self.jobs]
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for i, pool_job in enumerate(self.jobs):
                seconds_taken = self.run(pool_job)["seconds"]
                raw[i].append(seconds_taken)
                scaled[i].append(seconds_taken * clock.scale(seconds_taken))
            now = time.perf_counter()
            next_end = now - start + (now - pass_start)
            if next_end > RUN_LIMIT_S or (len(raw[0]) >= MIN_PASSES and next_end > seconds):
                return raw, scaled

    def traced(self) -> tuple:
        """Each job of the first units plain, then traced.

        Returns the per-layer metrics and the recorded spans.
        """
        from tracer import COUNTED, LAYERS, Tracer

        tracer = Tracer()
        plain_s = traced_s = 0.0
        out_bytes = max_bits = 0
        for pool_job in self.jobs[: TRACE_UNITS[self.workload] * self.unit]:
            plain_s += self.run(pool_job)["seconds"]
            tracer.install()
            try:
                # cli.main is looked up after install, so it is the wrapped one
                result = self.run(pool_job, lambda argv: tracer.run_job(
                    pool_job["key"], lambda: self.cli.main(argv)))
            finally:
                tracer.uninstall()
            traced_s += result["seconds"]
            out_bytes += len(result["stdout"].encode("utf-8"))
            if result["code"] in (0, 1):
                max_bits = max(max_bits, coefficient_bits(json.loads(result["stdout"])))

        metrics = {}

        def put(name, value, unit):
            metrics[name] = {"value": value, "unit": unit}

        sec = 1e-9
        put("scalars.ops", tracer.layer_calls("scalars"), "count")
        put("scalars.max_bits", max_bits, "bits")
        put("poly.max_terms", tracer.poly_max_terms, "count")
        put("star.top_order_terms", tracer.top_order_terms, "count")
        for layer in LAYERS:
            if layer != "scalars":
                put(f"{layer}.calls", tracer.layer_calls(layer), "count")
            put(f"{layer}.busy_s", tracer.busy_ns[layer] * sec, "s")
            put(f"{layer}.self_s", tracer.self_ns[layer] * sec, "s")
        for qual, name in COUNTED.items():
            put(name, tracer.count(qual), "count")
        for name, ns in tracer.inclusive_ns.items():
            put(name, ns * sec, "s")
        put("cli.out_bytes", out_bytes, "bytes")
        job_s = tracer.job_ns * sec
        put("trace.spans", len(tracer.spans), "count")
        put("trace.job_s", job_s, "s")
        put("trace.unattributed_s", job_s - sum(tracer.self_ns.values()) * sec, "s")
        put("trace.plain_job_s", plain_s, "s")
        put("trace.overhead_frac", traced_s / plain_s - 1.0, "frac")
        return metrics, tracer.spans


def environment(runner: Runner, seed: int) -> dict:
    from starquant.scalars import RAT_ONE

    backend = type(RAT_ONE)
    return {
        "python": platform.python_version(),
        "backend": f"{backend.__module__}.{backend.__name__}",
        "nproc": len(os.sched_getaffinity(0)),
        "workload": runner.workload,
        "seed": seed,
        "held_out_seed": jobgen.HELD_OUT_SEED,
        "job_list": len(runner.jobs),
        "unit": list(jobgen.WORKLOADS[runner.workload][0]),
        "sizes": {j["key"]: j["sizes"] for j in runner.jobs},
    }


def run_workload(args) -> int:
    runner = Runner(args.workload, args.seed)
    if not args.trace:
        setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    record = environment(runner, args.seed)
    if args.trace:
        metrics, spans = runner.traced()
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("# span_id parent_id job_span name start_ns end_ns\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        raw, scaled = runner.closed_loop(args.seconds)
        times = [statistics.median(t) for t in scaled]
        raw_times = [statistics.median(t) for t in raw]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        record["passes"] = len(raw[0])
        record["raw"] = {
            "setup_s": raw_setup_s,
            "jobs_per_s": len(raw_times) / sum(raw_times),
            "job_p50_s": statistics.median(raw_times),
        }
        if len(times) >= P90_MIN_JOBS:
            record["job_p90_s"] = statistics.quantiles(times, n=10)[-1]
    failed = len(runner.failures)
    record["failed_frac"] = failed / runner.attempted
    record["failures"] = runner.failures[:20]
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in jobgen.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload:12s} {name:30s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*jobgen.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
