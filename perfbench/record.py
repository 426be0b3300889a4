"""Record the stdout digest of every pool job into ``digests.json``.

Usage: python3 perfbench/record.py [WORKLOAD ...]

Run only at a commit whose outputs are trusted.  A digest is written only
for a job whose exit code and embedded report verdicts match what
``jobgen`` expects from the mathematics of its input; any mismatch aborts
without writing.  Later runs then require byte-identical stdout.
"""

import hashlib
import json
import platform
import sys

from run import HERE, OUT, check_job, import_cli, run_cli

import jobgen


def main(argv) -> int:
    workloads = argv or list(jobgen.WORKLOADS)
    main_fn = import_cli().main
    from starquant.scalars import RAT_ONE

    path = HERE / "digests.json"
    data = {"digests": {}}
    if path.is_file():
        data = json.loads(path.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    job_path = OUT / "record-job.json"
    bad = 0
    for workload in workloads:
        for pool_job in jobgen.all_pool_jobs(workload):
            result = run_cli(main_fn, pool_job["job"], job_path)
            digest = hashlib.sha256(result["stdout"].encode("utf-8")).hexdigest()
            reason = check_job(pool_job, result, {pool_job["key"]: digest})
            if reason is not None:
                bad += 1
                print(f"{pool_job['key']}: {reason}", file=sys.stderr)
            data["digests"][pool_job["key"]] = digest
        print(f"{workload}: recorded", file=sys.stderr)
    if bad:
        print(f"{bad} jobs do not match their expected verdicts; nothing written",
              file=sys.stderr)
        return 1
    backend = type(RAT_ONE)
    data["recorded_with"] = {
        "python": platform.python_version(),
        "backend": f"{backend.__module__}.{backend.__name__}",
    }
    data["digests"] = dict(sorted(data["digests"].items()))
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
