"""Count which starquant functions and lines perfbench's jobs run.

Usage: python3 bench/traffic.py [--workload W ...] [--seed N] > FILE

Runs each workload's pool jobs (every workload by default), or with
``--seed`` that seed's job list, through this checkout's
``starquant.cli.main``, with ``bench/check_digests.py``'s job loop over
perfbench's own job runner and checks.  A ``sys.settrace`` hook that sees
only this checkout's ``src/starquant`` counts the calls of each function
and records each line that runs.  It prints one JSON object:

* ``calls``: per workload, the call count of each function, keyed by
  ``module.qualname``; a generator counts once however often it resumes,
  a cached call that never enters the function counts nothing, and the
  comprehensions of a function count under ``<locals>.<listcomp>`` and
  the like;
* ``unreached``: per module, the executable lines of its functions that no
  traced job reached (module and class bodies run at import, before any
  job, so they are left out).

Each failed job is printed to stderr, and the exit status is 1 if any
traced job fails its check.  Job files go to a temporary directory;
nothing under ``perfbench/`` is written.
Line tracing makes each job several times slower than untraced.  Needs
Python 3.11 or later, for ``co_qualname`` and the RESUME instruction.
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import importlib.util
import inspect
import json
import os
import sys
from collections import Counter
from pathlib import Path

if sys.version_info < (3, 11):
    raise SystemExit("bench/traffic.py needs Python 3.11 or later")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starquant"
# a generator's call event at RESUME enters it when the low two bits of
# the oparg are 0 and resumes it otherwise; one at any other instruction
# throws into it, as closing it does
_RESUME = dis.opmap["RESUME"]


# the shared job loop, loaded by path as this file is
_spec = importlib.util.spec_from_file_location(
    "check_digests", Path(__file__).resolve().parent / "check_digests.py"
)
check_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_digests)


def _functions(code):
    """Every function code object nested in ``code``."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def executable_lines(path: Path) -> set:
    """The line numbers of the instructions of every function in a file."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    return {line for f in _functions(code) for _, _, line in f.co_lines() if line is not None}


class Traffic:
    """A trace function that counts calls into :data:`PACKAGE` per name
    in ``calls`` and collects the lines run per module in ``reached``."""

    def __init__(self):
        self.calls = Counter()
        self.reached: dict = {}
        self._seen: dict = {}  # code -> (name, lines, local tracer, bytecode) or None
        self._root = str(PACKAGE) + os.sep

    def _entry(self, code):
        if not code.co_filename.startswith(self._root):
            return None
        module = Path(code.co_filename).stem
        lines = self.reached.setdefault(module, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        generator = code.co_flags & (inspect.CO_GENERATOR | inspect.CO_ASYNC_GENERATOR)
        return f"{module}.{code.co_qualname}", lines, local, code.co_code if generator else None

    def __call__(self, frame, event, arg):
        code = frame.f_code
        try:
            entry = self._seen[code]
        except KeyError:
            entry = self._seen[code] = self._entry(code)
        if entry is None:
            return None
        name, lines, local, bytecode = entry
        at = frame.f_lasti
        if bytecode is None or bytecode[at] == _RESUME and not bytecode[at + 1] & 3:
            self.calls[name] += 1
        lines.add(frame.f_lineno)
        return local


def traffic(workloads, seed: int | None = None) -> tuple:
    """({"calls", "unreached"}, failures): the traced pool jobs, or the
    seed's job lists, of ``workloads``, and a (key, reason) per failed job.
    The trace function in place before each job is put back after it."""
    calls: dict = {}
    failures = []
    tracer = Traffic()

    @contextlib.contextmanager
    def tracing():
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            yield
        finally:
            sys.settrace(previous)

    for workload in workloads:
        tracer.calls = Counter()
        for key, reason in check_digests.checked_jobs(workload, seed, tracing):
            if reason is not None:
                failures.append((key, reason))
        calls[workload] = dict(sorted(tracer.calls.items()))
    unreached = {
        path.stem: sorted(executable_lines(path) - tracer.reached.get(path.stem, set()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    return {"calls": calls, "unreached": unreached}, failures


def main(argv=None) -> int:
    workloads = list(check_digests._perfbench_run().jobgen.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=workloads, default=workloads,
                    help="workloads to trace")
    ap.add_argument("--seed", type=int, help="trace this seed's job list, not the pool")
    args = ap.parse_args(argv)
    report, failures = traffic(args.workload, args.seed)
    print(json.dumps(report, indent=1))
    for key, reason in failures:
        print(f"{key}: {reason}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
