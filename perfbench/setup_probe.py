"""Fresh-process set-up probe: import the CLI and generate the job list.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints the seconds from before ``import starquant.cli`` to after the job
list of WORKLOAD for SEED exists.  ``run.py`` starts it several times and
reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import starquant.cli  # noqa: E402,F401
import jobgen  # noqa: E402

jobgen.job_list(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
