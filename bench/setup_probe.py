"""Time one workload set-up in a fresh interpreter and print the seconds.

    python3 bench/setup_probe.py WORKLOAD SEED [tiny]

Set-up is the import of the package, the workload's inputs (for
``stream_wide``: corpus generation, the serialize/parse round trip and the
initial states) and the warm-up.  Prints two numbers: the set-up time scaled
to the reference machine speed (``calibrate.py``, with the slowdown measured
right after the set-up), then the time as measured.  ``run.py`` starts this
several times and reports the median, so a one-off import cost in the
measuring process does not decide ``setup_s``.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

sizes = workloads.TINY if sys.argv[3:] == ["tiny"] else workloads.Sizes()
workload = workloads.WORKLOADS[sys.argv[1]](sizes)
workload.warm_up(workload.inputs(int(sys.argv[2])))
measured = time.perf_counter() - start

import calibrate  # noqa: E402

calibrate.kernel()  # the first call also warms the kernel's own code
print(measured / calibrate.slowdown(), measured)
