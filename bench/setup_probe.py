"""Set-up probe: one fresh process that does a workload's set-up and stops.

    python3 bench/setup_probe.py <workload> <seed>

It imports numpy, scipy and fgabloch, builds the workload's inputs (config
parsing and validation for the 1D workloads), prints ``ready`` and exits.
bench/run.py times this from process start to the ``ready`` line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
import fgabloch  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    configure, _ = workloads.WORKLOADS[sys.argv[1]]
    configure(int(sys.argv[2]))
    print("ready", flush=True)
