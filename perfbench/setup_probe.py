"""Set up one workload in a fresh interpreter, print ``ready``, then tear down.

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` times this from process start to the ``ready`` line to get
``setup_s``: imports, configs, rule tables and, for ``serve_loop``, the
server subprocess up to its answer to ``hello``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = WORKLOADS[name](seed, HERE / ".work")
    try:
        print("ready", flush=True)
    finally:
        workload.close()
