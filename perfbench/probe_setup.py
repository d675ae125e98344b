"""Set-up probe, run in a fresh process: import the CLI, then generate one
workload's inputs, which is what every CLI call of the workload pays first.

    python3 perfbench/probe_setup.py WORKLOAD SEED QUICK(0|1) DIRECTORY

run.py starts it with ``src`` and ``perfbench`` on PYTHONPATH and times it.
"""

import sys
from pathlib import Path


def main(argv) -> int:
    workload, seed, quick, directory = argv
    import sampstab.cli  # noqa: F401  (the import is what is being timed)
    import workloads

    workloads.make_inputs(workload, int(seed), quick == "1", Path(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
