"""One set-up, as ``setup_s`` times it.

    python3 perfbench/setup_once.py <workload> <seed> <dir>

Imports ``qthermo.cli`` and builds the workload's inputs in this fresh
interpreter while sampling the host speed, then prints the host-speed scale
for the parent process to apply to the wall time it measured.
"""

import sys

from hostspeed import HostSpeed

with HostSpeed() as speed:
    import workloads

    if len(sys.argv) != 4 or sys.argv[1] not in workloads.WORKLOADS:
        sys.exit(f"usage: setup_once.py {{{','.join(workloads.WORKLOADS)}}} "
                 "SEED DIR")
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
print(speed.scale())
