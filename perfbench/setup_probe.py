"""Set-up time of one workload in a fresh interpreter.

Times ``import contestlab`` plus building every spec of the workload
(``parse_sf``, family builders, ``automaton_from_dict``) and prints the
host-adjusted seconds (``hostspeed``) and the wall seconds.  ``run.py``
starts it with ``PYTHONPATH`` pointing at ``src``:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

from instances import make_items


def main() -> int:
    items = make_items(sys.argv[1], int(sys.argv[2]))
    start = time.perf_counter()
    import workloads

    for item in items:
        workloads.build(item)
    wall = time.perf_counter() - start
    # imported only now: the reference uses numpy, whose import is part of set-up
    from hostspeed import factor, reference_s

    print(repr(wall * factor(reference_s())), repr(wall))
    return 0


if __name__ == "__main__":
    sys.exit(main())
