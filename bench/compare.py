"""Compare two `suite.py` result files; reads them and writes nothing.

    python3 bench/compare.py BASE.json NEW.json

For each workload in both files and each metric, prints both medians
with their quartiles and the ratio NEW / BASE.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from suite import quartiles


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = (json.loads(Path(p).read_text())["workloads"] for p in argv)
    print(f"base = {argv[0]}, new = {argv[1]}")
    for workload in (w for w in base if w in new):
        print(f"== {workload}")
        for kind in ("end_to_end", "per_layer"):
            for name, metric in base[workload][kind].items():
                if name not in new[workload][kind]:
                    continue
                b = quartiles(metric["values"])
                n = quartiles(new[workload][kind][name]["values"])
                ratio = f"{n[1] / b[1]:.3f}x base" if b[1] else "base is 0"
                print(f"  {name:30s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                      f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  {metric['unit']}  {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
