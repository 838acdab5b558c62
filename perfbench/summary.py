"""Median and quartiles of every metric over the results in perfbench/out/.

    python3 perfbench/summary.py [--trace 0|1]

Reads the JSON copies that run.py leaves in perfbench/out/ and prints, per
workload and metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, over all seeds found.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    values = defaultdict(lambda: defaultdict(list))
    runs = defaultdict(int)
    for path in sorted(OUT.glob(f"*-trace{args.trace}.json")):
        result = json.loads(path.read_text())
        runs[result["workload"]] += 1
        for name, metric in result["metrics"].items():
            values[result["workload"]][(name, metric["unit"])].append(metric["value"])
    for workload, metrics in values.items():
        print(f"{workload} ({runs[workload]} runs)")
        for (name, unit), vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:40s} {med:12.4f} {unit:6s} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {spread:6.3f}")


if __name__ == "__main__":
    main()
