"""Summarise or compare result files written by ``run.py --save``.

    python3 perfbench/compare.py runs.jsonl              # medians and spreads
    python3 perfbench/compare.py parent.jsonl change.jsonl

For each workload and metric it prints the median over the saved runs and the
spread, which is the distance between the first and third quartiles as a share
of the median.  With two files it also prints the change of the median and
judges each end-to-end metric against its bound in ``BENCHMARK.json``.  Files
whose runs come from different environments (Python version, processor
count, enumeration kernel) are refused: their numbers are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}


def load(path: str) -> tuple[dict, dict]:
    """(environment, {(workload, metric): [values]}) of one result file."""
    envs, values = set(), defaultdict(list)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        envs.add(json.dumps(record["env"], sort_keys=True))
        if not record["result"]["correct"]:
            print(f"{path}: a {record['workload']} run with seed {record['seed']} was not correct")
        for name, metric in record["result"]["metrics"].items():
            if metric["value"] is not None:
                values[(record["workload"], name)].append(metric["value"])
    if len(envs) != 1:
        sys.exit(f"{path}: runs from more than one environment: {sorted(envs)}")
    return json.loads(envs.pop()), values


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main(argv: list[str]) -> None:
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    loaded = [load(path) for path in argv]
    if len(loaded) == 2 and loaded[0][0] != loaded[1][0]:
        sys.exit(f"refusing to compare: environments differ: {loaded[0][0]} vs {loaded[1][0]}")
    print(f"environment {json.dumps(loaded[0][0])}")
    base = loaded[0][1]
    for key in base:
        workload, name = key
        median, share = spread(base[key])
        bound, better = BOUNDS.get(name, (None, None))
        line = f"{workload:15s} {name:26s} n={len(base[key]):2d} median={median:<12.6g} spread={share:6.1%}"
        if bound is not None:
            line += f" (bound {bound:.0%}{', too wide' if share > bound else ''})"
        if len(loaded) == 2 and loaded[1][1].get(key):
            new_median, new_share = spread(loaded[1][1][key])
            change = (new_median - median) / abs(median) if median else 0.0
            line += f" | new median={new_median:<12.6g} spread={new_share:6.1%} change={change:+.1%}"
            if bound is not None:
                worse = change > bound if better == "lower" else change < -bound
                unresolved = max(share, new_share) > bound
                line += " WORSE" if worse else " unresolved" if unresolved else " within bound"
        print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
