"""Summarize benchmark run records.

    python3 bench/summarize.py bench/.work/records/*.json [--out FILE]

Groups the records by workload and trace mode and prints, for every metric,
the number of runs, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``).  End-to-end metrics are flagged when
the spread is not below a third of the bound in ``BENCHMARK.json``
(``setup_s``, whose spread is not gated, excepted).  ``--out`` writes the
same summary as JSON, with each group's environment and the input digest of
every seed, so two summaries can be shown to have run on identical inputs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summarize(paths):
    groups: dict[str, dict] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        key = f"{record['workload']}/trace{record['trace']}"
        env = dict(record["environment"])
        seed = env.pop("seed")
        group = groups.setdefault(key, {"runs": 0, "failed_ops": 0, "environment": env,
                                        "input_digests": {}, "metrics": {}})
        group["input_digests"][seed] = record["input_digest"]
        group["runs"] += 1
        group["failed_ops"] += record["result"]["failed"]
        for name, m in record["result"]["metrics"].items():
            group["metrics"].setdefault(name, []).append(m["value"])
    out = {}
    for key, group in sorted(groups.items()):
        rows = {}
        for name, values in group["metrics"].items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {"n": len(values), "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0}
        out[key] = {"runs": group["runs"], "failed_ops": group["failed_ops"],
                    "environment": group["environment"],
                    "input_digests": dict(sorted(group["input_digests"].items())), "metrics": rows}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in json.loads(SPEC.read_text())["end_to_end"]}
    summary = summarize(args.records)
    steady = True
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, {group['failed_ops']} failed ops")
        for name, row in group["metrics"].items():
            flag = ""
            if name in bounds and name != "setup_s" and not row["spread"] < bounds[name] / 3:
                flag = f"  spread not below bound/3 = {bounds[name] / 3:.4f}"
                steady = False
            print(f"  {name:55s} n={row['n']:2d} median={row['median']:.6g} "
                  f"q1={row['q1']:.6g} q3={row['q3']:.6g} spread={row['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
