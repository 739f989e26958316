"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds 25]
                                [--trace 0|1] [--out results.jsonl]
    python3 perfbench/spread.py --compare first.jsonl second.jsonl

For every workload and seed it runs perfbench/run.py once, one run at a
time, and keeps the result line (appended to --out when given).  It then
prints, per workload and metric, the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
with the failed share of the operations.  --compare reads two such
files and prints, per workload and metric, both medians and how much
worse either is than the other, against the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results: dict) -> None:
    for workload, runs in results.items():
        shares = sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in runs})
        print("%s: %d runs, correct %s, failed/attempted %s"
              % (workload, len(runs), all(r["correct"] for r in runs), " ".join(shares)))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print("  %-42s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                  % (name, med, q1, q3, spread))


def load(path: str) -> dict:
    results = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            results.setdefault(record["workload"], []).append(record["result"])
    return results


def compare(first: dict, second: dict) -> None:
    """Medians of two sets; a set is worse than the other by (worse - better) / better."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    for workload, runs in first.items():
        other = second.get(workload, [])
        if not other:
            continue
        print("%s: %d and %d runs" % (workload, len(runs), len(other)))
        for name in runs[0]["metrics"]:
            a = statistics.median(r["metrics"][name]["value"] for r in runs)
            b = statistics.median(r["metrics"][name]["value"] for r in other)
            worse = abs(a - b) / min(a, b) if min(a, b) > 0 else 0.0
            bound = bounds.get(name)
            verdict = "" if bound is None else ("within %.2f" % bound if worse <= bound
                                                else "OUTSIDE %.2f" % bound)
            print("  %-42s %-12.6g %-12.6g worse by %.4f %s" % (name, a, b, worse, verdict))


def main() -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar="JSONL")
    args = p.parse_args()
    if args.compare:
        compare(load(args.compare[0]), load(args.compare[1]))
        return 0
    results = {}
    for workload in args.workloads.split(","):
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                print("%s seed %d: exit code %d" % (workload, seed, proc.returncode),
                      file=sys.stderr)
                return 1
            line = proc.stdout.strip().splitlines()[-1]
            results.setdefault(workload, []).append(json.loads(line))
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         "result": json.loads(line)}) + "\n")
    summarise(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
