"""Run run.py once per seed and report each metric's median and spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads deep-compare,many-rules \
        --seeds 1-10 --seconds 15 [--trace 1] [--out results.json]

The spread of a metric is the distance between the first and third
quartiles of its per-run values (``statistics.quantiles(values, n=4)``) as a
share of their median; BENCHMARK.json bounds it for every end-to-end metric
except ``setup_s``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                  if not args.trace else f"correct={result['correct']}", flush=True)
        print(f"{workload}: all correct: {all(r['correct'] for r in runs[workload])}")
        for name, row in summarize(runs[workload]).items():
            bound = bounds.get(name)
            verdict = "" if bound is None else f"  bound {bound}  spread/bound {row['spread'] / bound:.2f}"
            print(f"  {name:32} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.4f}{verdict}")
    if args.out:
        doc = {w: {"summary": summarize(r), "runs": r} for w, r in runs.items()}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
