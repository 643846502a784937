"""Record a baseline: every workload on several seeds, with the environment.

    python3 perfbench/record.py --out perfbench/baseline.json

Runs ``run.py`` for ``run_seconds`` (from ``BENCHMARK.json``) once per
workload of ``BENCHMARK.json`` and seed 1-10 with tracing off, then once
per workload traced on seed 1, and writes per-run values, medians,
quartiles and the spread (interquartile range over median) of every
end-to-end metric, with the commit and library versions.  A later change
records its own file with the same command and compares medians.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
SEEDS = list(range(1, 11))


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = {k: v for k, v in json.loads(lines[0][2:]).items()
           if k not in ("workload", "seed")}
    return env, json.loads(lines[-1])


def commit():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, cwd=ROOT)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    record = {"commit": commit(), "seeds": SEEDS, "seconds": SECONDS,
              "workloads": {}}
    for w in WORKLOADS:
        runs = []
        for s in SEEDS:
            env, res = bench(w, s, SECONDS, 0)
            runs.append({"seed": s, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         **{k: v["value"] for k, v in res["metrics"].items()}})
            print(w, runs[-1], flush=True)
        summary = {}
        for name in res["metrics"]:
            values = [r[name] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[name] = {"unit": res["metrics"][name]["unit"], "median": med,
                             "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
            print(f"  {name}: median {med:.6g} spread {(q3 - q1) / med:.3f}",
                  flush=True)
        _, traced = bench(w, SEEDS[0], SECONDS, 1)
        record["environment"] = env
        record["workloads"][w] = {
            "runs": runs, "summary": summary,
            "traced": {"seed": SEEDS[0], "correct": traced["correct"],
                       **{k: v["value"] for k, v in traced["metrics"].items()}}}
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
