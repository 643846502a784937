"""Write BENCH_<label>.json: the benchmark record, CLI wall times and Tier-1.

    python3 tools/bench.py [--label LABEL]
    python3 tools/bench.py --against REV [--pairs K] [--workloads W ...]
                           [--label LABEL]

Holds the ``perfbench/record.py`` output; each shipped config's median of 3
subprocess and of 3 warm in-process ``cli.main`` runs; the Tier-1 wall
time; the commit, whether tracked files differ from it (the default label,
the short hash, then ends in ``-dirty``), library versions and ``nproc``.
All else goes to a temporary directory (``record.py`` uses ``.perfbench/``).

With ``--against REV`` it writes BENCH_<label>-vs-<rev>.json instead: REV's
tree is unpacked by ``git archive`` into a temporary directory, which
leaves the repository's git metadata untouched, and each of K pairs
(default 8) runs ``perfbench/run.py --trace 0`` for the ``run_seconds``
of ``BENCHMARK.json`` once from REV's tree and once from this one, with the pair's seed (401, 402, ...), REV first in even
pairs and this tree first in odd ones.  The file
holds every run's end-to-end metrics, each pair's ratio this / REV, and
per metric the median ratio, the pairs this tree wins (strictly better in
the metric's direction in ``BENCHMARK.json``) and REV's interquartile
range over its median.  The copy is removed on exit, also on failure.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("spectrum", "heat", "resolvent", "zeta", "index", "verify")
REPEATS = 3
ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
sys.dont_write_bytecode = True
sys.path.insert(0, str(REPO / "src"))


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          cwd=REPO, check=True).stdout.strip()


def wall(cmd, cwd):
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=cwd, env=ENV, check=True, capture_output=True)
    return time.perf_counter() - t0


def cli_times(tmp):
    from conespec import cli
    out = {}
    for sub in SUBCOMMANDS:
        argv = [sub, "--config", str(REPO / "configs" / f"{sub}.cfg"),
                "--out", str(tmp / "out" / sub)]
        runs = [wall([sys.executable, "-m", "conespec.cli", *argv], tmp)
                for _ in range(REPEATS)]
        inproc = []
        for _ in range(REPEATS + 1):  # the first run warms up
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise SystemExit(f"{sub} did not exit 0")
            inproc.append(time.perf_counter() - t0)
        out[sub] = {"subprocess_s": statistics.median(runs),
                    "in_process_s": statistics.median(inproc[1:])}
    return out


PAIRS = 8
FIRST_SEED = 401


def summarize_pairs(pairs, end_to_end):
    """Per end-to-end metric: the ratios this / base of each pair, their
    median, the wins of this side and the base's spread.

    ``pairs`` holds (base, this) dicts of metric values, ``end_to_end``
    the ``BENCHMARK.json`` entries (name, better).  A win is a pair where
    this side is strictly better in the metric's direction; a pair with a
    zero base value has no ratio.
    """
    out = {}
    for entry in end_to_end:
        name, higher = entry["name"], entry["better"] == "higher"
        base = [b[name] for b, _ in pairs]
        this = [t[name] for _, t in pairs]
        ratios = [t / b if b else None for b, t in zip(base, this)]
        wins = sum(t > b if higher else t < b for b, t in zip(base, this))
        q1, med, q3 = (statistics.quantiles(base, n=4, method="inclusive")
                       if len(base) > 1 else base * 3)
        known = [r for r in ratios if r is not None]
        out[name] = {"better": entry["better"], "ratios": ratios,
                     "ratio_median": statistics.median(known) if known else None,
                     "wins": wins, "pairs": len(pairs),
                     "base_median": med,
                     "base_iqr_over_median": (q3 - q1) / med if med else None,
                     "median": statistics.median(this)}
    return out


def run_bench(tree, workload, seed, seconds):
    """One untraced ``perfbench/run.py`` run from ``tree``: its last line.

    Both trees keep the bytecode their runs compile, so that neither side's
    set-up pays a compilation the other side's does not."""
    env = {k: v for k, v in ENV.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=dict(env, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def versions():
    import mpmath
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def paired(args, label, dirty):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    rev = git("rev-parse", "--short", args.against)
    result = {"label": label, "commit": git("rev-parse", "HEAD"),
              "dirty": dirty, "against": {"rev": args.against,
                                          "commit": git("rev-parse", args.against)},
              "seconds": spec["run_seconds"], "versions": versions(),
              "nproc": len(os.sched_getaffinity(0)), "workloads": {}}
    # a terminated run unwinds too, so the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory() as d:
        base_tree = Path(d) / "base"
        base_tree.mkdir()
        archive = subprocess.run(["git", "archive", args.against], cwd=REPO,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive,
                       check=True)
        trees = {"base": base_tree, "this": REPO}
        for workload in workloads:
            pairs, runs = [], []
            for i in range(args.pairs):
                seed = FIRST_SEED + i
                order = ["base", "this"] if i % 2 == 0 else ["this", "base"]
                got = {side: run_bench(trees[side], workload, seed,
                                       spec["run_seconds"])
                       for side in order}
                runs.append({"seed": seed, "first": order[0], **got})
                pairs.append((got["base"]["metrics"], got["this"]["metrics"]))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {got[side]['metrics']['studies_per_min']:.0f}"
                    for side in ("base", "this")) + " studies/min",
                    flush=True)
            result["workloads"][workload] = {
                "runs": runs,
                "summary": summarize_pairs(pairs, spec["end_to_end"])}
    path = REPO / f"BENCH_{label}-vs-{rev}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", help="default: the short commit hash")
    p.add_argument("--against", metavar="REV",
                   help="alternate perfbench runs of this tree and of REV")
    p.add_argument("--pairs", type=int, default=PAIRS)
    p.add_argument("--workloads", nargs="+", metavar="W",
                   help="default: every workload of BENCHMARK.json")
    args = p.parse_args(argv)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    label = args.label or git("rev-parse", "--short", "HEAD") + "-dirty" * dirty
    if args.against:
        return paired(args, label, dirty)
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        wall([sys.executable, str(REPO / "perfbench" / "record.py"), "--out",
              str(tmp / "record.json")], REPO)
        cli = cli_times(tmp)
        # Tier-1 from the temporary directory, so its caches land there
        tier1 = wall([sys.executable, "-m", "pytest", "-q",
                      "--continue-on-collection-errors", "--rootdir", str(REPO),
                      "-c", str(REPO / "pyproject.toml"),
                      "-o", f"cache_dir={tmp / 'pytest_cache'}",
                      str(REPO / "tests")], tmp)
        record = json.loads((tmp / "record.json").read_text())
    bench = {"label": label, "commit": git("rev-parse", "HEAD"), "dirty": dirty,
             "versions": versions(),
             "nproc": len(os.sched_getaffinity(0)), "cli": cli, "tier1_s": tier1,
             "perfbench": record}
    path = REPO / f"BENCH_{label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
