"""conespec benchmark: seeded closed-loop studies with oracle checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One process, one client, closed loop: each study starts when the previous
one has returned and been checked.  The seed draws the workload's inputs,
which are written as ``.op``/``.cfg`` files into a scratch directory under
``.perfbench/``; the program sees only those files (or, for the
weighted-eigenpair library studies, the operator parsed from them).

Both modes run a fixed number of whole cycles, derived from ``--seconds``
and the workload's nominal cycle time, so the mix of studies, the sample
count and every count repeat exactly whatever the host's speed.
``--trace 0`` times those cycles and prints the end-to-end metrics.
``--trace 1`` runs half as many cycles untraced and then as many traced,
and prints the per-layer metrics with the tracing overhead.  Every metric
is printed as ``name = value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 on a completed run, 2 when the program's
sources are missing.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the loop is a single client, and one thread keeps a
# second core's load out of the dense SVDs.  Set before numpy loads; the
# set-up samples inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# set-up is measured this many times per run (the run's own plus fresh
# processes) and reported as the median
SETUP_SAMPLES = 3

# Nominal seconds of one untraced cycle on a 2-vCPU x86-64 KVM guest.  An
# untraced run does round(seconds / nominal) cycles; a traced run does
# round(seconds / (2 * nominal)) cycles twice (untraced, then traced).  The
# counts depend only on the arguments.
NOMINAL_CYCLE_S = {"grid_eigen": 4.4, "oracle_traces": 5.4,
                   "weighted_eigenpairs": 4.8, "oracle_checks": 11.0}

END_TO_END = [("setup_s", "s"), ("studies_per_min", "1/min"),
              ("study_s.p50", "s"), ("study_s.tail", "s"),
              ("oracle_rel_err.max", "ratio"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "machine": platform.machine()}


class Bench:
    """One workload in one process: inputs, warm-up and the study loop."""

    def __init__(self, workloads, name, seed, work_dir):
        self.w = workloads
        self.name = name
        self.cycle = workloads.generate(name, seed, work_dir / "inputs")
        self.out = work_dir / "outputs"
        self.oracles = workloads.Oracles()

    def warm_up(self):
        # the first study in a fresh process is slower (lazy imports, first
        # BLAS and file-system use): run the first of the cheapest kind
        kind = self.w.WARMUP_KIND[self.name]
        self.w.run_study(next(s for s in self.cycle if s.kind == kind), self.out)

    def run_one(self, study, tracer=None):
        """Run and check one study; returns (seconds, verdict)."""
        # the check must read what this run wrote, not an earlier run's files
        shutil.rmtree(self.out / study.name, ignore_errors=True)
        if tracer is not None:
            tracer.active = True
        t = time.perf_counter()
        try:
            outcome = self.w.run_study(study, self.out)
        except Exception as exc:  # a raising study is a failed study
            outcome = exc
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.active = False
        if isinstance(outcome, Exception):
            return dt, self.w.Verdict(False, math.inf, f"raised {outcome!r}")
        return dt, self.w.check_study(study, outcome, self.oracles)

    def run_cycles(self, n, tracer=None):
        """Run n whole cycles; returns (study, seconds, verdict) records."""
        return [(study, *self.run_one(study, tracer))
                for _ in range(n) for study in self.cycle]


def cycles(workload, seconds, share=1):
    """Whole cycles whose nominal time is ``seconds / share``."""
    return max(1, round(seconds / (share * NOMINAL_CYCLE_S[workload])))


def setup_samples(args):
    """Set-up times of fresh processes, each running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def tail(times):
    """Value at the highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100, n
    return s[n - 11], math.floor(100.0 * (n - 10) / n), n


def summarize(records):
    times = [dt for _, dt, _ in records]
    failed = sum(1 for _, _, v in records if not v.ok)
    errs = [v.rel_err for _, _, v in records if math.isfinite(v.rel_err)]
    return {"attempted": len(records), "failed": failed, "times": times,
            "studies_per_min": 60.0 * (len(records) - failed) / sum(times),
            "rel_err": max(errs, default=0.0)}


def report(lines, metrics, attempted, failed, correct):
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def run_untraced(bench, args, setup_s):
    records = bench.run_cycles(cycles(args.workload, args.seconds))
    s = summarize(records)
    value, pct, n = tail(s["times"])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (setup_s, "s"),
               "studies_per_min": (s["studies_per_min"], "1/min"),
               "study_s.p50": (statistics.median(s["times"]), "s"),
               "study_s.tail": (value, "s"),
               "oracle_rel_err.max": (s["rel_err"], "ratio"),
               "peak_rss_mb": (peak_mb, "MB")}
    lines = [f"# study_s.tail is p{pct} of {n} studies "
             f"({10 if n > 10 else 0} beyond it)",
             f"fail_ratio = {s['failed'] / s['attempted']!r} ratio"]
    lines += [f"# FAILED {st.name}: {v.detail}" for st, _, v in records if not v.ok]
    report(lines, metrics, s["attempted"], s["failed"], s["failed"] == 0)


def run_traced(bench, args, tracer_mod):
    n = cycles(args.workload, args.seconds, share=2)
    plain = bench.run_cycles(n)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        traced = bench.run_cycles(n, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    records = plain + traced
    failed = sum(1 for _, _, v in records if not v.ok)
    wall_plain = sum(dt for _, dt, _ in plain)
    wall_traced = sum(dt for _, dt, _ in traced)
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    metrics["trace.overhead_ratio"] = ((wall_traced - wall_plain) / wall_plain,
                                       "ratio")
    missing = sorted(set(tracer_mod.EXPECTED[args.workload]) - tracer.fired())
    lines = [f"# traced {n} cycle(s) of {len(bench.cycle)} studies, "
             f"{len(tracer.spans)} spans"]
    lines += [f"# wrapper did not fire: {name}" for name in missing]
    lines += [f"# FAILED {st.name}: {v.detail}" for st, _, v in records if not v.ok]
    report(lines, metrics, len(records), failed, failed == 0 and not missing)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "conespec" / "__init__.py").is_file():
        print(f"perfbench: no conespec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    imported = time.perf_counter() - T0
    WORK.mkdir(exist_ok=True)
    extra = [] if args.setup_only or args.trace else setup_samples(args)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        t = time.perf_counter()
        bench = Bench(workloads, args.workload, args.seed, work_dir)
        bench.warm_up()
        own = imported + time.perf_counter() - t
        if args.setup_only:
            print(json.dumps({"setup_s": own}))
            return 0
        print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 **environment()}))
        if args.trace:
            import tracer
            run_traced(bench, args, tracer)
        else:
            run_untraced(bench, args, statistics.median([own] + extra))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
