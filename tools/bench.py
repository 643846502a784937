"""Write BENCH_<label>.json: the benchmark record, CLI wall times and Tier-1.

    python3 tools/bench.py [--label LABEL]

Holds the ``perfbench/record.py`` output; each shipped config's median of 3
subprocess and of 3 warm in-process ``cli.main`` runs; the Tier-1 wall
time; the commit, whether tracked files differ from it (the default label,
the short hash, then ends in ``-dirty``), library versions and ``nproc``.
All else goes to a temporary directory (``record.py`` uses ``.perfbench/``).
"""

import argparse
import contextlib
import io
import json
import os
import platform
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


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", help="default: the short commit hash")
    args = p.parse_args(argv)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    label = args.label or git("rev-parse", "--short", "HEAD") + "-dirty" * dirty
    import mpmath
    import numpy
    import scipy
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
             "versions": {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__,
                          "mpmath": mpmath.__version__},
             "nproc": len(os.sched_getaffinity(0)), "cli": cli, "tier1_s": tier1,
             "perfbench": record}
    path = REPO / f"BENCH_{label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
