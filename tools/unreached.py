"""List the public functions of conespec that nothing shipped enters.

Runs in process, under ``sys.setprofile``: the six shipped configs
(``heat`` with ``--svg``), ``tests/test_acceptance.py`` and one seed-11
cycle of each ``perfbench/workloads.py`` workload with its checks, writing
only to a temporary directory.  Prints every public function and method
of ``src/conespec`` never entered (nested, dunder and ``_private`` names
are skipped); exits 1 if a run fails or a printed name is not in ALLOWED.

Usage: python3 tools/unreached.py
"""

import contextlib
import importlib
import io
import os
import pkgutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # no caches in the checkout
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import pytest  # noqa: E402
import workloads  # noqa: E402

import conespec  # noqa: E402
from conespec import cli  # noqa: E402

# unreached on purpose, and why
ALLOWED = {
    "coneop.resolvent_solve": "tip-resolvent study (ROADMAP item 19)",
    "coneop.kappa_scale": "tip-resolvent study (ROADMAP item 19)",
    "index.MellinPerturbation.reflected": "builds the input of two eta tests",
    "coneop.SpectralData.count": "heat_trace's refusal payload",
    "indexsets.IndexSet.max_logpow": "IndexSet.__contains__, used by tests",
    "errors.ConespecError.payload_items": "CLI refusals; configs pass",
}


def public_names():
    """{code object: dotted name} of every public function and method."""
    names = {}
    for info in pkgutil.iter_modules(conespec.__path__):
        mod = importlib.import_module(f"conespec.{info.name}")
        for name, obj in vars(mod).items():
            if name[0] == "_" or getattr(obj, "__module__", 0) != mod.__name__:
                continue
            members = (vars(obj).items() if isinstance(obj, type)
                       else [("", obj)])
            for attr, fn in members:
                fn = getattr(fn, "__func__", getattr(fn, "fget", fn))
                if not attr.startswith("_") and hasattr(fn, "__code__"):
                    dotted = ".".join(filter(None, (info.name, name, attr)))
                    names[fn.__code__] = dotted
    return names


def main():
    entered, failed = set(), []

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        tmp = Path(tmp)
        os.chdir(tmp)  # hypothesis writes its database to the working dir
        sys.setprofile(hook)
        for sub in "spectrum heat resolvent zeta index verify".split():
            argv = [sub, "--config", str(REPO / "configs" / f"{sub}.cfg"),
                    "--out", str(tmp / sub)]
            if cli.main(argv + ["--svg"] * (sub == "heat")) != 0:
                failed.append(f"conespec {sub}")
        if pytest.main([str(REPO / "tests" / "test_acceptance.py"), "-q",
                        "-p", "no:cacheprovider"]) != 0:
            failed.append("tests/test_acceptance.py")
        for name in workloads.WORKLOADS:
            oracles = workloads.Oracles()
            for study in workloads.generate(name, 11, tmp / name / "in"):
                outcome = workloads.run_study(study, tmp / name / "out")
                if not workloads.check_study(study, outcome, oracles).ok:
                    failed.append(f"{name} study {study.name}")
        sys.setprofile(None)
        os.chdir(REPO)
    for what in failed:
        print(f"run failed: {what}")
    unreached = sorted(n for c, n in public_names().items()
                       if c not in entered)
    for name in unreached:
        note = f" (allowed: {ALLOWED[name]})" if name in ALLOWED else ""
        print(name + note)
    return 1 if failed or set(unreached) - set(ALLOWED) else 0


if __name__ == "__main__":
    sys.exit(main())
