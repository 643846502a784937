"""List the public functions and keyword modes of conespec that nothing
shipped uses.

Runs in process, under ``sys.setprofile``: the six shipped configs
(``heat`` with ``--svg``), ``tests/test_acceptance.py`` and one seed-11
cycle of each ``perfbench/workloads.py`` workload with its checks, writing
only to a temporary directory.  Prints every public function and method
of ``src/conespec`` never entered (nested, dunder and ``_private`` names
are skipped), then every parameter with a default, of those functions and
of the ``__init__`` of public classes, that no call sets to another value
(read from the frame's locals when the call starts).  Exits 1 if a run
fails, a printed name is in neither ALLOWED nor KEPT, or an entry of
either is used after all.

Usage: python3 tools/unreached.py
"""

import contextlib
import importlib
import inspect
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
    "coneop.SpectralData.count": "heat_trace's refusal payload",
    "errors.ConespecError.payload_items": "CLI refusals; configs pass",
}

# keyword modes no shipped run sets, kept on purpose, and why
KEPT = {
    "symbols.seminorm_check(pts_per_decade)":
        "coarse grids keep the seminorm tests fast",
    "traces.heat_trace_contour(N)": "tests cross-check N = 2, 3, 4",
    "symbols.resolvent_symbol(b_fn)":
        "symbols of resolvent powers, checked by tests",
    "symbols.resolvent_symbol(mu_b)":
        "symbols of resolvent powers, checked by tests",
    "symbols.resolvent_symbol(ell)":
        "symbols of resolvent powers, checked by tests",
    "traces.WeightOperator.__init__(mu_prime)": "the trace-class rule",
    "traces.WeightOperator.__init__(phi)": "the identity-weight reference",
    "traces.WeightOperator.__init__(label)": "names a custom phi",
    "symbols.ChiCutoff.__init__(radius)":
        "a test checks the component integral across radii",
}


def public_functions():
    """(dotted name, function) of every public function and method, and of
    the __init__ of every public class that defines one."""
    found = []
    for info in pkgutil.iter_modules(conespec.__path__):
        mod = importlib.import_module(f"conespec.{info.name}")
        for name, obj in vars(mod).items():
            if name[0] == "_" or getattr(obj, "__module__", 0) != mod.__name__:
                continue
            members = (vars(obj).items() if isinstance(obj, type)
                       else [("", obj)])
            for attr, fn in members:
                fn = getattr(fn, "__func__", getattr(fn, "fget", fn))
                public = not attr.startswith("_") or attr == "__init__"
                if public and hasattr(fn, "__code__"):
                    found.append((".".join(filter(None, (info.name, name,
                                                         attr))), fn))
    return found


def differs(value, default):
    """Whether an argument is not its parameter's default."""
    if value is default:
        return False
    try:
        return not bool(value == default)
    except (TypeError, ValueError):  # arrays and other odd comparisons
        return True


def main():
    functions = public_functions()
    names = {fn.__code__: name for name, fn in functions
             if not name.endswith(".__init__")}
    defaults = {fn.__code__: [(p.name, p.default) for p in
                              inspect.signature(fn).parameters.values()
                              if p.default is not p.empty]
                for _, fn in functions}
    entered, modes, failed = set(), set(), []

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add(code)
            for param, default in defaults.get(code, ()):
                if differs(frame.f_locals[param], default):
                    modes.add((code, param))

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
    unreached = sorted(n for c, n in names.items() if c not in entered)
    for name in unreached:
        note = f" (allowed: {ALLOWED[name]})" if name in ALLOWED else ""
        print(name + note)
    unset = sorted(f"{name}({param})" for name, fn in functions
                   for param, _ in defaults[fn.__code__]
                   if fn.__code__ in entered
                   and (fn.__code__, param) not in modes)
    for mode in unset:
        note = f" (kept: {KEPT[mode]})" if mode in KEPT else ""
        print(mode + note)
    stale = (set(ALLOWED) - set(unreached)) | (set(KEPT) - set(unset))
    for entry in sorted(stale):
        print(f"stale allowlist entry: {entry} is used")
    extra = (set(unreached) - set(ALLOWED)) | (set(unset) - set(KEPT))
    return 1 if failed or extra or stale else 0


if __name__ == "__main__":
    sys.exit(main())
