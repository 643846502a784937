"""The benchmark's tracer patches the program by attribute name.

``perfbench/tracer.py`` replaces functions at the names its SPANS and
COUNTERS list, looked up with ``getattr``.  A rename in the program breaks
every traced benchmark run, so install and uninstall it here: every name
must resolve, be replaced, and get its original back.
"""

import importlib.util
from pathlib import Path

import numpy as np

from conespec import asymptotics

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_uninstall_restores_every_original():
    tracer_mod = _load_tracer()
    targets = [(owner, attr) for owner, attr, _ in
               tracer_mod.SPANS + tracer_mod.COUNTERS]
    targets += [(asymptotics, "quad"), (np.linalg, "svd")]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        replaced = [getattr(owner, attr) is not original
                    for (owner, attr), original in zip(targets, originals)]
    finally:
        tracer.uninstall()
    assert all(replaced)
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, attr
