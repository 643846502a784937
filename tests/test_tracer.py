"""The benchmark's tracer patches the program by attribute name.

``perfbench/tracer.py`` replaces functions at the names its SPANS and
COUNTERS list, looked up with ``getattr``.  A rename in the program breaks
every traced benchmark run, so install and uninstall it here: every name
must resolve, be replaced, and get its original back.  A caller that
bypasses a wrapped name leaves its span silent, so the weighted-eigenpair
calls run here under the tracer, and each span that workload expects must
record.
"""

import importlib.util
from pathlib import Path

import numpy as np

from conespec import asymptotics, coneop, opfile, traces

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_weighted_eigenpair_calls_fire_every_expected_span():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install()
    tracer.active = True
    try:
        op = opfile.parse_operator(ROOT / "configs" / "laplace_a1.5.op")
        disc = coneop.discretize(op, -6.0, 150)
        B = traces.WeightOperator(beta=1.0)
        wsd = traces.weighted_spectral_data(disc, B, 700.0)
        traces.weighted_heat_trace(wsd, B, np.geomspace(0.1, 0.5, 4))
        traces.resolvent_power_trace(wsd, B, 3, -np.geomspace(1.0, 10.0, 4))
        traces.heat_trace_contour(disc, 0.1, N=3,
                                  bdiag=B.multiplier(disc.x))
    finally:
        tracer.active = False
        tracer.uninstall()
    expected = set(tracer_mod.EXPECTED["weighted_eigenpairs"])
    assert expected <= tracer.fired(), expected - tracer.fired()
