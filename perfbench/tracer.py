"""Outside-in tracer: spans and counters at the program's layer boundaries.

The program carries no telemetry, so the traced run replaces public
functions, from outside, at the name each caller looks up at call time:
a module attribute (``coneop.bessel_zeros``), a class attribute
(``SpectralData.heat_sum``) or a name another module imported
(``traces.eigenvalues``, ``index.fit_expansion``, ``cli.parse_operator``,
``asymptotics.quad``, which is scipy's).

Two kinds of wrapper:

* a *span* records (name, start, end, parent) in memory; the layer's
  self time is the span's duration minus that of its child spans;
* a *counter* only counts calls, for functions called hundreds of
  thousands of times (``smoothstep``, ``IndexSet``) and for calls whose
  time belongs to the caller's self time (scipy ``quad``, ``svd``).

An exception that leaves a wrapped function into a caller of another
layer (or into the benchmark) counts as one error of that layer.  The
layers are the program's modules; the benchmark is single threaded and
has no queue, so no layer ever waits on another and no wait times exist.
"""

import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

from conespec import (asymptotics, cli, coneop, index, indexsets, opfile,
                      pencil, symbols, traces)

LAYERS = ("pencil", "coneop", "traces", "asymptotics", "symbols", "index",
          "indexsets", "cli", "opfile")

# (owner, attribute, span name); the span name's first part is the layer
SPANS = [
    (pencil, "eig_pencil", "pencil.eig_pencil"),
    (pencil, "inertia", "pencil.inertia"),
    (pencil, "refine_pair", "pencil.refine_pair"),
    (pencil, "trace_weighted_resolvent", "pencil.trace_weighted_resolvent"),
    (coneop, "grid_spectral_data", "coneop.grid_spectral_data"),
    (coneop, "oracle_spectral_data", "coneop.oracle_spectral_data"),
    (coneop, "boundary_spectrum", "coneop.boundary_spectrum"),
    (coneop, "bessel_zeros", "coneop.bessel_zeros"),
    (coneop.SpectralData, "heat_sum", "coneop.SpectralData.heat_sum"),
    (coneop, "resolvent_norm", "coneop.resolvent_norm"),
    (traces, "eigenvalues", "coneop.eigenvalues"),
    (traces, "heat_trace", "traces.heat_trace"),
    (traces, "weighted_spectral_data", "traces.weighted_spectral_data"),
    (traces.WeightedSpectralData, "heat_value",
     "traces.WeightedSpectralData.heat_value"),
    (traces, "weighted_heat_trace", "traces.weighted_heat_trace"),
    (traces, "resolvent_power_trace", "traces.resolvent_power_trace"),
    (traces, "resolvent_power_trace_spectral",
     "traces.resolvent_power_trace_spectral"),
    (traces, "heat_trace_contour", "traces.heat_trace_contour"),
    (asymptotics, "fit_expansion", "asymptotics.fit_expansion"),
    (index, "fit_expansion", "asymptotics.fit_expansion"),
    (asymptotics.ZetaContinuation, "__init__",
     "asymptotics.ZetaContinuation.__init__"),
    (asymptotics.ZetaContinuation, "value", "asymptotics.ZetaContinuation.value"),
    (asymptotics.ZetaContinuation, "pole_report",
     "asymptotics.ZetaContinuation.pole_report"),
    (asymptotics, "pushforward_fund2", "asymptotics.pushforward_fund2"),
    (asymptotics, "ode_fund1", "asymptotics.ode_fund1"),
    (asymptotics, "trace_component_Ak", "asymptotics.trace_component_Ak"),
    (symbols, "seminorm_check", "symbols.seminorm_check"),
    (index, "index_assemble", "index.index_assemble"),
    (index, "invariance_red_to_const", "index.invariance_red_to_const"),
    (index, "invariance_red_to_sobolev", "index.invariance_red_to_sobolev"),
    (index, "eta_term", "index.eta_term"),
    (index, "argument_principle_count", "index.argument_principle_count"),
    (indexsets, "compose_family", "indexsets.compose_family"),
    (cli.Runner, "write_csv", "cli.Runner.write_csv"),
    (cli, "parse_operator", "opfile.parse_operator"),
    (opfile, "parse_operator", "opfile.parse_operator"),
]

COUNTERS = [
    (symbols, "smoothstep", "symbols.smoothstep"),
    (indexsets, "extended_union", "indexsets.extended_union"),
    (asymptotics, "extended_union", "indexsets.extended_union"),
    (indexsets.IndexSet, "__init__", "indexsets.IndexSet"),
]

# (metric, unit): the per-layer metrics, in the order they are printed
METRICS = [
    ("pencil.eig_pencil.calls", "count"),
    ("pencil.eig_pencil.self_s", "s"),
    ("pencil.eig_pencil.values", "count"),
    ("pencil.inertia.calls", "count"),
    ("pencil.inertia.self_s", "s"),
    ("pencil.refine_pair.calls", "count"),
    ("pencil.refine_pair.self_s", "s"),
    ("pencil.refine_pair.kept_ratio", "ratio"),
    ("pencil.trace_weighted_resolvent.self_s", "s"),
    ("coneop.grid_spectral_data.busy_s", "s"),
    ("coneop.boundary_spectrum.self_s", "s"),
    ("coneop.oracle_spectral_data.busy_s", "s"),
    ("coneop.bessel_zeros.calls", "count"),
    ("coneop.bessel_zeros.self_s", "s"),
    ("coneop.SpectralData.heat_sum.calls", "count"),
    ("coneop.SpectralData.heat_sum.self_s", "s"),
    ("traces.heat_trace.self_s", "s"),
    ("traces.samples", "count"),
    ("traces.tail_ratio.max", "ratio"),
    ("traces.weighted_spectral_data.self_s", "s"),
    ("traces.WeightedSpectralData.heat_value.self_s", "s"),
    ("traces.resolvent_power_trace.self_s", "s"),
    ("traces.heat_trace_contour.self_s", "s"),
    ("asymptotics.fit_expansion.calls", "count"),
    ("asymptotics.fit_expansion.self_s", "s"),
    ("asymptotics.fit.conditioning.max", "ratio"),
    ("asymptotics.ZetaContinuation.self_s", "s"),
    ("asymptotics.pushforward_fund2.self_s", "s"),
    ("asymptotics.ode_fund1.self_s", "s"),
    ("asymptotics.trace_component_Ak.self_s", "s"),
    ("asymptotics.quad.calls", "count"),
    ("asymptotics.quad.evals", "count"),
    ("symbols.seminorm_check.self_s", "s"),
    ("symbols.smoothstep.calls", "count"),
    ("index.invariance_red_to_sobolev.self_s", "s"),
    ("index.svd.calls", "count"),
    ("index.eta_term.self_s", "s"),
    ("index.argument_principle_count.self_s", "s"),
    ("index.integer_distance.max", "ratio"),
    ("indexsets.extended_union.calls", "count"),
    ("indexsets.compose_family.self_s", "s"),
    ("indexsets.IndexSet.calls", "count"),
    ("cli.Runner.write_csv.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("opfile.parse_operator.self_s", "s"),
] + [(f"{layer}.errors", "count") for layer in LAYERS]


def _layer(name):
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters, installed around the program's public functions.

    ``install`` patches; ``uninstall`` restores every original.  While
    ``active`` is false the wrappers pass straight through, so oracle
    checks made between traced studies leave no trace.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []          # indices of the open spans
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self.active = False
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr),
                                                _RESULT_HOOKS.get(name)))
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self._counter(name, getattr(owner, attr)))
        self._patch(asymptotics, "quad", self._quad(asymptotics.quad))
        self._patch(np.linalg, "svd", self._svd(np.linalg.svd))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _caller_layer(self):
        return _layer(self.spans[self.stack[-1]][0]) if self.stack else None

    def _error(self, layer):
        if self._caller_layer() != layer:
            self.counts[f"{layer}.errors"] += 1

    def _span(self, name, fn, hook):
        tracer, layer = self, _layer(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0,
                   tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
                tracer._error(layer)
                raise
            rec[2] = time.perf_counter()
            tracer.stack.pop()
            if hook is not None:
                hook(tracer, args, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        tracer, layer, key = self, _layer(name), name + ".calls"

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if tracer.active:
                    tracer._error(layer)
                raise

        return wrapper

    def _quad(self, quad):
        # integrand evaluations are counted by wrapping the integrand
        tracer = self

        def wrapper(func, *args, **kwargs):
            if tracer.active:
                tracer.counts["asymptotics.quad.calls"] += 1
                inner = func

                def func(*x):
                    tracer.counts["asymptotics.quad.evals"] += 1
                    return inner(*x)
            return quad(func, *args, **kwargs)

        return wrapper

    def _svd(self, svd):
        # numpy.linalg.svd is shared by every caller; count the index layer's
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active and tracer._caller_layer() == "index":
                tracer.counts["index.svd.calls"] += 1
            return svd(*args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------

    def span_totals(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[i]
        return calls, busy, own

    def metrics(self):
        """The per-layer metrics, as {name: (value, unit)}.

        ``<span>.self_s`` sums the self time of the span and of spans named
        below it (the methods of ``asymptotics.ZetaContinuation``);
        ``.busy_s`` is inclusive time; ``.max`` a recorded maximum;
        ``.calls`` counts spans or counter calls; the rest are counts.
        """
        calls, busy, own = self.span_totals()
        out = {}
        for name, unit in METRICS:
            base, _, kind = name.rpartition(".")
            if kind == "self_s":
                value = sum((t for k, t in own.items()
                             if k == base or k.startswith(base + ".")), 0.0)
            elif kind == "busy_s":
                value = busy[base]
            elif kind == "max":
                value = self.maxima[base]
            elif kind == "kept_ratio":
                attempts = self.counts[base + ".attempts"]
                value = self.counts[base + ".kept"] / attempts if attempts else 0.0
            else:
                value = calls[base] + self.counts[name] if kind == "calls" \
                    else self.counts[name]
            out[name] = (value, unit)
        return out

    def fired(self):
        """Names of every span and counter that recorded at least once."""
        calls, _, _ = self.span_totals()
        return set(calls) | {k[:-len(".calls")] for k, v in self.counts.items()
                             if k.endswith(".calls") and v}

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


# -- result hooks: counts judged from a wrapper's input and output ------------


def _eig_values(tracer, args, out):
    vals = out[0] if isinstance(out, tuple) else out
    tracer.counts["pencil.eig_pencil.values"] += len(vals)


def _refine_kept(tracer, args, out):
    # eig_pencil keeps the polished value unless it wandered off by more
    # than 1e-6 relative; judged here from the bisection input and output
    lam, lam_p = float(args[3]), float(out[0])
    tracer.counts["pencil.refine_pair.attempts"] += 1
    if abs(lam_p - lam) <= 1e-6 * max(1.0, abs(lam)):
        tracer.counts["pencil.refine_pair.kept"] += 1


def _series(tracer, args, out):
    tracer.counts["traces.samples"] += len(out.values)
    ratio = np.asarray(out.tails) / np.maximum(np.abs(out.values), 1e-300)
    if len(ratio):
        tracer.maxima["traces.tail_ratio"] = max(
            tracer.maxima["traces.tail_ratio"], float(np.max(ratio)))


def _conditioning(tracer, args, out):
    if math.isfinite(out.conditioning):
        tracer.maxima["asymptotics.fit.conditioning"] = max(
            tracer.maxima["asymptotics.fit.conditioning"], out.conditioning)


def _integer_distance(tracer, args, out):
    tracer.maxima["index.integer_distance"] = max(
        tracer.maxima["index.integer_distance"], out.integer_distance)


def _bytes(tracer, args, out):
    tracer.counts["cli.bytes_written"] += out.stat().st_size


_RESULT_HOOKS = {
    "pencil.eig_pencil": _eig_values,
    "pencil.refine_pair": _refine_kept,
    "traces.heat_trace": _series,
    "traces.weighted_heat_trace": _series,
    "traces.resolvent_power_trace": _series,
    "traces.resolvent_power_trace_spectral": _series,
    "asymptotics.fit_expansion": _conditioning,
    "index.index_assemble": _integer_distance,
    "cli.Runner.write_csv": _bytes,
}

# Each wrapped function that a workload exists to exercise, with that
# workload; the traced run checks that every one of them fired there.
EXPECTED = {
    "grid_eigen": ["pencil.eig_pencil", "pencil.inertia", "pencil.refine_pair",
                   "coneop.grid_spectral_data", "coneop.boundary_spectrum",
                   "cli.Runner.write_csv", "opfile.parse_operator"],
    "oracle_traces": ["coneop.oracle_spectral_data", "coneop.bessel_zeros",
                      "coneop.SpectralData.heat_sum", "coneop.resolvent_norm",
                      "traces.heat_trace", "traces.resolvent_power_trace_spectral",
                      "asymptotics.fit_expansion",
                      "asymptotics.ZetaContinuation.__init__",
                      "cli.Runner.write_csv", "opfile.parse_operator"],
    "weighted_eigenpairs": ["pencil.eig_pencil", "pencil.inertia",
                            "pencil.refine_pair",
                            "pencil.trace_weighted_resolvent",
                            "coneop.eigenvalues",
                            "traces.weighted_spectral_data",
                            "traces.WeightedSpectralData.heat_value",
                            "traces.weighted_heat_trace",
                            "traces.resolvent_power_trace",
                            "traces.heat_trace_contour",
                            "opfile.parse_operator"],
    "oracle_checks": ["asymptotics.pushforward_fund2", "asymptotics.ode_fund1",
                      "asymptotics.trace_component_Ak", "asymptotics.quad",
                      "asymptotics.fit_expansion", "symbols.seminorm_check",
                      "symbols.smoothstep", "index.index_assemble",
                      "index.invariance_red_to_const",
                      "index.invariance_red_to_sobolev", "index.svd",
                      "index.eta_term", "index.argument_principle_count",
                      "indexsets.extended_union", "indexsets.compose_family",
                      "indexsets.IndexSet", "coneop.boundary_spectrum",
                      "cli.Runner.write_csv", "opfile.parse_operator"],
}
