"""Experiment runner: reproducible desk-scale studies over the library.

Subcommands
-----------
spectrum    boundary spectrum, eigenvalues, oracle comparison
heat        heat trace, expansion fit, term report
resolvent   resolvent norm decay and power traces
zeta        continuation, values, pole report
index       constant term, eta integral, assembly, invariance sweeps
verify      property suite (index-set laws, seminorms, integral oracles),
            run through the oracles the tests share (``oracles``)

Every run writes CSV files (header row plus a provenance comment carrying
the digests of the config and of the operator file it names, the seed and
the conespec version) and a MANIFEST listing outputs with digests.
Exit codes: 0 success, 2 validation failure, 3 undecided verdicts.
"""

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, coneop, traces
from . import index as indextools
from . import oracles
from .errors import ConespecError, ConfigurationError
from .opfile import config_digest, parse_operator, parse_value, read_kv

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNDECIDED = 3

# most index-set law cases one verify run takes: at about 0.6 ms a case,
# a minute of work
MAX_VERIFY_CASES = 100_000
# largest spectral cutoff a run takes: about 50 times the largest of any
# shipped config, test or benchmark (46 / 9e-4), as for the grid caps
MAX_SPECTRAL_CUTOFF = 2.6e6


class Runner:
    """Output collector: CSV files plus a MANIFEST with digests."""

    def __init__(self, out_dir, provenance):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.provenance = provenance
        self.files = []
        self.status = "complete"
        self.notes = []

    def write_csv(self, name, rows):
        path = self.out / name
        lines = [f"# provenance: {self.provenance}"]
        for row in rows:
            lines.append(",".join(str(c) for c in row))
        path.write_text("\n".join(lines) + "\n")
        self.files.append(path)
        return path

    def finish(self):
        lines = [f"# provenance: {self.provenance}", f"status: {self.status}"]
        for note in self.notes:
            lines.append(f"note: {note}")
        for path in self.files:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{path.name} sha256:{digest} bytes:{path.stat().st_size}")
        (self.out / "MANIFEST").write_text("\n".join(lines) + "\n")


def _f(kv, key, default=None):
    """A finite number; ``default`` when the key is absent (None: required)."""
    if key not in kv:
        if default is None:
            raise ConfigurationError("missing config key", key=key)
        return default
    return parse_value(key, kv[key])


def _i(kv, key, default=None):
    """An integer, written with or without a fractional part of zero."""
    value = _f(kv, key, default)
    if value != int(value):
        raise ConfigurationError("config value must be an integer", key=key,
                                 got=kv[key])
    return int(value)


def _positive(kv, key, default):
    """A positive number: a time or a spectral cutoff, checked before use."""
    value = _f(kv, key, default)
    if value <= 0:
        raise ConfigurationError("config value must be positive", key=key,
                                 got=kv[key])
    return value


def _cutoff(kv, key, default):
    """A spectral cutoff: positive and at most ``MAX_SPECTRAL_CUTOFF``,
    checked before any mode is widened to it."""
    value = _positive(kv, key, default)
    if value > MAX_SPECTRAL_CUTOFF:
        raise ConfigurationError(
            f"config value must be at most {MAX_SPECTRAL_CUTOFF:g}", key=key,
            got=value)
    return value


def _size(kv, key, default, read=_i):
    """A nonnegative integer (a matrix dimension or an expansion order), or
    with ``read=_f`` a nonnegative number (a strip half-width)."""
    value = read(kv, key, default)
    if value < 0:
        raise ConfigurationError("config value must be nonnegative", key=key,
                                 got=kv[key])
    return value


def _count(kv, key, default):
    """A positive integer: a number of samples."""
    value = _i(kv, key, default)
    if value < 1:
        raise ConfigurationError("config value must be a positive integer",
                                 key=key, got=kv[key])
    return value


def _operator_path(kv, config_path):
    op_path = Path(kv["operator"])
    if not op_path.is_absolute():
        op_path = Path(config_path).parent / op_path
    return op_path


def _operator(kv, config_path):
    op_path = _operator_path(kv, config_path)
    if not op_path.exists():
        raise ConfigurationError("operator file not found", path=str(op_path))
    return parse_operator(op_path)


def _spectral(kv, runner, op, lam_max):
    """Spectral data up to lam_max on every mode with spectrum below it."""
    op = op.with_modes(int(math.sqrt(lam_max)) + 2)
    kind = kv.get("spectrum", "oracle")
    if kind == "oracle":
        if not op.is_frozen:
            runner.notes.append(f"oracle spectrum of the frozen {op.label}")
        return coneop.oracle_spectral_data(op.frozen(), lam_max)
    if kind == "grid":
        disc = coneop.discretize(op, _f(kv, "s_min", -10.0),
                                 _i(kv, "npoints", 800))
        return coneop.grid_spectral_data(disc, lam_max)
    raise ConfigurationError("spectrum must be 'oracle' or 'grid'",
                             key="spectrum", got=kind)


# ---------------------------------------------------------------------------
# subcommands


def run_spectrum(kv, runner, args):
    op = _operator(kv, args.config)
    strip = _size(kv, "strip", 8.0, read=_f)
    lam_max = _cutoff(kv, "lam_max", 500.0)
    bspec = coneop.boundary_spectrum(op, strip)
    runner.write_csv("boundary_spectrum.csv", bspec.to_csv_rows())
    disc = coneop.discretize(op, _f(kv, "s_min", -12.0), _i(kv, "npoints", 1500))
    sd = coneop.grid_spectral_data(disc, lam_max)
    runner.write_csv("spectral.csv", sd.to_csv_rows())
    if op.is_frozen and abs(op.mu - 2.0) < 1e-12:
        sdo = coneop.oracle_spectral_data(op, lam_max)
        rows = [("mode", "k", "grid", "oracle", "rel_err")]
        worst, missing = 0.0, 0
        for m in sdo.modes():
            a = sd.eigs.get(m, np.empty(0))
            b = sdo.eigs[m]
            missing += max(len(b) - len(a), 0)
            for k in range(min(len(a), len(b))):
                rel = abs(a[k] - b[k]) / b[k]
                worst = max(worst, rel)
                rows.append((m, k + 1, f"{a[k]:.12e}", f"{b[k]:.12e}",
                             f"{rel:.3e}"))
        runner.write_csv("oracle_compare.csv", rows)
        runner.notes.append(f"worst oracle relative error {worst:.3e}")
        if missing:
            runner.notes.append(f"{missing} oracle eigenvalues below lam_max "
                                "have no grid partner")
    return EXIT_OK


def run_heat(kv, runner, args):
    op = _operator(kv, args.config)
    t_min, t_max = _positive(kv, "t_min", 1e-3), _positive(kv, "t_max", 0.12)
    lam_max = _cutoff(kv, "lam_max", asymptotics.HEAT_CUTOFF_EXPONENT / t_min)
    ts = np.geomspace(t_min, t_max, _count(kv, "t_count", 120))
    k_max = _size(kv, "k_max", 4)
    window = (_f(kv, "window_lo", t_min), _f(kv, "window_hi", t_max))
    sd = _spectral(kv, runner, op, lam_max)
    series = traces.heat_trace(sd, ts)
    runner.write_csv("trace.csv", series.to_csv_rows())
    terms = asymptotics.predict_terms(op.mu, 0.0, 0.0, op.n, k_max,
                                      kind="heat")
    fit = asymptotics.fit_expansion(series, terms, window=window)
    runner.write_csv("fit.csv", fit.to_csv_rows())
    slope = asymptotics.fitted_leading_exponent(
        series, (t_min, min(10 * t_min, t_max)))
    runner.write_csv("summary.csv",
                     [("quantity", "value"),
                      ("leading_exponent", f"{slope:.6f}"),
                      ("fit_residual", f"{fit.residual:.3e}"),
                      ("conditioning", f"{fit.conditioning:.3e}")])
    if args.svg:
        from .svgplot import write_fit_svg
        model = fit.evaluate(series.params)
        write_fit_svg(runner.out / "fit.svg", series.params, series.values,
                      np.real(model), title="heat trace fit")
        runner.files.append(runner.out / "fit.svg")
    return EXIT_OK


def run_resolvent(kv, runner, args):
    op = _operator(kv, args.config)
    lam_spec = _cutoff(kv, "lam_max_spec", 2e4)
    mags = np.geomspace(_positive(kv, "lam_min", 1e2),
                        _positive(kv, "lam_max", 1e6), _count(kv, "count", 40))
    N = _i(kv, "N", 2)
    trace_count = _count(kv, "trace_count", 40)
    lam_tr = -np.geomspace(_positive(kv, "trace_lam_min", 10.0),
                           _positive(kv, "trace_lam_max", 1e3), trace_count)
    k_max = _size(kv, "k_max", 4)
    terms = asymptotics.predict_terms(op.mu, 0.0, 0.0, op.n, k_max,
                                      kind="resolvent", N=N)
    # the fit's sample rule, before any spectrum is built or CSV written
    asymptotics.check_sample_count(
        trace_count, len(asymptotics.expand_columns(terms)), key="trace_count")
    sd = _spectral(kv, runner, op, lam_spec)
    norms = [coneop.resolvent_norm(sd, -m) for m in mags]
    rows = [("lam_abs", "norm")] + [(f"{m:.6e}", f"{v:.12e}")
                                    for m, v in zip(mags, norms)]
    runner.write_csv("norms.csv", rows)
    slope = float(np.polyfit(np.log(mags), np.log(norms), 1)[0])
    series = traces.resolvent_power_trace_spectral(sd, N, lam_tr)
    runner.write_csv("power_trace.csv", series.to_csv_rows())
    fit = asymptotics.fit_expansion((np.abs(lam_tr), series.values), terms)
    runner.write_csv("power_fit.csv", fit.to_csv_rows())
    runner.write_csv("summary.csv",
                     [("quantity", "value"),
                      ("norm_decay_slope", f"{slope:.6f}"),
                      ("leading_power", f"{fit.leading_detected().gamma + 0:.4f}"
                       if fit.detected_terms() else "none")])
    return EXIT_OK


def run_zeta(kv, runner, args):
    op = _operator(kv, args.config)
    t_min = _positive(kv, "t_min", 1e-3)
    t0 = _positive(kv, "t0", 0.1)
    lam_max = _cutoff(kv, "lam_max", asymptotics.HEAT_CUTOFF_EXPONENT / t_min)
    ts = np.geomspace(t_min, 1.2 * t0, _count(kv, "t_count", 120))
    k_max = _size(kv, "k_max", 4)
    z_eval = [parse_value("z_eval", z, complex)
              for z in kv.get("z_eval", "-3,-2.5,-1.5").split(",")]
    sd = _spectral(kv, runner, op, lam_max)
    series = traces.heat_trace(sd, ts)
    terms = asymptotics.predict_terms(op.mu, 0.0, 0.0, op.n, k_max,
                                      kind="heat")
    fit = asymptotics.fit_expansion(series, terms, window=(t_min, 1.05 * t0))
    zc = asymptotics.zeta_continue(series, fit, t0=t0)
    runner.write_csv("poles.csv", zc.poles_to_csv_rows())
    rows = [("z_re", "z_im", "value_re", "value_im")]
    for z in z_eval:
        v = zc.value(z)
        rows.append((f"{z.real:.6g}", f"{z.imag:.6g}",
                     f"{v.real:.12e}", f"{v.imag:.12e}"))
    runner.write_csv("values.csv", rows)
    bound = max(zc.truncation_bound(z) for z in z_eval)
    runner.notes.append(f"zeta truncation bound {bound:.3e} (max over z_eval)")
    return EXIT_OK


def run_index(kv, runner, args):
    rng = np.random.default_rng(args.seed)
    eps_list = [parse_value("eps_list", s)
                for s in kv.get("eps_list", "0,0.1,0.3").split(",")]
    kind = kv.get("b_kind", "gaussian")
    rows_n, cols_n = _size(kv, "b_rows", 40), _size(kv, "b_cols", 60)
    if kind == "gaussian":
        B = rng.standard_normal((rows_n, cols_n))
    elif kind == "symmetric":
        B = rng.standard_normal((rows_n, rows_n))
        B = B + B.T
    else:
        raise ConfigurationError("b_kind must be gaussian or symmetric",
                                 key="b_kind", got=kind)
    H = indextools.lorentzian_perturbation(_f(kv, "h_c", 1.25),
                                           _f(kv, "h_b", 0.5),
                                           _f(kv, "h_weight", 1.0))
    report = indextools.index_assemble(indextools.Factorization(B, H))
    runner.write_csv("index_report.csv", report.to_csv_rows())
    oracle = indextools.argument_principle_count(H)
    runner.notes.append(f"argument principle count {oracle}")
    if "operator" in kv:
        op = _operator(kv, args.config)
        disc = coneop.discretize(op, _f(kv, "s_min", -10.0),
                                 _i(kv, "npoints", 600))
        taus = [2.0 ** -k for k in range(2, 9)]
        res = indextools.invariance_red_to_const(disc, taus)
        rows = [("tau", "ratio")] + [(f"{t:.6e}", f"{r:.6e}")
                                     for t, r in zip(res.taus, res.ratios)]
        rows.append(("slope", f"{res.slope:.4f}"))
        runner.write_csv("red_to_const.csv", rows)
        rep = indextools.invariance_red_to_sobolev(disc, eps_list)
        rows = [("eps", "dim_kernel", "dim_cokernel", "crossing")]
        for r in rep.rows:
            rows.append((r.eps,
                         "UNDECIDED" if r.dim_kernel is None else r.dim_kernel,
                         "UNDECIDED" if r.dim_cokernel is None else r.dim_cokernel,
                         int(r.crossing)))
        runner.write_csv("red_to_sobolev.csv", rows)
        if not rep.all_decided():
            runner.status = "undecided"
            return EXIT_UNDECIDED
    if abs(report.integer_distance) > 1e-6:
        runner.status = "undecided"
        return EXIT_UNDECIDED
    return EXIT_OK


def run_verify(kv, runner, args):
    rng = np.random.default_rng(args.seed)
    checks = []

    # index set laws against brute-force enumeration
    cases = _i(kv, "cases", 2000)
    if not 1 <= cases <= MAX_VERIFY_CASES:
        raise ConfigurationError(f"cases must lie in [1, {MAX_VERIFY_CASES}]",
                                 key="cases", got=kv["cases"])
    bad = 0
    for _ in range(cases):
        E = oracles.random_index_set(rng)
        F = oracles.random_index_set(rng)
        if not oracles.index_algebra_agrees(E, F, E, F):
            bad += 1
    checks.append(("indexset_laws", "pass" if bad == 0 else "fail",
                   f"{cases - bad}/{cases}"))

    # symbol seminorms: membership and a deliberate misdeclaration
    member_ok, worst, caught, slope = oracles.symbol_class_check()
    checks.append(("seminorm_membership", "pass" if member_ok else "fail",
                   f"worst={worst:.3e}"))
    checks.append(("seminorm_misdeclared", "pass" if caught else "fail",
                   f"slope={slope:.3f}"))

    # pushforward and ODE oracles on randomized separable cases
    xg = np.geomspace(1e-4, 0.09, 40)
    push_ok, _, _ = oracles.pushforward_suite(rng, 8, xg)
    checks.append(("pushforward_cases", "pass" if push_ok else "fail",
                   "8 cases"))
    ode_ok, _, _ = oracles.ode_explicit_check(xg)
    checks.append(("ode_solution", "pass" if ode_ok else "fail", "-"))

    # component integral identity
    ident_ok, resid = oracles.component_identity_check()
    checks.append(("component_identity", "pass" if ident_ok else "fail",
                   f"resid={resid:.2e}"))

    rows = [("check", "status", "metric")] + checks
    runner.write_csv("checks.csv", rows)
    if any(c[1] != "pass" for c in checks):
        runner.status = "failed"
        return EXIT_INVALID
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


SUBCOMMANDS = {
    "spectrum": run_spectrum,
    "heat": run_heat,
    "resolvent": run_resolvent,
    "zeta": run_zeta,
    "index": run_index,
    "verify": run_verify,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="conespec",
        description="desk-scale spectral asymptotics for model cone operators")
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="flat key=value file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--svg", action="store_true",
                        help="emit fit-vs-data SVG plots")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config_path = Path(args.config)
    found = config_path.exists()
    digest = config_digest(config_path) if found else "missing"
    runner = Runner(args.out, f"config={digest} seed={args.seed}")
    try:
        if not found:
            raise ConfigurationError("config not found", path=str(config_path))
        kv = read_kv(config_path)
        if "operator" in kv:
            op_path = _operator_path(kv, config_path)
            op_digest = config_digest(op_path) if op_path.is_file() else "missing"
            runner.provenance += f" operator={op_digest}"
        runner.provenance += f" conespec={__version__}"
        code = SUBCOMMANDS[args.subcommand](kv, runner, args)
    except ConespecError as exc:
        runner.status = f"incomplete: {exc}"
        for key, value in exc.payload_items():
            runner.notes.append(f"{key}={value}")
        runner.finish()
        print(f"error: {exc}", file=sys.stderr)
        for key, value in exc.payload_items():
            print(f"  {key} = {value}", file=sys.stderr)
        return EXIT_INVALID
    runner.finish()
    print(f"{args.subcommand}: {runner.status}; outputs in {runner.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
