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
the config digest and seed) and a MANIFEST listing outputs with digests.
Exit codes: 0 success, 2 validation failure, 3 undecided verdicts.
"""

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, coneop, traces
from . import index as indextools
from . import oracles, symbols
from .errors import ConespecError, ConfigurationError
from .opfile import config_digest, parse_operator, read_kv

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNDECIDED = 3

PROFILES = {
    "default": {"seminorm_ppd": 40, "verify_cases": 2000, "push_cases": 8},
    "strict": {"seminorm_ppd": 40, "verify_cases": 10000, "push_cases": 20},
}


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


def _parse(key, text, convert=float):
    """Convert one config value; a malformed value is a configuration error."""
    try:
        return convert(text)
    except (ValueError, OverflowError):
        raise ConfigurationError("malformed config value", key=key,
                                 got=text) from None


def _f(kv, key, default=None):
    if key not in kv:
        if default is None:
            raise ConfigurationError("missing config key", key=key)
        return default
    return _parse(key, kv[key])


def _i(kv, key, default=None):
    return _parse(key, _f(kv, key, default), int)


def _operator(kv, config_path):
    op_path = Path(kv["operator"])
    if not op_path.is_absolute():
        op_path = Path(config_path).parent / op_path
    if not op_path.exists():
        raise ConfigurationError("operator file not found", path=str(op_path))
    return parse_operator(op_path)


def _spectral(kv, op, lam_max):
    kind = kv.get("spectrum", "oracle")
    if kind == "oracle":
        return coneop.oracle_spectral_data(op.frozen(), lam_max)
    if kind == "grid":
        disc = coneop.discretize(op, _f(kv, "s_min", -10.0),
                                 _i(kv, "npoints", 800))
        return coneop.grid_spectral_data(disc, lam_max)
    raise ConfigurationError("spectrum must be 'oracle' or 'grid'", got=kind)


# ---------------------------------------------------------------------------
# subcommands


def run_spectrum(kv, runner, args):
    op = _operator(kv, args.config)
    strip = _f(kv, "strip", 8.0)
    bspec = coneop.boundary_spectrum(op, strip)
    runner.write_csv("boundary_spectrum.csv", bspec.to_csv_rows())
    lam_max = _f(kv, "lam_max", 500.0)
    disc = coneop.discretize(op, _f(kv, "s_min", -12.0), _i(kv, "npoints", 1500))
    sd = coneop.grid_spectral_data(disc, lam_max)
    runner.write_csv("spectral.csv", sd.to_csv_rows())
    if op.is_frozen and abs(op.mu - 2.0) < 1e-12 and kv.get("oracle_compare", "1") != "0":
        sdo = coneop.oracle_spectral_data(op.frozen(), lam_max)
        rows = [("mode", "k", "grid", "oracle", "rel_err")]
        worst = 0.0
        for m in sd.modes():
            a = sd.eigs[m]
            b = sdo.eigs.get(m, np.empty(0))
            for k in range(min(len(a), len(b))):
                rel = abs(a[k] - b[k]) / b[k]
                worst = max(worst, rel)
                rows.append((m, k + 1, f"{a[k]:.12e}", f"{b[k]:.12e}",
                             f"{rel:.3e}"))
        runner.write_csv("oracle_compare.csv", rows)
        runner.notes.append(f"worst oracle relative error {worst:.3e}")
    return EXIT_OK


def run_heat(kv, runner, args):
    op = _operator(kv, args.config)
    t_min, t_max = _f(kv, "t_min", 1e-3), _f(kv, "t_max", 0.12)
    lam_max = _f(kv, "lam_max", 46.0 / t_min)
    # the trace of the full model needs every mode with spectrum below lam_max
    op = op.with_modes(int(math.sqrt(lam_max)) + 2)
    sd = _spectral(kv, op, lam_max)
    ts = np.geomspace(t_min, t_max, _i(kv, "t_count", 120))
    series = traces.heat_trace(sd, ts)
    runner.write_csv("trace.csv", series.to_csv_rows())
    terms = asymptotics.predict_terms(op.mu, 0.0, 0.0, 2, _i(kv, "k_max", 4),
                                      kind="heat")
    fit = asymptotics.fit_expansion(series, terms,
                                    window=(_f(kv, "window_lo", t_min),
                                            _f(kv, "window_hi", t_max)))
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
    lam_spec = _f(kv, "lam_max_spec", 2e4)
    op = op.with_modes(int(math.sqrt(lam_spec)) + 2)
    sd = _spectral(kv, op, lam_spec)
    mags = np.geomspace(_f(kv, "lam_min", 1e2), _f(kv, "lam_max", 1e6),
                        _i(kv, "count", 40))
    norms = [coneop.resolvent_norm(sd, -m) for m in mags]
    rows = [("lam_abs", "norm")] + [(f"{m:.6e}", f"{v:.12e}")
                                    for m, v in zip(mags, norms)]
    runner.write_csv("norms.csv", rows)
    slope = float(np.polyfit(np.log(mags), np.log(norms), 1)[0])
    N = _i(kv, "N", 2)
    lam_tr = -np.geomspace(_f(kv, "trace_lam_min", 10.0),
                           _f(kv, "trace_lam_max", 1e3),
                           _i(kv, "trace_count", 25))
    series = traces.resolvent_power_trace_spectral(sd, N, lam_tr)
    runner.write_csv("power_trace.csv", series.to_csv_rows())
    terms = asymptotics.predict_terms(op.mu, 0.0, 0.0, 2,
                                      _i(kv, "k_max", 4), kind="resolvent", N=N)
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
    t_min = _f(kv, "t_min", 1e-3)
    t0 = _f(kv, "t0", 0.1)
    lam_max = _f(kv, "lam_max", 46.0 / t_min)
    op = op.with_modes(int(math.sqrt(lam_max)) + 2)
    sd = _spectral(kv, op, lam_max)
    ts = np.geomspace(t_min, 1.2 * t0, _i(kv, "t_count", 120))
    series = traces.heat_trace(sd, ts)
    terms = asymptotics.predict_terms(op.mu, 0.0, 0.0, 2, _i(kv, "k_max", 4),
                                      kind="heat")
    fit = asymptotics.fit_expansion(series, terms, window=(t_min, 1.05 * t0))
    zc = asymptotics.zeta_continue(series, fit, t0=t0)
    runner.write_csv("poles.csv", zc.poles_to_csv_rows())
    rows = [("z_re", "z_im", "value_re", "value_im")]
    for z_text in kv.get("z_eval", "-3,-2.5,-1.5").split(","):
        z = _parse("z_eval", z_text, complex)
        v = zc.value(z)
        rows.append((f"{z.real:.6g}", f"{z.imag:.6g}",
                     f"{v.real:.12e}", f"{v.imag:.12e}"))
    runner.write_csv("values.csv", rows)
    return EXIT_OK


def run_index(kv, runner, args):
    rng = np.random.default_rng(args.seed)
    eps_list = [_parse("eps_list", s)
                for s in kv.get("eps_list", "0,0.1,0.3").split(",")]
    kind = kv.get("b_kind", "gaussian")
    rows_n, cols_n = _i(kv, "b_rows", 40), _i(kv, "b_cols", 60)
    if kind == "gaussian":
        B = rng.standard_normal((rows_n, cols_n))
    elif kind == "symmetric":
        B = rng.standard_normal((rows_n, rows_n))
        B = B + B.T
    else:
        raise ConfigurationError("b_kind must be gaussian or symmetric",
                                 got=kind)
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
    profile = PROFILES[args.tolerance_profile]
    rng = np.random.default_rng(args.seed)
    checks = []

    # index set laws against brute-force enumeration
    cases = _i(kv, "cases", profile["verify_cases"])
    bad = 0
    for _ in range(cases):
        E = oracles.random_index_set(rng)
        F = oracles.random_index_set(rng)
        if not oracles.index_algebra_agrees(E, F, E, F):
            bad += 1
    checks.append(("indexset_laws", "pass" if bad == 0 else "fail",
                   f"{cases - bad}/{cases}"))

    # symbol seminorms: membership and a deliberate misdeclaration
    sec = symbols.LEFT_HALF_PLANE
    q = symbols.resolvent_symbol(lambda xi: np.asarray(xi) ** 2, 2.0, sec)
    rep = symbols.seminorm_check(q, 2, 2, pts_per_decade=profile["seminorm_ppd"])
    checks.append(("seminorm_membership", "pass" if rep.passed else "fail",
                   f"worst={max(r.worst_ratio for r in rep.rows):.3e}"))
    bad_claim = q.with_orders((-3.0, -2.0, 2.0))
    rep_bad = symbols.seminorm_check(bad_claim, 0, 0,
                                     pts_per_decade=profile["seminorm_ppd"])
    slope = rep_bad.rows[0].growth_slope
    checks.append(("seminorm_misdeclared", "pass" if (not rep_bad.passed and
                                                      slope >= 0.9) else "fail",
                   f"slope={slope:.3f}"))

    # pushforward and ODE oracles on randomized separable cases
    xg = np.geomspace(1e-4, 0.09, 40)
    push_ok, _, _ = oracles.pushforward_suite(rng, profile["push_cases"], xg)
    checks.append(("pushforward_cases", "pass" if push_ok else "fail",
                   f"{profile['push_cases']} cases"))
    ode_ok, _, _ = oracles.ode_explicit_check(xg)
    checks.append(("ode_solution", "pass" if ode_ok else "fail", "-"))

    # component integral identity
    chi = symbols.ChiCutoff(1.0)
    res = asymptotics.trace_component_Ak(
        lambda xi, lam: (np.asarray(xi) ** 2 - lam) ** -2.0, chi,
        np.geomspace(1e-3, 1e-1, 16), mu=2.0, N=2, mu_prime=0.0, n=1, k=0)
    checks.append(("component_identity",
                   "pass" if res.identity_residual < 1e-6 else "fail",
                   f"resid={res.identity_residual:.2e}"))

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
    parser.add_argument("--tolerance-profile", choices=sorted(PROFILES),
                        default="default")
    args = parser.parse_args(argv)

    config_path = Path(args.config)
    if not config_path.exists():
        print(f"error: config not found: {config_path}", file=sys.stderr)
        return EXIT_INVALID
    provenance = f"config={config_digest(config_path)} seed={args.seed}"
    runner = Runner(args.out, provenance)
    try:
        kv = read_kv(config_path)
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
