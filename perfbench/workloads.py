"""Seeded study generator, study runners and oracle checks.

A workload is one cycle of studies drawn from the seed.  Each study is a
set of generated ``.op``/``.cfg`` files plus the parameters the checks
need.  CLI studies go through ``conespec.cli.main`` in process; the
weighted-eigenpair studies are library calls, because no subcommand
exposes that path.

The shapes that set a study's cost (grid points, eigenvalue caps, mode
windows, time windows) come from fixed per-workload lists; the seed draws
the operator constants around fixed slots, the perturbations, the CLI and
index seeds and the study order.  So two seeds give different inputs of
the same cost and the same accuracy class, and a claim measured on one
seed can be re-checked on another.
"""

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv

from conespec import cli, coneop, opfile, traces
from conespec import index as indextools

WORKLOADS = ("grid_eigen", "oracle_traces", "weighted_eigenpairs",
             "oracle_checks")

# the kind of the one untimed warm-up study: the workload's cheapest
WARMUP_KIND = {"grid_eigen": "spectrum", "oracle_traces": "resolvent",
               "weighted_eigenpairs": "weighted", "oracle_checks": "index"}

# Tolerances of the per-study checks; each is the repository's own.
SPECTRUM_REL_TOL = 1e-3          # grid against Bessel oracle
HEAT_EXPONENT_TOL = 0.02         # ACCEPT-05
RESOLVENT_SLOPE = (-1.05, -0.95)  # ACCEPT-03
ZETA_POLE_TOL = 0.05             # ACCEPT-07
ZETA_VALUE_TOL = 1e-6            # ACCEPT-07, absolute at z = -3
INDEX_INTEGER_TOL = 1e-6         # ACCEPT-12
CONTOUR_REL_TOL = 5e-3           # test_contour_matches_eigen_sum
VERIFY_CHECKS = ("indexset_laws", "seminorm_membership", "seminorm_misdeclared",
                 "pushforward_cases", "ode_solution", "component_identity")

# Oracle spectra for the z = -3 power sum must resolve the tail to 1e-6
# relative (complex_power_sum refuses otherwise), which needs about 4e4.
ZETA_ORACLE_LAM_MAX = 4.0e4

# Operator constants a lie in A_RANGE: the i-th of n studies of a kind
# takes the i-th of n evenly spaced values, jittered by the seed.  Each
# kind spans the range whatever the seed, and a study's cost (which
# depends on a through its spectrum) moves only with the jitter.
A_RANGE = (1.15, 1.75)
A_JITTER = 0.05

GRID_LAM_H2 = 0.02


@dataclass
class Study:
    """One generated study: its kind, input files and check parameters."""

    kind: str            # spectrum, heat, resolvent, zeta, index, verify, weighted
    name: str            # unique within the cycle
    config: Path         # .cfg for CLI studies, .op for weighted studies
    params: dict = field(default_factory=dict)
    seed: int = 0        # --seed handed to the CLI


@dataclass
class Outcome:
    """What a study returned: the CLI exit code and the output directory,
    or the values of a library study."""

    code: int
    out: Path
    values: dict = field(default_factory=dict)


@dataclass
class Verdict:
    ok: bool
    rel_err: float       # worst relative error against the study's oracle
    detail: str = ""


# ---------------------------------------------------------------------------
# generation


def _write_op(path, a, modes, perturbation=None):
    c0 = f"m^2 + {a * a!r}"
    if perturbation is not None:
        amp, freq = perturbation
        c0 += f" + {amp!r}*x*cos({freq!r}*x)"
    path.write_text(f"mu = 2\nalpha = 1\nmodes = -{modes}..{modes}\n"
                    f"bc = dirichlet\ncoeff[0] = {c0}\ncoeff[2] = 1\n")
    return path


def _write_cfg(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return path


def _a_values(rng, n):
    """n operator constants evenly spread over A_RANGE, jittered."""
    return [round(float(a + rng.uniform(-A_JITTER, A_JITTER)), 6)
            for a in np.linspace(*A_RANGE, n)]


def _bessel_zero(nu, k):
    """The k-th positive zero of J_nu, by scipy alone (not the program)."""
    x = np.arange(max(nu, 1e-6), nu + 4.0 * k + 4.0, 0.05)
    f = jv(nu, x)
    flips = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]
    return brentq(lambda t: jv(nu, t), x[flips[k - 1]], x[flips[k - 1] + 1])


def _gen_grid_eigen(rng, d):
    # Each study sizes its grid for a stated accuracy: the relative error
    # of eigenvalue lam is about 0.025 * lam * h^2, so the grid step h is
    # set from lam_max * h^2 = GRID_LAM_H2 (error near 5e-4, half the check).
    # A frozen study's lam_max sits 2% above the k-th oracle eigenvalue of
    # mode 0 (k = 2 or 3), so its worst error does not jump as an
    # eigenvalue crosses the cap when the seed moves a.  The perturbed
    # studies sit between the two frozen sizes, so the median study is a
    # perturbed one whatever the noise.
    s_min = -5.5
    studies = []
    for variant in ("frozen", "perturbed"):
        for j, a in enumerate(_a_values(rng, 4)):
            i = len(studies)
            if variant == "frozen":
                pert = None
                lam_max = round(1.02 * _bessel_zero(a, (2, 3)[j % 2]) ** 2, 6)
            else:
                pert = (round(float(rng.uniform(0.3, 0.8)), 6),
                        round(float(rng.uniform(0.8, 1.8)), 6))
                lam_max = round(float(rng.uniform(76.0, 84.0)), 6)
            npts = math.ceil(-s_min * math.sqrt(lam_max / GRID_LAM_H2))
            op = _write_op(d / f"spec{i:02d}.op", a, 1, pert)
            cfg = _write_cfg(d / f"spec{i:02d}.cfg", operator=op.name, strip=8,
                             lam_max=lam_max, s_min=s_min, npoints=npts)
            studies.append(Study("spectrum", f"spectrum-{i:02d}", cfg,
                                 {"frozen": pert is None, "lam_max": lam_max,
                                  "op": op}))
    return studies


def _gen_oracle_traces(rng, d):
    studies = []
    a_vals = iter(_a_values(rng, 3))
    for i, t_min in enumerate((2.0e-3, 2.25e-3, 2.5e-3)):
        op = _write_op(d / f"heat{i}.op", next(a_vals), 8)
        lam_max = round(27.5 / t_min, 3)
        cfg = _write_cfg(d / f"heat{i}.cfg", operator=op.name, t_min=t_min,
                         t_max=0.12, t_count=60, k_max=4, window_lo=t_min,
                         window_hi=0.105, lam_max=lam_max)
        studies.append(Study("heat", f"heat-{i}", cfg))
    # spectral caps that give a resolvent study about the cost of a heat
    # study: with every study of the cycle in one cluster of times, the
    # median and tail read the middle of that cluster, not the edge of a gap
    a_vals = iter(_a_values(rng, 3))
    for i, lam_spec in enumerate((9000.0, 12000.0, 15000.0)):
        op = _write_op(d / f"res{i}.op", next(a_vals), 8)
        cfg = _write_cfg(d / f"res{i}.cfg", operator=op.name,
                         lam_max_spec=lam_spec, lam_min=1e2, lam_max=1e6,
                         count=40, N=2, trace_lam_min=10,
                         trace_lam_max=round(float(rng.uniform(60.0, 150.0)), 3),
                         trace_count=40, k_max=3)
        studies.append(Study("resolvent", f"resolvent-{i}", cfg))
    a_vals = iter(_a_values(rng, 2))
    for i, t_min in enumerate((6.0e-3, 8.0e-3)):
        a = next(a_vals)
        op = _write_op(d / f"zeta{i}.op", a, 8)
        lam_max = round(30.0 / t_min, 3)
        t0 = round(float(rng.uniform(0.09, 0.11)), 6)
        cfg = _write_cfg(d / f"zeta{i}.cfg", operator=op.name, t_min=t_min,
                         t0=t0, t_count=80, k_max=4, lam_max=lam_max,
                         z_eval="-3,-2.5,-1.5")
        studies.append(Study("zeta", f"zeta-{i}", cfg,
                             {"op": op, "lam_max": lam_max}))
    return studies


def _gen_weighted(rng, d):
    # (mode cap, npoints, lam_cap): many modes with few eigenpairs each
    shapes = [(2, 150, 800.0), (3, 150, 700.0), (3, 130, 800.0)]
    studies = []
    a_vals = iter(_a_values(rng, 2 * len(shapes)))
    for beta in (0.5, 1.0):
        for modes, npts, lam_cap in shapes:
            i = len(studies)
            op = _write_op(d / f"wsd{i}.op", next(a_vals), modes)
            studies.append(Study("weighted", f"weighted-{i}", op,
                                 {"beta": round(beta + float(rng.uniform(-0.1, 0.1)), 6),
                                  "s_min": -6.0, "npoints": npts,
                                  "lam_cap": lam_cap,
                                  "t_c": 45.0 / lam_cap}))
    return studies


def _gen_oracle_checks(rng, d):
    studies = [Study("verify", "verify", _write_cfg(d / "verify.cfg", cases=500),
                     seed=int(rng.integers(0, 2 ** 31)))]
    op = _write_op(d / "index.op", 1.5, 1,
                   (round(float(rng.uniform(0.4, 0.8)), 6),
                    round(float(rng.uniform(0.8, 1.8)), 6)))
    b_shapes = [("symmetric", 16, 16), ("gaussian", 16, 20),
                ("symmetric", 24, 24), ("gaussian", 24, 20)]
    eps_lists = ["0,0.1,0.3", "0,0.05,0.2"]
    for i in range(12):
        kind, rows, cols = b_shapes[i % len(b_shapes)]
        h_c = round(float(rng.uniform(0.8, 1.6)), 6)
        h_b = round(float(rng.uniform(0.3, 0.7)), 6)
        cfg = _write_cfg(d / f"index{i}.cfg", b_kind=kind, b_rows=rows,
                         b_cols=cols, h_c=h_c, h_b=h_b, h_weight=1,
                         operator=op.name, s_min=-8,
                         npoints=(220, 260, 300)[i % 3],
                         eps_list=eps_lists[i % 2])
        studies.append(Study("index", f"index-{i}", cfg,
                             {"h_c": h_c, "h_b": h_b, "h_weight": 1.0},
                             seed=int(rng.integers(0, 2 ** 31))))
    return studies


_GENERATORS = {"grid_eigen": _gen_grid_eigen,
               "oracle_traces": _gen_oracle_traces,
               "weighted_eigenpairs": _gen_weighted,
               "oracle_checks": _gen_oracle_checks}


def generate(workload, seed, directory):
    """Write the workload's input files into ``directory``; return its cycle.

    The same (workload, seed) gives the same files and the same order.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    studies = _GENERATORS[workload](rng, directory)
    order = rng.permutation(len(studies))
    return [studies[i] for i in order]


# ---------------------------------------------------------------------------
# running


def run_study(study, out_root):
    """Run one study through the program's public entry points."""
    out = Path(out_root) / study.name
    if study.kind == "weighted":
        return Outcome(0, out, _run_weighted(study))
    argv = [study.kind, "--config", str(study.config), "--out", str(out),
            "--seed", str(study.seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return Outcome(code, out)


def _run_weighted(study):
    p = study.params
    op = opfile.parse_operator(study.config)
    disc = coneop.discretize(op, p["s_min"], p["npoints"])
    weight = traces.WeightOperator(beta=p["beta"])
    wsd = traces.weighted_spectral_data(disc, weight, p["lam_cap"])
    heat = traces.weighted_heat_trace(wsd, weight,
                                      np.geomspace(p["t_c"], 0.5, 30))
    resolvent = traces.resolvent_power_trace(wsd, weight, 3,
                                             -np.geomspace(1.0, 10.0, 16))
    contour = traces.heat_trace_contour(disc, p["t_c"], N=3,
                                        bdiag=weight.multiplier(disc.x))
    return {"op": op, "wsd": wsd, "heat": heat, "resolvent": resolvent,
            "contour": contour}


# ---------------------------------------------------------------------------
# oracle checks


def _csv_rows(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]  # drop the header


def spectrum_rel_err(grid, oracle, lam_max=None):
    """Worst relative error of grid eigenvalues against oracle ones.

    ``grid`` and ``oracle`` map mode -> ascending eigenvalues.  With
    ``lam_max`` given, every oracle eigenvalue below it (less a 1e-3
    margin, where the grid value may fall on either side of the cap) must
    have a grid partner; a missing one counts as an infinite error.
    """
    worst = 0.0
    for m, lam_o in oracle.items():
        lam_g = np.asarray(grid.get(m, ()), dtype=float)
        if lam_max is not None:
            need = np.sum(np.asarray(lam_o) < lam_max * (1.0 - SPECTRUM_REL_TOL))
            if len(lam_g) < need:
                return math.inf
        k = min(len(lam_g), len(lam_o))
        if k:
            rel = np.abs(lam_g[:k] - lam_o[:k]) / lam_o[:k]
            worst = max(worst, float(np.max(rel)))
    return worst


def check_spectrum_frozen(grid, oracle, lam_max):
    err = spectrum_rel_err(grid, oracle, lam_max)
    return Verdict(err < SPECTRUM_REL_TOL, err, f"max rel err {err:.3e}")


def check_spectrum_perturbed(grid):
    """No oracle exists for x-dependent coefficients: eigenvalues must be
    finite, positive and strictly ascending in every mode."""
    ok = bool(grid)
    for lam in grid.values():
        lam = np.asarray(lam, dtype=float)
        ok = ok and bool(len(lam) and np.all(np.isfinite(lam))
                         and np.all(lam > 0) and np.all(np.diff(lam) > 0))
    return Verdict(ok, 0.0, "finite, positive, ascending" if ok else
                   "bad eigenvalues")


def check_heat(lead):
    err = abs(lead + 1.0)
    return Verdict(err <= HEAT_EXPONENT_TOL, err, f"leading exponent {lead:.6f}")


def check_resolvent(slope):
    lo, hi = RESOLVENT_SLOPE
    return Verdict(lo <= slope <= hi, abs(slope + 1.0), f"slope {slope:.6f}")


def check_zeta(poles, value, oracle_value):
    """``poles`` is a list of (z, order); value and oracle are at z = -3."""
    if not poles:
        return Verdict(False, math.inf, "no poles reported")
    z, order = min(poles, key=lambda p: p[0].real)
    pole_err = abs(z + 1.0)
    val_err = abs(value - oracle_value)
    ok = pole_err < ZETA_POLE_TOL and order == 1 and val_err < ZETA_VALUE_TOL
    rel = max(pole_err, val_err / abs(oracle_value))
    return Verdict(ok, rel, f"pole {z} order {order}, |diff(-3)| {val_err:.2e}")


def check_index(value, eta, count):
    dist = abs(value - round(value))
    eta_err = abs(eta - count)
    ok = dist < INDEX_INTEGER_TOL and eta_err < INDEX_INTEGER_TOL
    return Verdict(ok, max(dist, eta_err),
                   f"integer distance {dist:.2e}, eta {eta!r} vs count {count}")


def check_verify(rows):
    """``rows`` are (check, status, metric) rows of checks.csv."""
    status = {r[0]: r[1] for r in rows}
    missing = [c for c in VERIFY_CHECKS if c not in status]
    failed = [c for c, s in status.items() if s != "pass"]
    ok = not missing and not failed
    rel = 0.0
    metric = {r[0]: r[2] for r in rows}
    if metric.get("seminorm_misdeclared", "").startswith("slope="):
        # a misdeclared order shows as growth slope 1: distance from it
        rel = abs(float(metric["seminorm_misdeclared"][6:]) - 1.0)
    return Verdict(ok, rel, f"missing {missing}, failed {failed}")


def check_weighted(contour, eig_sum, grid, oracle):
    """The contour quadrature must reproduce the eigenvalue sum; the
    coarse-grid eigenvalue error is reported, not gated."""
    gap = abs(contour - eig_sum) / abs(eig_sum)
    err = spectrum_rel_err(grid, oracle)
    ok = gap < CONTOUR_REL_TOL and math.isfinite(err)
    return Verdict(ok, err, f"contour gap {gap:.2e}, eigen rel err {err:.2e}")


class Oracles:
    """Independent reference values, computed once per study input.

    Every study of a cycle recurs with the same input, so the reference is
    cached by study name.  Computing it is not part of the timed study.
    """

    def __init__(self):
        self._cache = {}

    def get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]


def _oracle_eigs(op, lam_max):
    sd = coneop.oracle_spectral_data(op, lam_max)
    return {m: np.asarray(v) for m, v in sd.eigs.items()}


def check_study(study, outcome, oracles):
    """Check one study's outputs against its oracle.  Never raises."""
    try:
        return _check(study, outcome, oracles)
    except Exception as exc:  # a malformed output is a failed study
        return Verdict(False, math.inf, f"check raised {exc!r}")


def _check(study, outcome, oracles):
    if outcome.code != 0:
        return Verdict(False, math.inf, f"exit code {outcome.code}")
    out = outcome.out
    kind = study.kind
    if kind == "spectrum":
        grid = {}
        for m, _, lam, _ in _csv_rows(out / "spectral.csv"):
            grid.setdefault(int(m), []).append(float(lam))
        if not study.params["frozen"]:
            return check_spectrum_perturbed(grid)
        p = study.params
        oracle = oracles.get(study.name, lambda: _oracle_eigs(
            opfile.parse_operator(p["op"]), p["lam_max"]))
        return check_spectrum_frozen(grid, oracle, p["lam_max"])
    if kind == "heat":
        summary = dict(r[:2] for r in _csv_rows(out / "summary.csv"))
        return check_heat(float(summary["leading_exponent"]))
    if kind == "resolvent":
        summary = dict(r[:2] for r in _csv_rows(out / "summary.csv"))
        return check_resolvent(float(summary["norm_decay_slope"]))
    if kind == "zeta":
        poles = [(complex(float(r[0]), float(r[1])), int(r[2]))
                 for r in _csv_rows(out / "poles.csv")]
        values = {complex(float(r[0]), float(r[1])):
                  complex(float(r[2]), float(r[3]))
                  for r in _csv_rows(out / "values.csv")}
        p = study.params
        oracle = oracles.get(study.name, lambda: _zeta_oracle(p))
        return check_zeta(poles, values[complex(-3.0)], oracle)
    if kind == "index":
        _, eta, value = (float(c) for c in
                         _csv_rows(out / "index_report.csv")[0][:3])
        p = study.params
        count = oracles.get(study.name, lambda: indextools.argument_principle_count(
            indextools.lorentzian_perturbation(p["h_c"], p["h_b"], p["h_weight"])))
        return check_index(value, eta, count)
    if kind == "verify":
        return check_verify(_csv_rows(out / "checks.csv"))
    if kind == "weighted":
        v = outcome.values
        wsd = v["wsd"]
        if not (np.all(np.isfinite(v["heat"].values))
                and np.all(np.isfinite(v["resolvent"].values))):
            return Verdict(False, math.inf, "non-finite trace values")
        p = study.params
        eig_sum, _ = wsd.heat_value(p["t_c"])
        grid = {m: lams for m, (lams, _) in wsd.pairs.items()}
        oracle = oracles.get(study.name,
                             lambda: _oracle_eigs(v["op"], p["lam_cap"]))
        return check_weighted(v["contour"], eig_sum, grid, oracle)
    raise ValueError(f"unknown study kind {kind!r}")


def _zeta_oracle(p):
    # the CLI widens the operator to these modes before its spectrum
    op = opfile.parse_operator(p["op"]).with_modes(int(math.sqrt(p["lam_max"])) + 2)
    sd = coneop.oracle_spectral_data(op, ZETA_ORACLE_LAM_MAX)
    value, _ = traces.complex_power_sum(sd, -3.0)
    return value
