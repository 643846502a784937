import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import conespec
from conespec.cli import main
from conespec.errors import ConfigurationError
from conespec.exprs import compile_expr
from conespec.opfile import config_digest, parse_operator

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


# ---------------------------------------------------------------------------
# expression and operator file parsing


def test_expr_polynomial_in_mode_and_x():
    fn = compile_expr("m^2 + 2.25 + 0.5*x*cos(1.3*x)")
    assert fn(2, 0.0) == pytest.approx(6.25)
    x = np.linspace(0, 1, 5)
    assert fn(0, x).shape == x.shape
    for text in ("x^-2", "x^0.5", "(m^8 + 1)^8", "m^-64"):
        compile_expr(text)  # literal exponents, nested product <= 64


def test_expr_rejects_unsafe_code():
    with pytest.raises(ConfigurationError):
        compile_expr("__import__('os').system('true')")
    with pytest.raises(ConfigurationError):
        compile_expr("open('x')")
    # validated only: evaluating these with Python ints would not finish
    for text in ("m^2 + 9^9^9", "m^99999999", "m^x", "m^(1+1)",
                 "((m^8)^8)^2", "2^-65"):
        with pytest.raises(ConfigurationError):
            compile_expr(text)


def test_parse_shipped_operator():
    op = parse_operator(CONFIGS / "laplace_a1.5.op")
    assert op.mu == 2.0 and op.alpha == 1.0
    assert op.modes == (-8, 8)
    assert op.is_frozen
    assert np.allclose(op.indicial(3),
                       [11.25, 0.0, 1.0])


def test_parse_perturbed_operator_splits_conormal_part():
    op = parse_operator(CONFIGS / "laplace_perturbed.op")
    assert not op.is_frozen
    frozen = op.frozen()
    assert np.allclose(frozen.indicial(0),
                       [2.25, 0.0, 1.0])


def test_operator_rematerializes_on_wider_window():
    op = parse_operator(CONFIGS / "laplace_a1.5.op").with_modes(30)
    assert op.modes == (-30, 30)
    assert op.indicial(30)[0] == 900 + 2.25


def test_parse_reads_x_dependence_from_the_expression(tmp_path):
    # the x term vanishes on the even modes, which a probe of modes 0 and
    # mmax alone would take for frozen coefficients
    path = tmp_path / "odd.op"
    path.write_text(LAPLACE_OP.replace("modes = -8..8", "modes = -2..2").replace(
        "coeff[0] = m^2 + 2.25", "coeff[0] = m^2 + 2.25 + 5*x*sin(m*pi/2)"))
    op = parse_operator(path)
    assert not op.is_frozen
    assert op.coeffs(1, 0.5)[0] == 5.75
    assert op.coeffs(2, 0.5)[0] == pytest.approx(6.25, abs=1e-14)
    assert np.array_equal(op.indicial(1), [3.25, 0.0, 1.0])
    assert op.frozen().coeffs(1, 0.5)[0] == 3.25
    # x-dependence is read from the expression, not from its values
    path.write_text(LAPLACE_OP.replace("coeff[2] = 1", "coeff[2] = 1 + 0*x"))
    assert not parse_operator(path).is_frozen


# ---------------------------------------------------------------------------
# subcommand runs (small configs; the shipped ones are exercised in the
# acceptance suite where the budgets are larger)


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


def test_spectrum_run_matches_oracle(tmp_path):
    cfg = write_cfg(tmp_path / "s.cfg", f"""
operator = {CONFIGS / 'laplace_a1.5.op'}
strip = 6
lam_max = 120
s_min = -11
npoints = 1600
""")
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "oracle_compare.csv").read_text().splitlines()
    worst = max(float(r.split(",")[-1]) for r in rows[2:])
    assert worst < 1e-3
    manifest = (tmp_path / "out" / "MANIFEST").read_text()
    assert "status: complete" in manifest and "sha256:" in manifest


def test_provenance_follows_the_operator_file(tmp_path):
    # editing the operator changes the outputs, so it must change the
    # provenance too; the config and the seed stay the same
    op = tmp_path / "model.op"
    text = (CONFIGS / "laplace_a1.5.op").read_text()
    cfg = write_cfg(tmp_path / "s.cfg", """
operator = model.op
strip = 6
lam_max = 60
s_min = -8
npoints = 400
""")
    lines = []
    for a2 in ("2.25", "2.5"):
        op.write_text(text.replace("m^2 + 2.25", f"m^2 + {a2}"))
        out = tmp_path / a2
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        lines.append((out / "spectral.csv").read_text().splitlines()[0])
        assert lines[-1] == (
            f"# provenance: config={config_digest(cfg)} seed=0 "
            f"operator={config_digest(op)} conespec={conespec.__version__}")
        assert (out / "MANIFEST").read_text().splitlines()[0] == lines[-1]
    assert lines[0] != lines[1]


def test_zeta_run_reports_leading_pole(tmp_path):
    cfg = write_cfg(tmp_path / "z.cfg", f"""
operator = {CONFIGS / 'laplace_a1.5.op'}
t_min = 4e-3
t0 = 0.1
t_count = 90
k_max = 3
lam_max = 11500
z_eval = -3
""")
    code = main(["zeta", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "poles.csv").read_text().splitlines()[2:]
    first = rows[0].split(",")
    assert float(first[0]) == pytest.approx(-1.0)
    assert int(first[2]) == 1


def test_verify_run_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path / "v.cfg", "cases = 200\n")
    for sub in ("a", "b"):
        code = main(["verify", "--config", cfg, "--seed", "11",
                     "--out", str(tmp_path / sub)])
        assert code == 0
    da = hashlib.sha256((tmp_path / "a" / "checks.csv").read_bytes()).digest()
    db = hashlib.sha256((tmp_path / "b" / "checks.csv").read_bytes()).digest()
    assert da == db


def test_verify_runs_a_single_case(tmp_path):
    # the smallest case count allowed; zero and negative counts exit 2
    cfg = write_cfg(tmp_path / "v.cfg", "cases = 1\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    checks = (tmp_path / "o" / "checks.csv").read_text()
    assert "indexset_laws,pass,1/1" in checks


def test_missing_config_exits_invalid(tmp_path):
    assert main(["heat", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("sub", ["spectrum", "verify"])
def test_missing_config_writes_incomplete_manifest(tmp_path, sub):
    missing = tmp_path / "missing.cfg"
    code = main([sub, "--config", str(missing), "--seed", "3",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    lines = (tmp_path / "out" / "MANIFEST").read_text().splitlines()
    assert lines[0] == "# provenance: config=missing seed=3"
    assert lines[1] == "status: incomplete: config not found"
    assert f"note: path={missing}" in lines


def test_bad_operator_reference_exits_invalid(tmp_path):
    cfg = write_cfg(tmp_path / "h.cfg", "operator = missing.op\n")
    code = main(["heat", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    manifest = (tmp_path / "out" / "MANIFEST").read_text()
    assert "incomplete" in manifest


def test_index_run_assembles_integer(tmp_path):
    cfg = write_cfg(tmp_path / "i.cfg", """
b_kind = symmetric
b_rows = 16
b_cols = 16
h_c = 1.25
h_b = 0.5
h_weight = 1
""")
    code = main(["index", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    row = (tmp_path / "out" / "index_report.csv").read_text().splitlines()[2]
    omega, eta, value, dist = row.split(",")[:4]
    assert abs(float(value) + 1.0) < 1e-6
    assert float(dist) < 1e-6


def test_index_run_refuses_singular_perturbation(tmp_path):
    # 1 + H vanishes on the line at sigma = -i
    cfg = write_cfg(tmp_path / "i.cfg", """
b_kind = symmetric
b_rows = 16
b_cols = 16
h_c = 0.75
h_b = 0.5
h_weight = 1
""")
    code = main(["index", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    manifest = (tmp_path / "out" / "MANIFEST").read_text()
    assert "incomplete" in manifest
    assert not (tmp_path / "out" / "index_report.csv").exists()


def test_spectrum_run_skips_oracle_for_perturbed_operator(tmp_path):
    # the Bessel oracle describes the frozen model only
    cfg = write_cfg(tmp_path / "s.cfg", f"""
operator = {CONFIGS / 'laplace_perturbed.op'}
lam_max = 60
npoints = 200
""")
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert not (tmp_path / "out" / "oracle_compare.csv").exists()


@pytest.mark.parametrize("op_file, frozen", [("laplace_perturbed.op", True),
                                             ("laplace_a1.5.op", False)])
def test_oracle_spectrum_notes_frozen_substitute(tmp_path, op_file, frozen):
    # the Bessel oracle describes the frozen model only, so a run on an
    # operator with x-dependent coefficients says that it used that model
    cfg = write_cfg(tmp_path / "h.cfg", f"""
operator = {CONFIGS / op_file}
t_min = 0.02
t_count = 20
k_max = 2
""")
    assert main(["heat", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = (tmp_path / "out" / "MANIFEST").read_text()
    assert ("note: oracle spectrum of the frozen laplace_perturbed\n"
            in manifest) == frozen


def test_heat_run_on_grid_spectrum_writes_svg(tmp_path):
    cfg = write_cfg(tmp_path / "h.cfg", f"""
operator = {CONFIGS / 'laplace_a1.5.op'}
spectrum = grid
npoints = 400
t_min = 0.02
t_count = 40
k_max = 2
""")
    out = tmp_path / "out"
    assert main(["heat", "--config", cfg, "--out", str(out), "--svg"]) == 0
    svg = (out / "fit.svg").read_bytes()
    assert svg.startswith(b"<svg")
    digest = hashlib.sha256(svg).hexdigest()
    assert (f"fit.svg sha256:{digest} bytes:{len(svg)}"
            in (out / "MANIFEST").read_text().splitlines())


OP_LINE = f"operator = {CONFIGS / 'laplace_a1.5.op'}\n"


@pytest.mark.parametrize("sub, text, key", [
    ("heat", OP_LINE + "t_min = abc\n", "t_min"),
    ("index", f"""operator = {CONFIGS / 'laplace_perturbed.op'}
npoints = 120
eps_list = 0,x
""", "eps_list"),
    ("heat", OP_LINE + "t_min = nan\n", "t_min"),
    ("heat", OP_LINE + "t_min = 0\n", "t_min"),
    ("heat", OP_LINE + "t_min = -1e-3\n", "t_min"),
    ("heat", OP_LINE + "lam_max = inf\n", "lam_max"),
    ("heat", OP_LINE + "t_count = 12.9\n", "t_count"),
    ("heat", OP_LINE + "t_max = 0\n", "t_max"),
    ("zeta", OP_LINE + "t0 = 0\n", "t0"),
    ("resolvent", OP_LINE + "lam_max_spec = -1\n", "lam_max_spec"),
    ("index", f"""operator = {CONFIGS / 'laplace_perturbed.op'}
npoints = 120
eps_list = 0,nan
""", "eps_list"),
    ("index", "b_rows = -3\n", "b_rows"),
    ("index", "b_kind = gaussian\nb_rows = 4\nb_cols = -1\n", "b_cols"),
    ("index", "b_kind = symmetric\nb_rows = -2\n", "b_rows"),
    ("verify", "cases = 0\n", "cases"),
    ("verify", "cases = -5\n", "cases"),
    ("verify", "cases = 100001\n", "cases"),
    ("verify", "cases = 1e9\n", "cases"),
    ("heat", OP_LINE + "k_max = -1\n", "k_max"),
    ("resolvent", OP_LINE + "count = 0\n", "count"),
    ("resolvent", OP_LINE + "trace_count = 0\n", "trace_count"),
    ("resolvent", OP_LINE + "lam_min = 0\n", "lam_min"),
    ("resolvent", OP_LINE + "lam_min = -5\n", "lam_min"),
    ("spectrum", OP_LINE + "lam_max = -5\nnpoints = 150\n", "lam_max"),
    ("spectrum", OP_LINE + "strip = -1\nnpoints = 150\n", "strip"),
    ("heat", OP_LINE + "spectrum = foo\n", "spectrum"),
    ("index", "b_kind = foo\n", "b_kind"),
], ids=["t_min", "eps_list", "t_min_nan", "t_min_zero", "t_min_negative",
        "lam_max_inf", "t_count_fractional", "t_max_zero", "t0_zero",
        "lam_max_spec_negative", "eps_list_nan", "b_rows_negative",
        "b_cols_negative", "b_rows_negative_symmetric", "cases_zero",
        "cases_negative", "cases_above_cap", "cases_1e9", "k_max_negative",
        "count_zero", "trace_count_zero", "lam_min_zero", "lam_min_negative",
        "spectrum_lam_max_negative", "spectrum_strip_negative",
        "spectrum_unknown", "b_kind_unknown"])
def test_malformed_config_value_exits_invalid(tmp_path, sub, text, key):
    cfg = write_cfg(tmp_path / "bad.cfg", text)
    code = main([sub, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    manifest = (tmp_path / "out" / "MANIFEST").read_text()
    assert "status: incomplete" in manifest and f"key={key}" in manifest
    assert not list((tmp_path / "out").glob("*.csv"))


LAPLACE_OP = (CONFIGS / "laplace_a1.5.op").read_text()


@pytest.mark.parametrize("old, new, key", [
    ("coeff[0] = m^2 + 2.25", "coeff[0] = m^2 + 2.25 + 1e308^2", "coeff[0]"),
    ("coeff[0] = m^2 + 2.25", "coeff[0] = m^2 + 2.25 + 1e308*10", "coeff[0]"),
    ("coeff[0] = m^2 + 2.25", "coeff[0] = m^2 + 2.25 + 1/(m - 3)",
     "coeff[0]"),
    ("mu = 2", "mu = abc", "mu"),
    ("mu = 2", "mu = inf", "mu"),
    ("alpha = 1", "alpha = nan", "alpha"),
    ("modes = -8..8", "modes = -8..x", "modes"),
], ids=["coeff_overflow", "coeff_inf", "coeff_pole_at_mode", "mu_malformed",
        "mu_inf", "alpha_nan", "modes_malformed"])
def test_malformed_operator_file_exits_invalid(tmp_path, old, new, key):
    assert old in LAPLACE_OP
    (tmp_path / "bad.op").write_text(LAPLACE_OP.replace(old, new))
    cfg = write_cfg(tmp_path / "s.cfg", "operator = bad.op\nnpoints = 200\n")
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    manifest = (tmp_path / "out" / "MANIFEST").read_text()
    assert "status: incomplete" in manifest and f"key={key}" in manifest
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("coeffs, key", [
    ("coeff[1] = 0.3*x\ncoeff[2] = 1 + 3*x", "coeff[1]"),
    ("coeff[2] = 1 + 3*x", "coeff[2]"),
], ids=["c1", "c2"])
def test_grid_refuses_x_dependent_higher_coefficients(tmp_path, coeffs, key):
    # the grid carries c0(x) and a constant c2 only
    (tmp_path / "x.op").write_text(LAPLACE_OP.replace("coeff[2] = 1", coeffs))
    cfg = write_cfg(tmp_path / "s.cfg", "operator = x.op\nlam_max = 60\n"
                    "s_min = -6\nnpoints = 200\n")
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    manifest = (tmp_path / "out" / "MANIFEST").read_text()
    assert "status: incomplete" in manifest and f"key={key}" in manifest
    assert not (tmp_path / "out" / "spectral.csv").exists()


@pytest.mark.parametrize("line, key", [("npoints = 100000000", "npoints"),
                                       ("s_min = -1000", "s_min")],
                         ids=["npoints_above_cap", "s_min_weight_underflow"])
def test_grid_input_caps_refuse_before_allocating(tmp_path, line, key):
    cfg = write_cfg(tmp_path / "s.cfg", OP_LINE + line + "\n")
    tracemalloc.start()
    try:
        code = main(["spectrum", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    manifest = (tmp_path / "out" / "MANIFEST").read_text()
    assert "status: incomplete" in manifest and f"key={key}" in manifest
    assert not (tmp_path / "out" / "spectral.csv").exists()
    assert peak < 20_000_000  # a grid of 10^8 points takes 800 MB an array


def test_spectrum_notes_oracle_eigenvalues_without_grid_partner(tmp_path):
    # a coarse grid finds 561 eigenvalues below lam_max, the oracle 724
    cfg = write_cfg(tmp_path / "s.cfg", OP_LINE + "lam_max = 20000\n"
                    "s_min = -6\nnpoints = 100\n")
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    manifest = (tmp_path / "out" / "MANIFEST").read_text().splitlines()
    assert ("note: 163 oracle eigenvalues below lam_max have no grid partner"
            in manifest)
