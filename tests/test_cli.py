import hashlib
from pathlib import Path

import numpy as np
import pytest

from conespec.cli import main
from conespec.errors import ConfigurationError
from conespec.exprs import compile_expr
from conespec.opfile import parse_operator

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
    assert np.allclose(np.asarray(op._indicial(3), dtype=complex),
                       [11.25, 0.0, 1.0])


def test_parse_perturbed_operator_splits_conormal_part():
    op = parse_operator(CONFIGS / "laplace_perturbed.op")
    assert not op.is_frozen
    frozen = op.frozen()
    assert np.allclose(np.asarray(frozen._indicial(0), dtype=complex),
                       [2.25, 0.0, 1.0])


def test_operator_rematerializes_on_wider_window():
    op = parse_operator(CONFIGS / "laplace_a1.5.op").with_modes(30)
    assert op.modes == (-30, 30)
    assert np.asarray(op._indicial(30), dtype=complex)[0] == 900 + 2.25


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


def test_missing_config_exits_invalid(tmp_path):
    assert main(["heat", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")]) == 2


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
], ids=["t_min", "eps_list", "t_min_nan", "t_min_zero", "t_min_negative",
        "lam_max_inf", "t_count_fractional", "t_max_zero", "t0_zero",
        "lam_max_spec_negative", "eps_list_nan"])
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
