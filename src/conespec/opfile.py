"""Flat key-value parsing of operator definition and experiment config files.

Both formats are line based: ``key = value`` with '#' comments and no
nesting.  Operator files use the keys

    mu      = 2
    alpha   = 1
    modes   = -8..8
    bc      = dirichlet
    coeff[0] = m^2 + 2.25        # per power of the dilation generator,
    coeff[2] = 1                 # optionally with x dependence

The coefficients form one rule (m, x) -> [c0, ..., cdeg] whose value at
x = 0 is the conormal data; every mode's list has the operator's degree,
a missing coeff[j] below it being 0.  The operator depends on x when an
expression names x (``0*x`` counts); the grid refuses an x-dependent
coeff[1] or coeff[2].  Every number is checked at parse time: ``mu``
and ``alpha`` must be finite, and each coefficient must evaluate to a
finite value at x = 0 for every declared mode (and wherever it is
evaluated later, such as the modes of a wider window); anything else is
a ConfigurationError naming the key.  ``alpha``, the weight line of the
intended realization, is checked and not used.
"""

import cmath
import hashlib
import re
from pathlib import Path

import numpy as np

from .coneop import ConeOperator
from .errors import ConfigurationError
from .exprs import compile_expr

_COEFF_RE = re.compile(r"^coeff\[(\d+)\]$")


def read_kv(path):
    """Ordered key -> string value mapping from a flat config file."""
    return parse_kv(Path(path).read_text(), path)


def parse_kv(text, path):
    """``read_kv`` on the text of the file ``path``, read by the caller."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError("expected 'key = value'",
                                     file=str(path), line=lineno)
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def config_digest(data):
    """The provenance digest of a config or operator file's bytes."""
    return hashlib.sha256(data).hexdigest()[:16]


def _parse_modes(text):
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return int(lo), int(hi)
        cap = int(text)
    except ValueError:
        raise ConfigurationError("malformed value", key="modes",
                                 got=text) from None
    return -cap, cap


def parse_value(key, text, convert=float):
    """One config or operator value; malformed or non-finite is an error."""
    try:
        value = convert(text)
    except (ValueError, OverflowError):
        raise ConfigurationError("malformed value", key=key,
                                 got=text) from None
    if not cmath.isfinite(value):
        raise ConfigurationError("value must be finite", key=key, got=text)
    return value


def _finite_coeff(j, fn, m, x):
    """fn(m, x), or a ConfigurationError if it fails or is not finite."""
    try:
        v = fn(m, x)
        finite = (bool(np.all(np.isfinite(np.asarray(v, dtype=complex))))
                  if isinstance(v, np.ndarray) else cmath.isfinite(v))
    except (ArithmeticError, ValueError):
        finite = False
    if not finite:
        raise ConfigurationError("coefficient is not finite",
                                 key=f"coeff[{j}]", got=fn.source, m=m)
    return v


def parse_operator(path, text=None):
    """Build a ConeOperator from a definition file, or from its ``text``
    when the caller has read it."""
    kv = read_kv(path) if text is None else parse_kv(text, path)
    try:
        mu = parse_value("mu", kv["mu"])
        modes = _parse_modes(kv["modes"])
    except KeyError as exc:
        raise ConfigurationError("operator file missing a required key",
                                 file=str(path), key=str(exc)) from None
    # checked, not used: no realization reads the weight line yet
    parse_value("alpha", kv.get("alpha", "0.0"))
    bc = kv.get("bc", "dirichlet").lower()
    if bc != "dirichlet":
        raise ConfigurationError("only dirichlet cuts are supported", bc=bc)
    coeff_exprs = {}
    for key, value in kv.items():
        match = _COEFF_RE.match(key)
        if match:
            coeff_exprs[int(match.group(1))] = compile_expr(value)
    if not coeff_exprs:
        raise ConfigurationError("operator file defines no coefficients",
                                 file=str(path))
    deg = max(coeff_exprs)

    def values(m, x):
        return [_finite_coeff(j, coeff_exprs[j], m, x) if j in coeff_exprs
                else 0.0 for j in range(deg + 1)]

    return ConeOperator(mu, modes, values,
                        x_dependent=any(fn.uses_x
                                        for fn in coeff_exprs.values()),
                        label=Path(path).stem)
