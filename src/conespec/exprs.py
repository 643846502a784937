"""Tiny safe arithmetic expression evaluator for operator and config files.

Supports +, -, *, /, ** (also '^'), parentheses, numeric literals, the
variables ``m`` (mode number) and ``x`` (radial variable), and the
functions sin, cos, exp, log, sqrt, abs.  Anything else is rejected at
parse time, so untrusted files cannot execute code.

Integer powers are exact, so ``9^9^9`` would never finish: an exponent
must be a numeric literal, optionally negated, and the exponents of nested
powers must multiply to at most ``_MAX_POWER`` = 64 in absolute value.
"""

import ast

import numpy as np

from .errors import ConfigurationError

_ALLOWED_FUNCS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs,
}
_ALLOWED_NAMES = {"m", "x", "pi"}
_MAX_POWER = 64

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
    ast.Call, ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
    ast.USub, ast.UAdd,
)


def _validate(node, source, power):
    # power: product of the |exponents| of the powers enclosing this node
    if not isinstance(node, _ALLOWED_NODES):
        raise ConfigurationError("disallowed syntax in expression",
                                 expression=source,
                                 node=type(node).__name__)
    if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES \
            and node.id not in _ALLOWED_FUNCS:
        raise ConfigurationError("unknown name in expression",
                                 expression=source, name=node.id)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
            raise ConfigurationError("unknown function in expression",
                                     expression=source)
        if node.keywords:
            raise ConfigurationError("keyword arguments not allowed",
                                     expression=source)
    if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
        raise ConfigurationError("only numeric literals allowed",
                                 expression=source)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        p = node.right
        if isinstance(p, ast.UnaryOp) and isinstance(p.op, ast.USub):
            p = p.operand
        if not (isinstance(p, ast.Constant) and type(p.value) in (int, float)):
            raise ConfigurationError("exponents must be numeric literals",
                                     expression=source)
        power *= abs(p.value)
        if power > _MAX_POWER:
            raise ConfigurationError("exponent too large",
                                     expression=source, limit=_MAX_POWER)
    for child in ast.iter_child_nodes(node):
        _validate(child, source, power)


def compile_expr(source):
    """Compile an expression string to a callable f(m, x); ``f.uses_x``
    tells whether the expression names x."""
    text = source.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigurationError("cannot parse expression",
                                 expression=source) from exc
    _validate(tree, source, 1.0)
    code = compile(tree, "<expr>", "eval")
    env = dict(_ALLOWED_FUNCS)
    env["pi"] = np.pi

    def fn(m, x):
        scope = dict(env)
        scope["m"] = m
        scope["x"] = x
        return eval(code, {"__builtins__": {}}, scope)  # noqa: S307 (validated AST)

    fn.source = source
    fn.uses_x = any(getattr(node, "id", None) == "x" for node in ast.walk(tree))
    return fn
