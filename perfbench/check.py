"""Output check for one run's ``front.csv``, independent of eggp's code.

Each row is re-parsed by this module's own reader of eggp's printed form, then
scored by a per-row scalar evaluator written against IEEE semantics (nan and
inf propagate, nothing raises).  Neither ``eval_rows`` nor the fitting kernel
under measurement is used, so a fast-but-wrong evaluator cannot vouch for
itself.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

# relative agreement required between a reported R^2 and the recomputed one;
# both sides evaluate the same operations in the same order, and only
# transcendental functions may round differently in the last place
R2_TOL = 1e-6

_TOKEN = re.compile(
    r"\s*(?:(?P<num>-?(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|inf|nan))|(?P<name>[a-z]+\d*)|(?P<sym>[()+\-*/^]))"
)
_INFIX = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


class CheckError(ValueError):
    pass


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise CheckError(f"cannot read {text[pos:pos + 20]!r} in {text!r}")
        out.append(m.group(m.lastgroup))
        pos = m.end()
    return out


def parse(text: str) -> tuple:
    """Tuple tree: ("var", i) | ("param", k) | ("const", v) | (op, *args)."""
    toks = _tokens(text)
    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(toks):
            raise CheckError(f"unexpected end of {text!r}")
        tok = toks[pos]
        if expected is not None and tok != expected:
            raise CheckError(f"expected {expected!r}, got {tok!r} in {text!r}")
        pos += 1
        return tok

    def node() -> tuple:
        tok = take()
        if tok == "(":
            if toks[pos] == "abs":
                take("abs"), take("(")
                base = node()
                take(")"), take("^")
                power = node()
                take(")")
                return ("powabs", base, power)
            left = node()
            op = take()
            if op not in _INFIX:
                raise CheckError(f"unknown operator {op!r} in {text!r}")
            right = node()
            take(")")
            return (_INFIX[op], left, right)
        if tok in ("log", "sqrt"):
            take("("), take("abs"), take("(")
            arg = node()
            take(")"), take(")")
            return (tok + "abs", arg)
        if tok == "exp":
            take("(")
            arg = node()
            take(")")
            return ("exp", arg)
        if re.fullmatch(r"x\d+", tok):
            return ("var", int(tok[1:]))
        if re.fullmatch(r"t\d+", tok):
            return ("param", int(tok[1:]))
        try:
            return ("const", float(tok))
        except ValueError:
            raise CheckError(f"unknown token {tok!r} in {text!r}") from None

    tree = node()
    if pos != len(toks):
        raise CheckError(f"trailing text in {text!r}")
    return tree


def size(t: tuple) -> int:
    if t[0] in ("var", "param", "const"):
        return 1
    return 1 + sum(size(a) for a in t[1:])


def shape(t: tuple) -> tuple:
    """The tree with every parameter and constant as one placeholder."""
    if t[0] in ("param", "const"):
        return ("slot",)
    if t[0] == "var":
        return t
    return (t[0], *(shape(a) for a in t[1:]))


def slots(t: tuple) -> int:
    if t[0] in ("param", "const"):
        return 1
    if t[0] == "var":
        return 0
    return sum(slots(a) for a in t[1:])


def _div(a: float, b: float) -> float:
    if b != 0.0 or math.isnan(b):
        return a / b
    if a == 0.0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _pow(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except OverflowError:
        return math.inf
    except ValueError:  # 0 ** negative
        return math.inf


def _log(a: float) -> float:
    return -math.inf if a == 0.0 else math.log(a)


def _exp(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def evaluate(t: tuple, row: list[float]) -> float:
    """One row, scalar arithmetic, IEEE results for every edge case."""
    op = t[0]
    if op == "var":
        return row[t[1]]
    if op == "const":
        return t[1]
    if op == "param":
        raise CheckError("fitted expression still holds a free parameter")
    if op in ("logabs", "exp", "sqrtabs"):
        a = evaluate(t[1], row)
        if op == "exp":
            return _exp(a)
        if math.isnan(a):
            return math.nan
        return _log(abs(a)) if op == "logabs" else math.sqrt(abs(a))
    a = evaluate(t[1], row)
    b = evaluate(t[2], row)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return _div(a, b)
    return _pow(abs(a), b)


def r2(t: tuple, X: list[list[float]], y: list[float]) -> float:
    pred = [evaluate(t, row) for row in X]
    if not all(math.isfinite(p) for p in pred):
        return -math.inf
    mean = sum(y) / len(y)
    ss_tot = sum((v - mean) * (v - mean) for v in y)
    ss_res = sum((v - p) * (v - p) for v, p in zip(y, pred))
    if not math.isfinite(ss_res):
        return -math.inf
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def read_table(path: Path) -> tuple[list[list[float]], list[float]]:
    """A generated CSV: header row, target in the last column."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(c) for c in r[:-1]] for r in rows], [float(r[-1]) for r in rows]


def _agrees(reported: float, ref: float) -> bool:
    if not (math.isfinite(reported) and math.isfinite(ref)):
        return True
    return abs(reported - ref) <= R2_TOL * max(1.0, abs(ref))


def check_front(
    front_csv: Path,
    max_size: int,
    train: tuple[list[list[float]], list[float]],
    test: tuple[list[list[float]], list[float]] | None,
) -> dict:
    """Raise ``CheckError`` on the first defect; return a summary otherwise."""
    with open(front_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckError("empty front")
    prev_size, prev_mse = 0, math.inf
    best_r2_val = -math.inf
    for i, row in enumerate(rows):
        where = f"{front_csv.name} row {i + 1}"
        fitted = parse(row["expression"])
        theta = parse(row["expression_theta"])
        s, k = int(row["size"]), int(row["n_params"])
        mse_val = float(row["fitness_val_mse"])
        if shape(fitted) != shape(theta):
            raise CheckError(f"{where}: fitted and parameterized forms differ")
        if size(theta) != s or slots(theta) != k:
            raise CheckError(f"{where}: size/n_params {s}/{k} do not match the expression")
        if not 1 <= s <= max_size:
            raise CheckError(f"{where}: size {s} outside 1..{max_size}")
        if s <= prev_size:
            raise CheckError(f"{where}: sizes not strictly increasing")
        if not mse_val < prev_mse:
            raise CheckError(f"{where}: validation MSE not strictly decreasing")
        prev_size, prev_mse = s, mse_val
        for column, data in (("r2_train", train), ("r2_test", test)):
            if data is None:
                continue
            reported = float(row[column])
            ref = r2(fitted, *data)
            if not _agrees(reported, ref):
                raise CheckError(f"{where}: {column} {reported!r} but recomputed {ref!r}")
        best_r2_val = max(best_r2_val, float(row["r2_val"]))
    return {"front_size": len(rows), "best_r2_val": best_r2_val}
