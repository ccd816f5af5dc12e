"""Expression grammar and evaluator for the command-line front end.

Grammar (whitespace insignificant, one precedence level for the three
products, all left-associative):

    expr      := sum
    sum       := prod (('+'|'-') prod)*
    prod      := atom (('v'|'o'|'ro') atom)*
    atom      := scalar | generator | call | '(' expr ')' | scalar '*' atom
    generator := 'e' digits
    scalar    := rational (('+'|'-') rational 'i')?
    rational  := int ('/' posint)?
    call      := name '(' expr (',' expr)* ')'

Known call names: T, Tbar, t, tbar, eps, antipode, pair, Z, mpair, S, delta,
Sigma, expSigma, dp, expv, green.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import series as series_mod
from .algebra import (
    Element,
    TensorElement,
    antipode,
    counit,
    derivation,
    divided_power,
)
from .laplace import circle, pairing
from .renorm import circle_renorm, modified_pairing, z_pairing
from .scalars import Scalar
from .series import FormalSeries, vee_exp
from .tmaps import TContext, exp_sigma, sigma_apply, t_map, t_scalar, tbar_map, tbar_scalar


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Well-formed expression that cannot be evaluated under this config."""


# -- AST --------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Scalar


@dataclass(frozen=True)
class Gen:
    index: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class ScalarMul:
    scalar: Scalar
    operand: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


ARITIES = {
    "T": 1, "Tbar": 1, "t": 1, "tbar": 1, "eps": 1, "antipode": 1,
    "pair": 2, "Z": 2, "mpair": 2, "S": 2, "delta": 2, "Sigma": 1,
    "expSigma": 1, "dp": 2, "expv": 2, "green": 4,
}

PRODUCT_OPS = ("v", "o", "ro")

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/(),]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", offset)
        return self.advance()

    def parse(self):
        node = self.parse_sum()
        kind, value, offset = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing input {value!r}", offset)
        return node

    def parse_sum(self):
        node = self.parse_prod()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.parse_prod())
            else:
                return node

    def parse_prod(self):
        node = self.parse_atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "name" and value in PRODUCT_OPS:
                self.advance()
                node = BinOp(value, node, self.parse_atom())
            else:
                return node

    def parse_atom(self):
        kind, value, offset = self.peek()
        if kind == "op" and value == "(":
            self.advance()
            node = self.parse_sum()
            self.expect_op(")")
            return node
        if kind == "num" or (kind == "op" and value == "-"):
            scalar = self.parse_scalar()
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                return ScalarMul(scalar, self.parse_atom())
            return Lit(scalar)
        if kind == "name":
            if re.fullmatch(r"e\d+", value):
                self.advance()
                return Gen(int(value[1:]))
            if value in ARITIES:
                return self.parse_call()
            raise ExprSyntaxError(f"unknown function or symbol {value!r}", offset)
        raise ExprSyntaxError(f"expected an expression, found {value!r}", offset)

    def parse_rational(self) -> Fraction:
        negative = False
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            negative = True
            kind, value, offset = self.peek()
        if kind != "num":
            raise ExprSyntaxError("expected a number", offset)
        self.advance()
        numerator = int(value)
        kind, value, _ = self.peek()
        if kind == "op" and value == "/":
            mark = self.pos
            self.advance()
            kind, value, offset = self.peek()
            if kind == "num":
                self.advance()
                if int(value) == 0:
                    raise ExprSyntaxError("zero denominator", offset)
                result = Fraction(numerator, int(value))
            else:
                self.pos = mark
                result = Fraction(numerator)
        else:
            result = Fraction(numerator)
        return -result if negative else result

    def parse_scalar(self) -> Scalar:
        real = self.parse_rational()
        mark = self.pos
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            self.advance()
            kind, value, _ = self.peek()
            if kind == "num":
                imag = self.parse_rational()
                kind, value, _ = self.peek()
                if kind == "name" and value == "i":
                    self.advance()
                    return Scalar(real, sign * imag)
        self.pos = mark
        return Scalar(real)

    def parse_call(self):
        kind, name, offset = self.advance()
        self.expect_op("(")
        args = [self.parse_sum()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == ",":
                self.advance()
                args.append(self.parse_sum())
            else:
                break
        self.expect_op(")")
        arity = ARITIES[name]
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
                offset,
            )
        return Call(name, tuple(args))


def parse_expr(text: str):
    """Parse an expression string into an AST; raises ExprSyntaxError."""
    return _Parser(text).parse()


# -- evaluation -------------------------------------------------------------

class EvalEnv:
    """Everything an expression needs: dimension, pairing, scheme, options."""

    def __init__(self, dimension, pairing_matrix, scheme, renormalised=False):
        self.dimension = dimension
        self.pairing = pairing_matrix
        self.scheme = scheme
        self.renormalised = renormalised
        self._tcontext = None

    def tcontext(self) -> TContext:
        if self._tcontext is None:
            try:
                self._tcontext = TContext(self.pairing, self.scheme)
            except ValueError as exc:
                raise EvalError(str(exc)) from exc
        return self._tcontext


def as_element(value) -> Element:
    """An evaluator result as an algebra element; scalars become multiples of 1."""
    if isinstance(value, Element):
        return value
    if isinstance(value, Scalar):
        return Element.from_scalar(value)
    raise EvalError("expected an algebra element")


def _as_scalar_order(value) -> int:
    if isinstance(value, Element) and value.is_scalar():
        value = value.scalar_part()
    if not isinstance(value, Scalar) or value.im != 0 or value.re.denominator != 1:
        raise EvalError("expected a non-negative integer order")
    n = int(value.re)
    if n < 0:
        raise EvalError("expected a non-negative integer order")
    return n


def _as_generator_index(value) -> int:
    if isinstance(value, Element) and len(value.terms) == 1:
        mono, coeff = next(iter(value.items()))
        if mono.grading == 1 and coeff == 1:
            return mono.indices()[0]
    raise EvalError("expected a single generator (e.g. e1)")


def evaluate(node, env: EvalEnv):
    """Evaluate an AST to a Scalar, Element, TensorElement or FormalSeries."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Gen):
        if not (1 <= node.index <= env.dimension):
            raise EvalError(
                f"generator e{node.index} out of range for dimension {env.dimension}"
            )
        return Element.generator(node.index)
    if isinstance(node, ScalarMul):
        return node.scalar * evaluate(node.operand, env)
    if isinstance(node, BinOp):
        left = evaluate(node.left, env)
        right = evaluate(node.right, env)
        if node.op in "+-":
            if isinstance(left, FormalSeries) or isinstance(right, FormalSeries):
                if not (isinstance(left, FormalSeries) and isinstance(right, FormalSeries)):
                    raise EvalError("can only add series to series")
                return left + right if node.op == "+" else left - right
            if isinstance(left, Scalar) and isinstance(right, Scalar):
                return left + right if node.op == "+" else left - right
            left, right = as_element(left), as_element(right)
            return left + right if node.op == "+" else left - right
        left, right = as_element(left), as_element(right)
        if node.op == "v":
            return left.vee(right)
        if node.op == "o":
            return circle(left, right, env.pairing)
        if node.op == "ro":
            return circle_renorm(left, right, env.scheme, env.pairing)
        raise EvalError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        return _call(node, env)
    raise EvalError(f"cannot evaluate node {node!r}")


def _call(node: Call, env: EvalEnv):
    name = node.name
    args = [evaluate(a, env) for a in node.args]
    if name == "eps":
        return counit(as_element(args[0]))
    if name == "antipode":
        return antipode(as_element(args[0]))
    if name == "pair":
        return pairing(as_element(args[0]), as_element(args[1]), env.pairing)
    if name == "Z":
        return z_pairing(as_element(args[0]), as_element(args[1]), env.scheme)
    if name == "mpair":
        return modified_pairing(
            as_element(args[0]), as_element(args[1]), env.scheme, env.pairing
        )
    if name == "T":
        return t_map(as_element(args[0]), env.tcontext())
    if name == "Tbar":
        return tbar_map(as_element(args[0]), env.tcontext())
    if name == "t":
        return t_scalar(as_element(args[0]), env.tcontext())
    if name == "tbar":
        return tbar_scalar(as_element(args[0]), env.tcontext())
    if name == "Sigma":
        return sigma_apply(as_element(args[0]), env.tcontext())
    if name == "expSigma":
        return exp_sigma(as_element(args[0]), env.tcontext())
    if name == "delta":
        return derivation(_as_generator_index(args[0]), as_element(args[1]))
    if name == "dp":
        return divided_power(
            _as_generator_index(args[0]), _as_scalar_order(args[1])
        )
    if name == "expv":
        return vee_exp(as_element(args[0]), _as_scalar_order(args[1]))
    if name == "S":
        return series_mod.smatrix(
            as_element(args[0]),
            env.tcontext(),
            _as_scalar_order(args[1]),
            renormalised=env.renormalised,
        )
    if name == "green":
        return series_mod.green(
            _as_generator_index(args[0]),
            _as_generator_index(args[1]),
            as_element(args[2]),
            env.tcontext(),
            _as_scalar_order(args[3]),
            renormalised=env.renormalised,
        )
    raise EvalError(f"unknown function {name!r}")


def format_value(value) -> str:
    """Canonical printing for every evaluator result type."""
    if isinstance(value, FormalSeries):
        lines = []
        for k, coeff in enumerate(value.coeffs):
            lines.append(f"lambda^{k}: {coeff}")
        return "\n".join(lines)
    if isinstance(value, (Scalar, Element, TensorElement)):
        return str(value)
    raise TypeError(f"cannot format {value!r}")
