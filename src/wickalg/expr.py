"""Expression grammar and evaluator for the command-line front end.

Both ``wickalg eval`` and ``wickalg green`` reach a value the same way:
``parse_expr`` (or a node built directly, for ``green``), then
``evaluate``, then ``format_value``.

Grammar (whitespace insignificant; sums bind looser than the three
products, which share one precedence level; all left-associative):

    expr      := prod (('+'|'-') prod)*
    prod      := atom (('v'|'o'|'ro') atom)*
    atom      := ['-'] scalar ['*' atom] | generator | call | '(' expr ')'
    generator := 'e' digits
    scalar    := rational (('+'|'-') rational 'i')?
    rational  := digits ('/' digits)?
    call      := name '(' expr (',' expr)* ')'

A scalar is one token, read by ``Scalar.parse`` with its whitespace removed
and the atom's leading ``-`` (which negates the real part only) prefixed, so
it means what the same literal means in a config.  The functions, with their
arities and bodies, are the table ``FUNCTIONS``; the operators are
``OPERATORS``.  Input nested too deeply for the parser is an
``ExprSyntaxError``; the parser and ``evaluate`` both read operator and
scalar chains in loops, so only parentheses and calls nest their frames.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from . import series as series_mod
from .algebra import Element, antipode, counit, derivation, divided_power
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


# -- tokens -----------------------------------------------------------------

_RATIONAL = r"\d+(?:\s*/\s*\d+)?"
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<num>{_RATIONAL}(?:\s*[-+]\s*{_RATIONAL}\s*i(?![A-Za-z0-9]))?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# -- parser -----------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
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
        """Sums of products, both folded to the left in one loop."""
        total = sign = None
        node = self.parse_atom()
        while True:
            value = self.peek()[1]
            if value in _PRODUCTS:
                self.advance()
                node = BinOp(value, node, self.parse_atom())
                continue
            total = node if total is None else BinOp(sign, total, node)
            if value not in ("+", "-"):
                return total
            sign = self.advance()[1]
            node = self.parse_atom()

    def parse_atom(self):
        kind, value, offset = self.peek()
        if kind == "op" and value == "(":
            self.advance()
            node = self.parse_sum()
            self.expect_op(")")
            return node
        if self.at_scalar():
            # s1 * s2 * ... * atom in a loop; a chain ending in a scalar ends in a Lit
            scalars = [self.parse_scalar()]
            while self.peek()[1] == "*":
                self.advance()
                if not self.at_scalar():
                    node = self.parse_atom()
                    break
                scalars.append(self.parse_scalar())
            else:
                node = Lit(scalars.pop())
            for scalar in reversed(scalars):
                node = ScalarMul(scalar, node)
            return node
        if kind == "name":
            if re.fullmatch(r"e\d+", value):
                self.advance()
                return Gen(int(value[1:]))
            if value in FUNCTIONS:
                return self.parse_call()
            raise ExprSyntaxError(f"unknown function or symbol {value!r}", offset)
        raise ExprSyntaxError(f"expected an expression, found {value!r}", offset)

    def at_scalar(self) -> bool:
        kind, value, _ = self.peek()
        return kind == "num" or (kind == "op" and value == "-")

    def parse_scalar(self) -> Scalar:
        sign = "-" if self.peek()[1] == "-" else ""
        if sign:
            self.advance()
        kind, value, offset = self.peek()
        if kind != "num":
            raise ExprSyntaxError("expected a number", offset)
        self.advance()
        try:
            return Scalar.parse(sign + "".join(value.split()))
        except ValueError as exc:
            raise ExprSyntaxError(str(exc), offset) from None

    def parse_call(self):
        _, name, offset = self.advance()
        self.expect_op("(")
        args = [self.parse_sum()]
        while self.peek()[1] == ",":
            self.advance()
            args.append(self.parse_sum())
        self.expect_op(")")
        arity = FUNCTIONS[name][0]
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
                offset,
            )
        return Call(name, tuple(args))


def parse_expr(text: str):
    """Parse an expression string into an AST; raises ExprSyntaxError."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", parser.peek()[2]) from None


# -- evaluation -------------------------------------------------------------

class EvalEnv:
    """Everything an expression needs: pairing, scheme, options."""

    def __init__(self, pairing_matrix, scheme, renormalised=False):
        self.pairing = pairing_matrix
        self.scheme = scheme
        self.renormalised = renormalised
        self._tcontext = None

    def tcontext(self) -> TContext:
        if self._tcontext is None:
            self._tcontext = TContext(self.pairing, self.scheme)
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


def _additive(op):
    """``+`` or ``-``: series with series, scalar with scalar, else elements."""

    def apply(left, right, env):
        if isinstance(left, FormalSeries) or isinstance(right, FormalSeries):
            if not (isinstance(left, FormalSeries) and isinstance(right, FormalSeries)):
                raise EvalError("can only add series to series")
        elif not (isinstance(left, Scalar) and isinstance(right, Scalar)):
            left, right = as_element(left), as_element(right)
        return op(left, right)

    return apply


OPERATORS = {
    "+": _additive(operator.add),
    "-": _additive(operator.sub),
    "v": lambda u, v, env: as_element(u).vee(as_element(v)),
    "o": lambda u, v, env: circle(as_element(u), as_element(v), env.pairing),
    "ro": lambda u, v, env: circle_renorm(
        as_element(u), as_element(v), env.scheme, env.pairing
    ),
}
_PRODUCTS = ("v", "o", "ro")

# name -> (arity, body(env, *argument values))
FUNCTIONS = {
    "eps": (1, lambda env, u: counit(as_element(u))),
    "antipode": (1, lambda env, u: antipode(as_element(u))),
    "pair": (2, lambda env, u, v: pairing(as_element(u), as_element(v), env.pairing)),
    "Z": (2, lambda env, u, v: z_pairing(as_element(u), as_element(v), env.scheme)),
    "mpair": (2, lambda env, u, v: modified_pairing(
        as_element(u), as_element(v), env.scheme, env.pairing)),
    "T": (1, lambda env, u: t_map(as_element(u), env.tcontext())),
    "Tbar": (1, lambda env, u: tbar_map(as_element(u), env.tcontext())),
    "t": (1, lambda env, u: t_scalar(as_element(u), env.tcontext())),
    "tbar": (1, lambda env, u: tbar_scalar(as_element(u), env.tcontext())),
    "Sigma": (1, lambda env, u: sigma_apply(as_element(u), env.tcontext())),
    "expSigma": (1, lambda env, u: exp_sigma(as_element(u), env.tcontext())),
    "delta": (2, lambda env, g, u: derivation(_as_generator_index(g), as_element(u))),
    "dp": (2, lambda env, g, n: divided_power(
        _as_generator_index(g), _as_scalar_order(n))),
    "expv": (2, lambda env, u, n: vee_exp(as_element(u), _as_scalar_order(n))),
    "S": (2, lambda env, u, n: series_mod.smatrix(
        as_element(u), env.tcontext(), _as_scalar_order(n),
        renormalised=env.renormalised)),
    "green": (4, lambda env, i, j, u, n: series_mod.green(
        _as_generator_index(i), _as_generator_index(j), as_element(u),
        env.tcontext(), _as_scalar_order(n), renormalised=env.renormalised)),
}


def _dispatch(body, *args):
    """``body(*args)``, a library ``ValueError`` (say, a packed field that
    would overflow) raised as an ``EvalError``."""
    try:
        return body(*args)
    except EvalError:
        raise
    except ValueError as exc:
        raise EvalError(str(exc)) from exc


def evaluate(node, env: EvalEnv):
    """Evaluate an AST to a Scalar, Element or FormalSeries.

    A left-nested operator chain and a nested ``scalar * ...`` chain are each
    walked in a loop, so a long sum or product costs no Python frames.
    Operators and functions run through :func:`_dispatch`.
    """
    if isinstance(node, BinOp):
        chain = []
        while isinstance(node, BinOp):
            chain.append(node)
            node = node.left
        value = evaluate(node, env)
        for link in reversed(chain):
            value = _dispatch(OPERATORS[link.op], value, evaluate(link.right, env), env)
        return value
    if isinstance(node, ScalarMul):
        factors = []
        while isinstance(node, ScalarMul):
            factors.append(node.scalar)
            node = node.operand
        value = evaluate(node, env)
        for factor in reversed(factors):
            value = factor * value
        return value
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Gen):
        dim = env.pairing.dim
        if not (1 <= node.index <= dim):
            raise EvalError(f"generator e{node.index} out of range for dimension {dim}")
        return Element.generator(node.index)
    if isinstance(node, Call):
        args = []  # a loop, not a comprehension: one frame per nested call
        for arg in node.args:
            args.append(evaluate(arg, env))
        return _dispatch(FUNCTIONS[node.name][1], env, *args)
    raise EvalError(f"cannot evaluate node {node!r}")


def format_value(value) -> str:
    """Canonical printing for every evaluator result type."""
    if isinstance(value, FormalSeries):
        return "\n".join(f"lambda^{k}: {coeff}" for k, coeff in enumerate(value.coeffs))
    if isinstance(value, (Scalar, Element)):
        return str(value)
    raise TypeError(f"cannot format {value!r}")
