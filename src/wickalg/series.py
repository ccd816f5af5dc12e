"""Truncated formal power series in one parameter, with element coefficients.

Everything non-perturbative (symmetric exponentials, S-matrices, Green
functions) is realized as a series cut at a finite order -- no topology on
the algebra is introduced.  Arithmetic is exact through the truncation
order.  The identities stated on these series (the simplest Lagrangian, the
Gaussian determinant) live with their laws in ``checks``.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import FIELD, W, Element, _check_letters, _counts, _pack
from .scalars import ONE, Scalar
from .renorm import twist_numerators
from .tmaps import TContext, t_map, t_sum, tbar_map


class FormalSeries:
    """Coefficients c_0..c_N (Elements) of a series cut after order N."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = [self._as_element(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        coeffs = coeffs[: order + 1]
        while len(coeffs) < order + 1:
            coeffs.append(Element.zero())
        self.coeffs = coeffs
        self.order = order

    @staticmethod
    def _as_element(c) -> Element:
        if isinstance(c, Element):
            return c
        return Element.from_scalar(Scalar.coerce(c))

    @classmethod
    def constant(cls, value, order: int) -> "FormalSeries":
        return cls([cls._as_element(value)], order)

    @classmethod
    def from_scalars(cls, values, order=None) -> "FormalSeries":
        return cls([Element.from_scalar(Scalar.coerce(v)) for v in values], order)

    def coefficient(self, n: int) -> Element:
        if n < 0 or n > self.order:
            raise IndexError(f"order {n} outside truncation 0..{self.order}")
        return self.coeffs[n]

    def is_scalar(self) -> bool:
        return all(c.is_scalar() for c in self.coeffs)

    def scalars(self) -> list[Scalar]:
        if not self.is_scalar():
            raise ValueError("series has non-scalar coefficients")
        return [c.scalar_part() for c in self.coeffs]

    def __add__(self, other):
        other = self._coerce_series(other)
        n = min(self.order, other.order)
        return FormalSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if isinstance(scalar, (Scalar, int, Fraction)):
            s = Scalar.coerce(scalar)
            return FormalSeries([s * c for c in self.coeffs], self.order)
        return NotImplemented

    def _coerce_series(self, other) -> "FormalSeries":
        if isinstance(other, FormalSeries):
            return other
        return FormalSeries.constant(other, self.order)

    def __mul__(self, other):
        """Cauchy product; element coefficients multiply with the symmetric product."""
        if isinstance(other, (Scalar, int, Fraction)):
            return self.__rmul__(other)
        other = self._coerce_series(other)
        n = min(self.order, other.order)
        coeffs = [Element.zero() for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs):
            if i > n or not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > n:
                    break
                if b:
                    coeffs[i + j] = coeffs[i + j] + a.vee(b)
        return FormalSeries(coeffs, n)

    def divide(self, den: "FormalSeries") -> "FormalSeries":
        """Division by a scalar series with invertible constant term."""
        if not den.is_scalar():
            raise ValueError("can only divide by a scalar series")
        n = min(self.order, den.order)
        return FormalSeries(_divide(self.coeffs[: n + 1], den.scalars()), n)

    def __truediv__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            inv = ONE / Scalar.coerce(other)
            return inv * self
        return self.divide(self._coerce_series(other))

    def inverse_sqrt(self) -> "FormalSeries":
        """Exact Newton iteration for f^(-1/2); needs unit constant term."""
        if not self.is_scalar():
            raise ValueError("inverse square root needs a scalar series")
        if self.coeffs[0].scalar_part() != ONE:
            raise ValueError("inverse square root needs constant term exactly 1")
        half = Scalar(Fraction(1, 2))
        x = FormalSeries.constant(1, self.order)
        while True:
            nxt = half * (x * (FormalSeries.constant(3, self.order) - self * x * x))
            if nxt == x:
                return x
            x = nxt

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c and len(self.coeffs) > 1:
                continue
            body = str(c)
            if k == 0:
                parts.append(body)
            else:
                lam = "lambda" if k == 1 else f"lambda^{k}"
                parts.append(f"({body}) {lam}")
        if not parts:
            parts = ["0"]
        return " + ".join(parts) + f" + O(lambda^{self.order + 1})"

    def __repr__(self):
        return f"<FormalSeries order={self.order} {self}>"


def vee_exp(u: Element, order: int) -> FormalSeries:
    """exp of u in the symmetric product: coefficient of order n is u^{v n}/n!,
    run on numerator forms and reduced once per term at the end."""
    return FormalSeries([Element.from_numerators(*c) for c in _vee_exp_numerators(u, order)])


def _vee_exp_numerators(u: Element, order: int, spare: int = 0) -> list[tuple[dict, int]]:
    """The coefficients of exp_v(u) as numerator forms (:meth:`Element.numerators`):
    with u over its common denominator C, coefficient n is u^{v n} over
    C^n n!, by integer multiply-adds on packed words; nothing is interned or
    reduced.  A grading order * u's largest + ``spare`` above ``FIELD``
    would overflow a field, and is a ``ValueError`` before any power."""
    if order < 0:
        raise ValueError("order must be >= 0")
    terms, C = u.numerators()
    top = max((m.grading for m in u.terms), default=0)
    if order * top + spare > FIELD:
        raise ValueError(f"order {order} times grading {top} overflows a {W}-bit packed field")
    factor = list(terms.items())
    power, den = {0: (1, 0)}, 1
    out = [(power, den)]
    for n in range(1, order + 1):
        nxt: dict[int, tuple[int, int]] = {}
        for pc, (pr, pi) in power.items():
            for uc, (ur, ui) in factor:
                key = pc + uc
                re, im = pr * ur - pi * ui, pr * ui + pi * ur
                prior = nxt.get(key)
                nxt[key] = (re, im) if prior is None else (prior[0] + re, prior[1] + im)
        power, den = nxt, den * C * n
        out.append((power, den))
    return out


def smatrix(u: Element, ctx: TContext, order: int, renormalised: bool = False) -> FormalSeries:
    """The time-ordered exponential series of a Lagrangian element."""
    base = vee_exp(u, order)
    apply_t = tbar_map if renormalised else t_map
    return FormalSeries([apply_t(c, ctx) for c in base.coeffs], order)


def green(
    i: int,
    j: int,
    u: Element,
    ctx: TContext,
    order: int,
    renormalised: bool = False,
) -> FormalSeries:
    """Two-point Green function as a scalar series: contracted time-ordered
    exponential normalized by the vacuum amplitude.

    T is multiplicative and T(e_i v e_j) = e_i o e_j, so for a coefficient c
    of exp_v(u) the numerator (e_i o e_j | T(c)) is t(e_i v e_j v c) and the
    denominator is t(c).  Renormalised, Tbar(c) = T(twist(c, zeta)), so both
    read t of the twisted c; the legs stay bare.  Three stages chain on
    numerator forms (:meth:`Element.numerators`): the powers of exp_v(u),
    the twist :func:`renorm.twist_numerators`, and t's integer sum
    :func:`tmaps.t_sum` with the legs added to each packed word.  With a Scheme,
    no Element, monomial or Scalar is built per term, each order reduces
    twice, and the quotient runs the recurrence of :meth:`FormalSeries.divide`.
    A letter of u above d, or a grading that overflows a packed field
    (legs included), is a ``ValueError`` before any power is taken.
    The tests keep the legs paired with :func:`smatrix` as the oracle.
    """
    z = ctx.require_scheme() if renormalised else None
    _check_letters(ctx.pairing.dim, u)
    legs = _pack(_counts(((i, 1), (j, 1))))
    num, den = [], []
    for terms, d in _vee_exp_numerators(u, order, 2):
        if z is not None:
            terms, d = twist_numerators(terms, d, z)
        num.append(t_sum(terms, d, ctx, legs))
        den.append(t_sum(terms, d, ctx))
    return FormalSeries.from_scalars(_divide(num, den), order)


def _divide(num: list, den: list[Scalar]) -> list:
    """The first len(num) coefficients q_k of num / den, for series given by
    their coefficients: q_k = (num_k - sum_{j=1..k} den_j q_(k-j)) / den_0.
    The num_k may be Elements or Scalars; the den_j are Scalars."""
    if not den[0]:
        raise ZeroDivisionError("division by a series with zero constant term")
    out = []
    for k, acc in enumerate(num):
        for j in range(1, k + 1):
            if den[j]:
                acc = acc - den[j] * out[k - j]
        out.append(acc / den[0])
    return out
