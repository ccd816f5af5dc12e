"""Truncated formal power series in one parameter, with element coefficients.

Everything non-perturbative (symmetric exponentials, S-matrices, Green
functions, the Gaussian determinant identity) is realized as a series cut at
a finite order -- no topology on the algebra is introduced.  Arithmetic is
exact through the truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import Element, Monomial, _accumulate, _wrap
from .scalars import ONE, ZERO, Scalar
from .tmaps import TContext, t_map, t_scalar, tbar_map, twist


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
    def zero(cls, order: int) -> "FormalSeries":
        return cls([], order)

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
        d = den.scalars()
        if not d[0]:
            raise ZeroDivisionError("division by a series with zero constant term")
        n = min(self.order, den.order)
        out: list[Element] = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                if d[j]:
                    acc = acc - d[j] * out[k - j]
            out.append(acc / d[0])
        return FormalSeries(out, n)

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

    def grade_truncate(self, max_grading: int) -> "FormalSeries":
        return FormalSeries(
            [c.grade_truncate(max_grading) for c in self.coeffs], self.order
        )

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
    """exp of u in the symmetric product: coefficient of order n is u^{v n}/n!."""
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = [Element.one()]
    power = Element.one()
    for n in range(1, order + 1):
        power = power.vee(u)
        coeffs.append(Scalar(Fraction(1, factorial(n))) * power)
    return FormalSeries(coeffs, order)


def series_vee_exp(w: FormalSeries, max_grading: int) -> FormalSeries:
    """exp of a whole series under the symmetric product, truncated jointly in
    order and grading.

    Every coefficient of ``w`` must have zero scalar part (grading >= 1), so
    the grading cut makes the sum finite even at order zero.
    """
    for c in w.coeffs:
        if c.scalar_part():
            raise ValueError("series exponential needs coefficients without scalar part")
    total = FormalSeries.constant(1, w.order)
    term = FormalSeries.constant(1, w.order)
    m = 1
    while True:
        term = ((term * w).grade_truncate(max_grading)) * Scalar(Fraction(1, m))
        if not term:
            return total
        total = total + term
        m += 1


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
    read t of the twisted c; the legs stay bare.  No T or Tbar element is
    built; the tests keep the legs paired with :func:`smatrix` as the oracle.
    """
    z = ctx.require_scheme() if renormalised else None
    legs = Element.from_monomial(Monomial.from_indices((i, j)))
    num, den = [], []
    for c in vee_exp(u, order).coeffs:
        c = c if z is None else twist(c, z)
        num.append(t_scalar(legs.vee(c), ctx))
        den.append(t_scalar(c, ctx))
    return FormalSeries.from_scalars(num, order).divide(FormalSeries.from_scalars(den, order))


def simplest_lagrangian_check(generator: int, ctx: TContext, order: int):
    """Both sides of: T(exp_v(lambda a)) = e^{lambda^2 (a|a)/2} exp_v(lambda a)."""
    a = Element.generator(generator)
    lhs = smatrix(a, ctx, order)
    s = ctx.pairing.entry(generator, generator)
    gauss = [ZERO] * (order + 1)
    k = 0
    while 2 * k <= order:
        gauss[2 * k] = (s / 2) ** k / Scalar(factorial(k))
        k += 1
    rhs = FormalSeries.from_scalars(gauss, order) * vee_exp(a, order)
    return lhs, rhs


def gaussian_closed_form_check(ctx: TContext, order: int, max_grading: int):
    """Both sides of the Gaussian-Lagrangian determinant identity.

    The formal parameter scales the pairing (one power per contraction).  The
    left side is T(exp_v(sum_i e_i v e_i)) with pairing lambda*M, graded by
    contraction count; the right side is det(1-2 lambda M)^(-1/2) times the
    symmetric exponential of the geometric-series quadratic form.  Both sides
    are truncated at the given order and total grading.
    """
    L = ctx.pairing
    d = L.dim

    # Left side: sum_n (1/n!) sum_k lambda^k [k-contraction part of T(u^{v n})].
    # u is homogeneous of grading 2 and each contraction lowers the grading
    # by 2, so the k-contraction part of T(u^{v n}) is its grading 2n-2k part.
    u = Element({Monomial(((i, 2),)): ONE for i in range(1, d + 1)})
    lhs_terms: list[dict[Monomial, Scalar]] = [{} for _ in range(order + 1)]
    n_max = (max_grading + 2 * order) // 2
    power = Element.one()
    for n in range(0, n_max + 1):
        if n:
            power = power.vee(u)
        inv_fact = Scalar(Fraction(1, factorial(n)))
        for mono, coeff in t_map(power, ctx).items():
            k = n - mono.grading // 2
            if k <= order and mono.grading <= max_grading:
                _accumulate(lhs_terms[k], mono, coeff * inv_fact)
    lhs = FormalSeries([_wrap(terms) for terms in lhs_terms], order)

    # Right side: det(1 - 2 lambda M)^(-1/2) * exp_v(sum (2 lambda)^k M^k quadratic).
    entries = [
        [
            FormalSeries(
                [
                    Element.from_scalar(ONE if i == j else ZERO),
                    Element.from_scalar(Scalar(-2) * L.entry(i + 1, j + 1)),
                ],
                order,
            )
            for j in range(d)
        ]
        for i in range(d)
    ]
    det = _det_series(entries, order)
    prefactor = det.inverse_sqrt()

    powers = [_identity_matrix(d)]
    for _ in range(order):
        powers.append(_mat_mul(powers[-1], L))
    w_coeffs = []
    for k in range(order + 1):
        two_k = Scalar(2**k)
        acc = Element.zero()
        for i in range(d):
            for j in range(d):
                c = two_k * powers[k][i][j]
                if c:
                    acc = acc + c * Element.from_monomial(
                        Monomial.from_indices((i + 1, j + 1))
                    )
        w_coeffs.append(acc)
    w = FormalSeries(w_coeffs, order)
    rhs = (prefactor * series_vee_exp(w, max_grading)).grade_truncate(max_grading)
    return lhs, rhs


def _identity_matrix(d: int):
    return [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]


def _mat_mul(A, L):
    d = len(A)
    return [
        [
            sum((A[i][k] * L.entry(k + 1, j + 1) for k in range(d)), ZERO)
            for j in range(d)
        ]
        for i in range(d)
    ]


def _det_series(entries, order: int) -> FormalSeries:
    """Leibniz determinant of a small matrix of scalar series."""
    from itertools import permutations

    d = len(entries)
    total = FormalSeries.zero(order)
    for sigma in permutations(range(d)):
        sign = 1
        seen = list(sigma)
        for i in range(d):
            for j in range(i + 1, d):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = FormalSeries.constant(1, order)
        for i in range(d):
            prod = prod * entries[i][sigma[i]]
        total = total + sign * prod
    return total
