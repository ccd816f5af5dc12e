import inspect
from fractions import Fraction

import pytest

from conftest import e, mono, rand_element, rand_pairing, rand_scheme
from wickalg import Element, Scalar, Scheme, circle
from wickalg.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    EvalEnv,
    EvalError,
    ExprSyntaxError,
    Gen,
    Lit,
    ScalarMul,
    evaluate,
    format_value,
    parse_expr,
)

# The documented arity of every expression function (README "Command line").
ARITIES = {
    "T": 1, "Tbar": 1, "t": 1, "tbar": 1, "eps": 1, "antipode": 1, "Sigma": 1,
    "expSigma": 1, "pair": 2, "Z": 2, "mpair": 2, "S": 2, "delta": 2, "dp": 2,
    "expv": 2, "green": 4,
}


@pytest.fixture
def env(rng):
    L = rand_pairing(rng, 4, symmetric=True)
    return EvalEnv(L, rand_scheme(rng, 4))


@pytest.fixture
def asym_env(rng):
    L = rand_pairing(rng, 2, symmetric=False)
    return EvalEnv(L, Scheme())


class TestParser:
    def test_circle_of_generators(self):
        assert parse_expr("e1 o e2") == BinOp("o", Gen(1), Gen(2))

    def test_call_with_products(self):
        got = parse_expr("pair(e1 v e2, e3 v e4)")
        assert got == Call(
            "pair", (BinOp("v", Gen(1), Gen(2)), BinOp("v", Gen(3), Gen(4)))
        )

    def test_complex_scalar_multiplier(self):
        got = parse_expr("1/2+3/4i * e1")
        assert got == ScalarMul(Scalar(Fraction(1, 2), Fraction(3, 4)), Gen(1))

    def test_scalar_sum_vs_complex_literal(self):
        assert parse_expr("1/2 + 3/4") == BinOp(
            "+", Lit(Scalar(Fraction(1, 2))), Lit(Scalar(Fraction(3, 4)))
        )
        assert parse_expr("1/2 + 3/4 i") == Lit(
            Scalar(Fraction(1, 2), Fraction(3, 4))
        )

    def test_left_associative_single_level(self):
        got = parse_expr("e1 v e2 o e3")
        assert got == BinOp("o", BinOp("v", Gen(1), Gen(2)), Gen(3))

    def test_parentheses(self):
        got = parse_expr("e1 o (e2 v e3)")
        assert got == BinOp("o", Gen(1), BinOp("v", Gen(2), Gen(3)))

    def test_negative_scalar_atom(self):
        assert parse_expr("-1 * e1") == ScalarMul(Scalar(-1), Gen(1))
        assert parse_expr("e1 - 1/2 * e2") == BinOp(
            "-", Gen(1), ScalarMul(Scalar(Fraction(1, 2)), Gen(2))
        )

    def test_renorm_circle_token(self):
        assert parse_expr("e1 ro e2") == BinOp("ro", Gen(1), Gen(2))

    def test_syntax_error_offsets(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("e1 o")
        assert err.value.offset == 4
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("(e1 v e2")
        assert err.value.offset == 8
        with pytest.raises(ExprSyntaxError):
            parse_expr("e1 @ e2")

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("frob(e1)")
        assert "unknown function" in str(err.value)

    def test_arity_mismatch(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("pair(e1)")
        assert "2 argument" in str(err.value)
        with pytest.raises(ExprSyntaxError):
            parse_expr("eps(e1, e2)")

    def test_zero_denominator(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1/0")

    @pytest.mark.parametrize("text", ["-1/2+3/4i", "- 1 / 2 + 3 / 4 i"])
    def test_leading_minus_negates_the_real_part_only(self, text):
        assert parse_expr(text) == Lit(Scalar(Fraction(-1, 2), Fraction(3, 4)))

    def test_imaginary_unit_is_a_whole_word(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1/2 + 3/4 i2")

    @pytest.mark.parametrize("name", sorted(ARITIES))
    def test_function_arities(self, name):
        arity = ARITIES[name]
        assert FUNCTIONS[name][0] == arity
        # the body takes the env and exactly that many argument values
        assert len(inspect.signature(FUNCTIONS[name][1]).parameters) == arity + 1
        assert parse_expr(f"{name}({', '.join(['e1'] * arity)})") == Call(
            name, (Gen(1),) * arity
        )
        with pytest.raises(ExprSyntaxError):
            parse_expr(f"{name}({', '.join(['e1'] * (arity + 1))})")

    def test_every_function_is_documented(self):
        assert set(FUNCTIONS) == set(ARITIES)


class TestEvaluation:
    def test_circle_example(self, env):
        got = evaluate(parse_expr("e1 o e2"), env)
        expected = Element.from_monomial(mono(1, 2)) + env.pairing.entry(
            1, 2
        ) * Element.one()
        assert got == expected

    def test_eps_of_circle(self, env):
        got = evaluate(parse_expr("eps(e1 o e2)"), env)
        assert got == env.pairing.entry(1, 2)

    def test_tbar_triple(self, env):
        got = evaluate(parse_expr("tbar(e1 v e2 v e3)"), env)
        assert got == env.scheme(mono(1, 2, 3))

    def test_scalar_multiplication(self, env):
        got = evaluate(parse_expr("1/2 * e1 + 1/2 * e1"), env)
        assert got == Element.generator(1)

    def test_sum_and_difference(self, env):
        assert evaluate(parse_expr("2 + 3"), env) == Scalar(5)
        got = evaluate(parse_expr("e1 - e1"), env)
        assert got == Element.zero()

    def test_divided_power_call(self, env):
        got = evaluate(parse_expr("dp(e1, 3)"), env)
        assert got == Element.from_monomial(mono(1, 1, 1), Scalar(Fraction(1, 6)))

    def test_delta_call(self, env):
        got = evaluate(parse_expr("delta(e1, e1 v e2)"), env)
        assert got == Element.generator(2)

    def test_antipode_call(self, env):
        got = evaluate(parse_expr("antipode(e1 v e2 v e3)"), env)
        assert got == -Element.from_monomial(mono(1, 2, 3))

    def test_z_and_mpair(self, env):
        z = env.scheme
        got = evaluate(parse_expr("Z(e1, e2)"), env)
        assert got == z(mono(1, 2))
        got = evaluate(parse_expr("mpair(e1, e2)"), env)
        assert got == z(mono(1, 2)) + env.pairing.entry(1, 2)

    def test_smatrix_series(self, env):
        got = evaluate(parse_expr("S(e1, 2)"), env)
        assert got.coefficient(0) == Element.one()
        assert got.coefficient(1) == Element.generator(1)

    def test_green_series(self, env):
        got = evaluate(parse_expr("green(e1, e2, 0, 1)"), env)
        assert got.coefficient(0).scalar_part() == env.pairing.entry(1, 2)

    def test_generator_out_of_range(self, env):
        with pytest.raises(EvalError):
            evaluate(parse_expr("e7"), env)

    def test_time_ordering_rejected_on_asymmetric(self, asym_env):
        for text in ("T(e1 v e2)", "t(e1 v e2)", "Tbar(e1)", "tbar(e1)", "Sigma(e1)"):
            with pytest.raises(EvalError):
                evaluate(parse_expr(text), asym_env)

    def test_circle_still_fine_on_asymmetric(self, asym_env):
        got = evaluate(parse_expr("e1 o e2 - e2 o e1"), asym_env)
        defect = asym_env.pairing.entry(1, 2) - asym_env.pairing.entry(2, 1)
        assert got == defect * Element.one()

    def test_delta_rejects_non_generator(self, env):
        with pytest.raises(EvalError):
            evaluate(parse_expr("delta(e1 v e2, e1)"), env)

    def test_order_must_be_integer(self, env):
        with pytest.raises(EvalError):
            evaluate(parse_expr("dp(e1, 1/2)"), env)

    def test_difference_chain_folds_left(self, env):
        # a right fold would give e1 - (e2 - e3) = e1 - e2 + e3
        assert evaluate(parse_expr("e1 - e2 - e3"), env) == e(1) - e(2) - e(3)

    def test_product_chain_folds_left(self, env):
        left = circle(e(1), e(2), env.pairing).vee(e(3))
        right = circle(e(1), e(2).vee(e(3)), env.pairing)
        assert left != right
        assert evaluate(parse_expr("e1 o e2 v e3"), env) == left


class TestRoundTrip:
    def test_print_parse_fixed_point(self, env, rng):
        for _ in range(60):
            u = rand_element(rng, 4, 4)
            text = format_value(u)
            again = evaluate(parse_expr(text), env)
            assert again == u
            assert format_value(again) == text

    def test_scalar_round_trip(self, env, rng):
        from conftest import rand_scalar

        for _ in range(40):
            s = rand_scalar(rng)
            text = format_value(s)
            assert evaluate(parse_expr(text), env) == s

    def test_canonical_output_examples(self, env):
        u = evaluate(parse_expr("e2 v e1"), env)
        assert format_value(u) == "e1 v e2"


class TestParserProperties:
    """Parse only: evaluating random text could ask for unbounded work."""

    ALPHABET = [
        "0", "1", "2", "12", "/", "+", "-", "*", "(", ")", ",", "i", "i2", "e1",
        "e2", "e12", "v", "o", "ro", "x", "@", *sorted(ARITIES),
    ]

    def test_token_strings_parse_or_raise_syntax_error(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        tokens = st.tuples(st.sampled_from(self.ALPHABET), st.sampled_from(["", " "]))

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.lists(tokens, max_size=12))
        def prop(pieces):
            text = "".join(token + gap for token, gap in pieces)
            try:
                parse_expr(text)
            except ExprSyntaxError:
                pass

        prop()

    def test_printed_scalar_reads_back(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        rationals = st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**70))

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.builds(Scalar, rationals, rationals | st.just(Fraction(0))))
        def prop(s):
            assert parse_expr(str(s)) == Lit(s)

        prop()
