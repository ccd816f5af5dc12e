import ast
import importlib.util
import inspect
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

import wickalg.laplace as laplace_mod
import wickalg.renorm as renorm_mod
from conftest import mono, rand_scheme, trials_for
from wickalg.algebra import Element, divided_power
from wickalg.checks import (
    CheckEnv,
    law_circle_associative,
    law_inverse_four_point,
    law_tbar_examples,
    law_z_coupling_identity,
    rand_pairing,
)
from wickalg.cli import _build_parser, main
from wickalg.config import Config, ConfigError, load_config, parse_config
from wickalg.expr import EvalEnv, as_element, evaluate, format_value, parse_expr
from wickalg.renorm import LinearFunctional
from wickalg.scalars import Scalar
from wickalg.tmaps import TContext, t_map, tbar_map

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
DEFAULT = os.path.join(CONFIG_DIR, "default.json")
ASYMMETRIC = os.path.join(CONFIG_DIR, "asymmetric.json")


def fock(**fields):
    """asymmetric.json's d = 2 with a valid Fock block, some fields replaced."""
    return {"creation": [1], "annihilation": [2], "involution": {"1": 2}, **fields}


LISTS = "fock 'creation' and 'annihilation' must be lists of integers"
INVOLUTION = "fock 'involution' must map index strings"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfig:
    def test_loads_shipped_default(self):
        # The matrix alone states the dimension and the symmetry.
        with open(DEFAULT) as fh:
            assert not {"dimension", "symmetric"} & set(json.load(fh))
        cfg = load_config(DEFAULT)
        assert cfg.dimension == 4
        assert cfg.pairing.symmetric
        assert cfg.fock is not None
        assert cfg.scheme(
            __import__("wickalg").Monomial.from_indices((1, 2))
        ) == Scalar.parse("1/7")

    def test_rejects_asymmetric_matrix_with_flag(self):
        with pytest.raises(ConfigError):
            parse_config(
                {
                    "dimension": 2,
                    "symmetric": True,
                    "pairing": [["0", "1"], ["2", "0"]],
                }
            )

    def test_restated_keys_must_agree_with_the_matrix(self):
        pairing = [["0", "1"], ["1", "0"]]
        assert parse_config({"dimension": 2, "symmetric": True, "pairing": pairing}).dimension == 2
        with pytest.raises(ConfigError, match="'symmetric' disagrees"):
            parse_config({"symmetric": False, "pairing": pairing})
        with pytest.raises(ConfigError, match="'dimension' disagrees with the 2x2 pairing"):
            parse_config({"dimension": 1, "pairing": pairing})

    def test_rejects_bad_zeta_keys(self):
        base = {"pairing": [["0", "1"], ["1", "0"]]}
        for key in ("2,1", "1", "1,5", "x"):
            with pytest.raises(ConfigError):
                parse_config({**base, "zeta": {key: "1/2"}})

    def test_rejects_wrong_shape(self):
        for rows in ([["1", "0"]], [["1"], ["0"]], [["1", "0"], ["0"]], ["1"]):
            with pytest.raises(ConfigError):
                parse_config({"pairing": rows})

    def test_rejects_empty_pairing(self):
        for data in ({"pairing": []}, {}):
            with pytest.raises(ConfigError, match="non-empty square matrix"):
                parse_config(data)

    def test_fock_validation(self):
        base = {"pairing": [["0", "1"], ["1", "0"]]}
        with pytest.raises(ConfigError):
            parse_config(
                {**base, "fock": {"creation": [1], "annihilation": [2], "involution": {}}}
            )
        ok = parse_config(
            {**base, "fock": {"creation": [1], "annihilation": [2], "involution": {"1": 2}}}
        )
        assert ok.fock.partner[2] == 1


class TestEvalCommand:
    # section-3 worked products and section-6.3 scalar values, character exact
    CASES = [
        ("e1 o e2", "e1 v e2 + 1/3"),
        ("(e1 v e2) o e3", "e1 v e2 v e3 + 1/5 * e1 + 1/4 * e2"),
        ("e1 o (e2 v e3)", "e1 v e2 v e3 + 1/4 * e2 + 1/3 * e3"),
        ("e1 o e2 o e3", "e1 v e2 v e3 + 1/5 * e1 + 1/4 * e2 + 1/3 * e3"),
        (
            "e1 o e2 o e3 o e4",
            "e1 v e2 v e3 v e4 + 1/7 * e1 v e2 + 1/6 * e1 v e3 + 1/5 * e1 v e4"
            " + 1/5 * e2 v e3 + 1/4 * e2 v e4 + 1/3 * e3 v e4 + 181/1400",
        ),
        (
            "(e1 v e2) o (e3 v e4)",
            "e1 v e2 v e3 v e4 + 1/6 * e1 v e3 + 1/5 * e1 v e4"
            " + 1/5 * e2 v e3 + 1/4 * e2 v e4 + 49/600",
        ),
        ("t(e1 v e2)", "1/3"),
        ("tbar(e1 v e2)", "10/21"),
        ("tbar(e1 v e2 v e3)", "1/23"),
        ("tbar(e1 v e2 v e3 v e4)", "918595963/2316514200"),
        ("eps(e1 o e2)", "1/3"),
    ]

    @pytest.mark.parametrize("expression,expected", CASES)
    def test_worked_examples(self, capsys, expression, expected):
        code, out, err = run_cli(capsys, "eval", "--config", DEFAULT, expression)
        assert code == 0
        assert out.rstrip("\n") == expected

    def test_series_output(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--config", DEFAULT, "expv(e1, 2)")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "lambda^0: 1"
        assert lines[1] == "lambda^1: e1"
        assert lines[2] == "lambda^2: 1/2 * e1 v e1"

    def test_syntax_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--config", DEFAULT, "e1 o")
        assert code == 2
        assert "offset" in err

    def test_unknown_function_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--config", DEFAULT, "nope(e1)")
        assert code == 2

    def test_time_ordering_on_asymmetric_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--config", ASYMMETRIC, "T(e1 v e2)")
        assert code == 2
        assert "symmetric" in err

    def test_generator_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--config", ASYMMETRIC, "e5")
        assert code == 2

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--config", "/nonexistent.json", "e1")
        assert code == 2


class TestCheckCommand:
    # Criterion 11 and tests/test_laws.py check each law's verdict on the
    # shipped configs; these tests check what the command prints.
    def test_asymmetric_config_passes_and_skips_time_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--config", ASYMMETRIC, "--trials", "1", "--max-grade", "1"
        )
        assert code == 0
        assert "skip  T-map routes agree" in out
        assert "ok    circle commutativity criterion" in out

    @pytest.mark.parametrize("path,summary,skips", [
        (DEFAULT, "43/43 laws passed", 3),
        (ASYMMETRIC, "28/28 laws passed", 18),
    ])
    def test_check_summary_counts(self, capsys, path, summary, skips):
        # A law that silently became a skip would change these counts.  At
        # grading 1 the three scheme laws skip on both configs.
        code, out, _ = run_cli(
            capsys, "check", "--config", path, "--trials", "1", "--max-grade", "1"
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[-1] == summary
        assert sum(line.startswith("skip") for line in lines) == skips

    def test_one_by_one_config_runs_time_ordering(self, capsys, tmp_path):
        # A 1x1 matrix is symmetric, and no key has to say so.
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"pairing": [["2"]]}))
        code, out, _ = run_cli(
            capsys, "check", "--config", str(path), "--trials", "1", "--max-grade", "1"
        )
        assert code == 0
        assert "ok    T-map routes agree" in out
        assert "needs a symmetric pairing" not in out
        code, out, _ = run_cli(capsys, "eval", "--config", str(path), "t(e1 v e1)")
        assert (code, out) == (0, "2\n")

    @pytest.mark.parametrize(
        "section,value",
        [
            ("pairing", [["1/0", "1"], ["1", "0"]]),
            ("pairing", [["1/2+1/0i", "1"], ["1", "0"]]),
            ("zeta", {"1,2": "1/0"}),
            ("zeta", {"1,2": "1/2-3/0i"}),
        ],
    )
    def test_zero_denominator_literal_exits_2(self, capsys, tmp_path, section, value):
        cfg = {"pairing": [["0", "1"], ["1", "0"]], section: value}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "check", "--config", str(path), "--trials", "1")
        assert code == 2
        assert "zero denominator" in err
        assert out == ""

    @pytest.mark.parametrize(
        "overrides,argv,message",
        [
            ({}, ["--trials", "0"], "'trials' must be >= 1"),
            ({}, ["--trials", "-3"], "'trials' must be >= 1"),
            ({}, ["--max-grade", "-1"], "'max_grade' must be >= 1"),
            ({}, ["--seed", "-1"], "'seed' must be >= 0"),
            ({"symmetric": "false"}, [], "'symmetric' must be true or false"),
            ({"symmetric": True}, [], "'symmetric' disagrees with the pairing, which is not"),
            ({"dimension": 2.5}, [], "'dimension' must be an integer"),
            ({"dimension": True}, [], "'dimension' must be an integer"),
            ({"dimension": 3}, [], "'dimension' disagrees with the 2x2 pairing"),
            ({"pairing": ["1"]}, [], "pairing row 1 is not a list of scalar strings"),
            ({"pairing": [[1]]}, [], "pairing row 1: scalar literal must be a string, got 1"),
            ({"zeta": {"1,2": 5}}, [],
             "zeta value for '1,2': scalar literal must be a string, got 5"),
            ({"trials": 2.7}, [], "'trials' must be an integer"),
            ({"seed": "1"}, [], "'seed' must be an integer"),
            ({"fock": fock(creation=[1.9])}, [], LISTS),
            ({"fock": fock(creation=[True])}, [], LISTS),
            ({"fock": fock(annihilation=["2"])}, [], LISTS),
            ({"fock": fock(creation=1)}, [], LISTS),
            ({"fock": fock(involution={"1": 2.0})}, [], INVOLUTION),
            ({"fock": fock(involution={"1.0": 2})}, [], INVOLUTION),
            ({"fock": fock(involution=[[1, 2]])}, [], INVOLUTION),
            ({"trails": 5}, [], "unknown config key 'trails'; accepted keys: pairing, dimension,"
                                " symmetric, zeta, fock, seed, max_grade, trials"),
            ({"zeta_values": {"1,1": "1/2"}, "max_grad": 1}, [],
             "unknown config key 'zeta_values', 'max_grad'; accepted keys: pairing,"),
            ({"fock": fock(creators=[1])}, [],
             "unknown fock key 'creators'; accepted keys: creation, annihilation, involution"),
        ],
    )
    def test_bad_setting_exits_2(self, capsys, tmp_path, overrides, argv, message):
        with open(ASYMMETRIC) as fh:
            cfg = {**json.load(fh), **overrides}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "check", "--config", str(path), *argv)
        assert code == 2
        assert message in err
        assert out == ""

    def test_corrupted_permanent_kernel_is_caught(self, capsys, monkeypatch):
        real = laplace_mod.permanent

        def corrupted(matrix):
            value = real(matrix)
            if len(matrix) == 2:
                return value + Scalar(1)
            return value

        monkeypatch.setattr(laplace_mod, "permanent", corrupted)
        code, out, _ = run_cli(
            capsys, "check", "--config", DEFAULT, "--trials", "10", "--max-grade", "5"
        )
        assert code == 1
        assert "FAIL  permanent equals permutation sum" in out
        assert "counterexample" in out

    def test_exit_code_surfaces_counterexample_law(self, monkeypatch):
        # Every pairing of monomials runs the multiset kernel; corrupt it at grading 2.
        cfg = load_config(DEFAULT)
        real = laplace_mod._glynn

        def corrupted(D, rows, row_mults, col_mults):
            value = real(D, rows, row_mults, col_mults)
            if sum(row_mults) == 2:
                return value + Scalar(1)
            return value

        monkeypatch.setattr(laplace_mod, "_glynn", corrupted)
        env = CheckEnv(cfg, 3, trials_for(law_circle_associative, 6), 0)
        assert law_circle_associative(env) is not None

    def test_corrupted_inverse_is_caught_with_two_generators(self, capsys, monkeypatch):
        # asymmetric.json has d = 2, so the four-point formula runs on e1 v e2 v e1 v e2.
        real = renorm_mod.convolution_inverse

        def corrupted(z):
            inv = real(z)
            return LinearFunctional(
                lambda m: inv(m) + (Scalar(1) if m.grading == 4 else Scalar(0))
            )

        monkeypatch.setattr(renorm_mod, "convolution_inverse", corrupted)
        code, out, _ = run_cli(
            capsys, "check", "--config", ASYMMETRIC, "--trials", "8", "--max-grade", "4"
        )
        assert code == 1
        assert "FAIL  convolution inverse four-point formula" in out

    def test_corrupted_convolution_fails_the_group_action(self, capsys, monkeypatch):
        real = renorm_mod.convolve

        def corrupted(z1, z2):
            product = real(z1, z2)
            bumped = mono(1, 2)  # one grading-2 value
            return LinearFunctional(
                lambda m: product(m) + (Scalar(1) if m == bumped else Scalar(0))
            )

        monkeypatch.setattr(renorm_mod, "convolve", corrupted)
        code, out, _ = run_cli(
            capsys, "check", "--config", ASYMMETRIC, "--trials", "8", "--max-grade", "4"
        )
        assert code == 1
        assert "FAIL  renormalisation group acts on the product" in out

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_four_point_laws_hold_with_repeated_letters(self, d):
        rng = random.Random(d)
        cfg = Config(rand_pairing(rng, d, True), rand_scheme(rng, d), None, 0, 3, 8)
        env = CheckEnv(cfg, 3, 8, 0)
        for law in (law_inverse_four_point, law_z_coupling_identity, law_tbar_examples):
            assert law(env) is None, law.__name__


class TestGreenCommand:
    def test_order_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "green", "--config", DEFAULT, "1", "2", "0", "--order", "0"
        )
        assert code == 0
        assert out.rstrip("\n") == "lambda^0: 1/3"

    def test_zero_lagrangian_constant_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "green", "--config", DEFAULT, "1", "1", "0", "--order", "2"
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines == ["lambda^0: 1/2", "lambda^1: 0", "lambda^2: 0"]

    def test_renormalised_trivial_scheme_matches_bare(self, capsys, tmp_path):
        with open(DEFAULT) as fh:
            cfg = json.load(fh)
        cfg.pop("zeta")
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(cfg))
        code, bare, _ = run_cli(
            capsys, "green", "--config", str(path), "1", "2", "e1 v e2", "--order", "2"
        )
        assert code == 0
        code, ren, _ = run_cli(
            capsys,
            "green",
            "--config",
            str(path),
            "1",
            "2",
            "e1 v e2",
            "--order",
            "2",
            "--renormalised",
        )
        assert code == 0
        assert bare == ren

    def test_asymmetric_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "green", "--config", ASYMMETRIC, "1", "2", "e1", "--order", "1"
        )
        assert code == 2
        assert "symmetric" in err

    def test_index_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "green", "--config", DEFAULT, "9", "1", "e1", "--order", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("flags, expected", [
        ([], ["lambda^0: 1/3", "lambda^1: 1", "lambda^2: 8", "lambda^3: 99"]),
        (["--renormalised"],
         ["lambda^0: 1/3", "lambda^1: 2", "lambda^2: 61/2", "lambda^3: 2193/4"]),
    ])
    def test_quartic_lagrangian(self, capsys, flags, expected):
        # lambda^1 bare: t(e1 v e2 v e1^4) - t(e1 v e2) t(e1^4) = 5/4 - 1/4
        code, out, _ = run_cli(
            capsys, "green", "--config", DEFAULT, "1", "2", "e1 v e1 v e1 v e1",
            "--order", "3", *flags,
        )
        assert code == 0
        assert out.splitlines() == expected

    def test_negative_order(self, capsys):
        code, out, err = run_cli(
            capsys, "green", "--config", DEFAULT, "1", "2", "e1", "--order", "-1"
        )
        assert (code, out) == (2, "")
        assert "non-negative integer order" in err

    @pytest.mark.parametrize("flags", [[], ["--renormalised"]])
    @pytest.mark.parametrize("i, j, lagrangian, order", [
        (1, 2, "0", 2),
        (1, 1, "e1 v e2", 3),
        (2, 3, "1/2 * e1 v e1 v e3 - e2 v e4", 2),
        (1, 2, "e1 v e1 v e1 v e1", 3),
    ])
    def test_green_is_eval_of_green(self, capsys, flags, i, j, lagrangian, order):
        code, green_out, _ = run_cli(
            capsys, "green", "--config", DEFAULT, str(i), str(j), lagrangian,
            "--order", str(order), *flags,
        )
        assert code == 0
        assert green_out.count("lambda^") == order + 1
        code, eval_out, _ = run_cli(
            capsys, "eval", "--config", DEFAULT,
            f"green(e{i}, e{j}, {lagrangian}, {order})", *flags,
        )
        assert code == 0
        assert green_out == eval_out


class TestLongInput:
    """A long sum, product or scalar chain is read and folded in a loop;
    input nested deeper than the parser can follow is refused with exit 2,
    never a traceback."""

    def test_long_sum(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--config", DEFAULT, " + ".join(["e1"] * 3000)
        )
        assert code == 0, err
        assert out == "3000 * e1\n"

    def test_long_element_reads_back(self):
        config = load_config(DEFAULT)
        env = EvalEnv(config.pairing, config.scheme)
        rng = random.Random(1200)
        monomials = [mono(*(1,) * a, *(2,) * b, *(3,) * c, *(4,) * d)
                     for a in range(8) for b in range(8) for c in range(5) for d in range(5)]
        u = Element.zero()
        for m in monomials[:1200]:
            u = u + Element.from_monomial(m, Scalar(Fraction(rng.randint(-9, 9) or 1,
                                                             rng.randint(1, 9)),
                                                    rng.randint(-2, 2)))
        assert len(u.terms) == 1200
        text = format_value(u)
        assert evaluate(parse_expr(text), env) == u

    @pytest.mark.parametrize("factors", [990, 1100])
    def test_long_scalar_chain(self, capsys, factors):
        code, out, err = run_cli(
            capsys, "eval", "--config", DEFAULT, "2 * " * factors + "e1"
        )
        assert code == 0, err
        assert out == f"{2**factors} * e1\n"

    @pytest.mark.parametrize("expression", [
        "(" * 1200 + "e1" + ")" * 1200,
        "(" * 800 + "e1" + ")" * 800,
    ])
    def test_deep_nesting_exits_2(self, capsys, expression):
        code, out, err = run_cli(capsys, "eval", "--config", DEFAULT, expression)
        assert (code, out) == (2, "")
        assert "nested too deeply" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["eval", "expv(e1, 4294967296)"],
    ["eval", "S(e1 v e1, 2147483648)"],
    ["eval", "dp(e1, 5000000000)"],
    ["green", "--order", "2147483648", "1", "2", "e1 v e1"],
], ids=["expv", "S", "dp", "green"])
def test_a_packed_field_overflow_exits_2_at_once(capsys, argv):
    """An order or a power that no 32-bit field can hold is refused before
    any work: exit 2 and a message, never a traceback."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], "--config", DEFAULT, *argv[1:])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "overflows" in err and "Traceback" not in err


def decimal_int(digits):
    """int(digits) for any length, 1000 digits at a time, so the test process
    keeps the interpreter's int/str digit limit."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10**len(chunk) + int(chunk)
    return value


def t_of_divided_power(n):
    """T(dp(e1, n)) on default.json, from t(dp(e1, 2k)) = 1/(4^k k!): the sum
    over k of 1/(4^k k!) dp(e1, n - 2k); zero for n < 0."""
    return sum((Scalar(Fraction(1, 4**k * factorial(k))) * divided_power(1, n - 2 * k)
                for k in range(n // 2 + 1)), Element.zero())


def tbar_of_divided_power(n):
    """zeta(dp(e1, 2)) = 1/4 is the only zeta value on powers of e1, so
    Tbar(dp(e1, n)) = T(dp(e1, n)) + 1/4 T(dp(e1, n - 2))."""
    return t_of_divided_power(n) + Scalar(Fraction(1, 4)) * t_of_divided_power(n - 2)


class TestDeepWords:
    """t's letter loop runs on an explicit stack, and T and Tbar are twists
    of t, so a word of hundreds or thousands of letters needs no Python frame
    per letter.  On default.json (e1|e1) = 1/2 and zeta(e1 v e1) = 1/2 is
    the only zeta value on powers of e1, so t(e1^2n)/(2n)! = 1/(4^n n!) and
    tbar adds 1/(4^n (n-1)!)."""

    @pytest.mark.parametrize("expression, numerator", [
        ("t(dp(e1, 2000))", 1),
        ("tbar(dp(e1, 2000))", 1001),
    ])
    def test_prints_the_value(self, capsys, expression, numerator):
        code, out, err = run_cli(capsys, "eval", "--config", DEFAULT, expression)
        assert code == 0, err
        assert Scalar.parse(out.strip()) == Scalar(Fraction(numerator, 4**1000 * factorial(1000)))

    @pytest.mark.parametrize("expression, expected", [
        ("T(dp(e1, 300))", t_of_divided_power),
        ("Tbar(dp(e1, 300))", tbar_of_divided_power),
    ])
    def test_prints_the_time_ordered_word(self, capsys, expression, expected):
        code, out, err = run_cli(capsys, "eval", "--config", DEFAULT, expression)
        assert code == 0, err
        env = EvalEnv(load_config(DEFAULT).pairing, None)
        assert as_element(evaluate(parse_expr(out.strip()), env)) == expected(300)

    def test_prints_a_value_beyond_the_int_digit_limit(self, capsys):
        # the denominator 4^2500 * 2500! has about 8,900 digits
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        code, out, err = run_cli(capsys, "eval", "--config", DEFAULT, "t(dp(e1, 5000))")
        assert code == 0, err
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        numerator, denominator = out.strip().split("/")
        assert numerator == "1"
        assert len(denominator) > 4300
        assert decimal_int(denominator) == 4**2500 * factorial(2500)

    def test_t_and_tbar_of_divided_powers_in_process(self):
        config = load_config(DEFAULT)
        ctx = TContext(config.pairing, config.scheme)
        for n in (0, 1, 2, 3, 4, 7, 12, 40, 300):
            assert t_map(divided_power(1, n), ctx) == t_of_divided_power(n), n
            assert tbar_map(divided_power(1, n), ctx) == tbar_of_divided_power(n), n


def run_module(argv, **environ):
    """``python -m wickalg *argv`` in a fresh interpreter, source tree on the path."""
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "wickalg", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_dash_m_wickalg_runs_the_cli(capsys):
    argv = ["green", "--config", DEFAULT, "1", "2", "e1 v e2", "--order", "2"]
    proc = run_module(argv)
    code, out, _ = run_cli(capsys, *argv)
    assert proc.returncode == 0 == code, proc.stderr
    assert proc.stdout == out
    assert out.count("lambda^") == 3


@pytest.mark.parametrize("argv", [
    ["check", "--config", ASYMMETRIC, "--trials", "3"],
    ["green", "--config", DEFAULT, "1", "2", "e1 v e2 v e3 v e4", "--order", "4"],
    ["green", "--config", DEFAULT, "1", "2", "e1 v e2 v e3 v e4", "--order", "4",
     "--renormalised"],
])
def test_output_does_not_depend_on_hashing(argv):
    """Monomials hash by identity, so a set of them iterates in address order;
    no printed line may depend on that order or on the string hash seed."""
    runs = [run_module(argv, PYTHONHASHSEED=seed) for seed in ("0", "4242")]
    assert [p.returncode for p in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


def test_package_exports():
    import wickalg

    names = wickalg.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(wickalg, name)
        # law statements and their helpers stay in checks, out of the API
        assert getattr(obj, "__module__", "") != "wickalg.checks", name
    namespace = {}
    exec("from wickalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_oracles_stay_independent():
    """Only the package and ``checks`` import ``oracles``, and ``oracles``
    reaches none of the production routes it checks, so an oracle cannot
    share the algorithm it is compared against."""
    src = os.path.join(ROOT, "src", "wickalg")
    routes = {"t_map", "tbar_map", "t_scalar", "tbar_scalar", "t_sum", "twist",
              "twist_numerators", "circle_renorm"}
    importers = set()
    for filename in sorted(os.listdir(src)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(src, filename), encoding="utf-8") as fh:
            nodes = list(ast.walk(ast.parse(fh.read())))
        # the last part of every imported module and every imported name
        imported = {alias.name.split(".")[-1] for node in nodes
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        imported |= {node.module.split(".")[-1] for node in nodes
                     if isinstance(node, ast.ImportFrom) and node.module}
        if "oracles" in imported:
            importers.add(filename[:-3])
        if filename == "oracles.py":
            used = imported | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            used |= {node.id for node in nodes if isinstance(node, ast.Name)}
            assert not used & routes, sorted(used & routes)
    assert importers == {"__init__", "checks"}


def test_laws_leave_trial_counts_and_gradings_to_the_runner():
    """No law in ``checks`` reads the trial request, floors or caps a trial
    count or a grading, or draws at a literal grading: the runner alone
    sizes and counts trials, from the cap and share each law declares."""
    with open(os.path.join(ROOT, "src", "wickalg", "checks.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    draws = {"random_monomial", "random_element", "random_scheme"}
    found = []
    for top in tree.body:
        if getattr(top, "name", None) in ("run_law", "run_checks", "CheckEnv"):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "trials":
                found.append(f"line {node.lineno}: reads the trial request")
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("max", "min") and any(
                    word in ast.unparse(arg) for arg in node.args for word in ("trial", "grade")):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
            literal = [k.value for k in node.keywords if k.arg == "max_grade"]
            if name in draws:
                literal += node.args[:1]
            if any(isinstance(value, ast.Constant) for value in literal):
                found.append(f"line {node.lineno}: draws at a literal grading")
    assert not found


class TestBenchmarkNames:
    """Every wickalg name that perfbench/ reads or wraps still resolves, so a
    rename in the library fails here before it breaks the benchmark.  The
    benchmark files are read, never changed."""

    PERFBENCH = os.path.join(ROOT, "perfbench")

    @pytest.fixture(scope="class")
    def tracer(self):
        path = os.path.join(self.PERFBENCH, "tracer.py")
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_workload_attributes_resolve(self):
        with open(os.path.join(self.PERFBENCH, "workloads.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        modules = {"algebra", "checks", "config", "laplace", "scalars", "series", "tmaps"}
        seen = set()
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in modules:
                seen.add((node.id, tuple(chain)))
        assert {("series", ("green",)), ("tmaps", ("TContext",))} <= seen
        for mod, chain in seen:
            obj = importlib.import_module(f"wickalg.{mod}")
            for attr in chain:
                assert hasattr(obj, attr), f"{mod}.{'.'.join(chain)}"
                obj = getattr(obj, attr)

    @pytest.fixture(scope="class")
    def roadmap_rows(self):
        """perfbench/run.py's ROADMAP_ROWS, read from its syntax tree."""
        with open(os.path.join(self.PERFBENCH, "run.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ROADMAP_ROWS"]:
                return ast.literal_eval(node.value)
        raise AssertionError("perfbench/run.py defines no ROADMAP_ROWS")

    def test_roadmap_rows_parse(self, roadmap_rows):
        for _, argv in roadmap_rows:
            _build_parser().parse_args(argv)

    def test_roadmap_green_rows_run(self, capsys, monkeypatch, roadmap_rows):
        monkeypatch.chdir(ROOT)  # the rows name configs relative to the root
        green_rows = [argv for _, argv in roadmap_rows if argv[0] == "green"]
        assert len(green_rows) == 3
        for argv in green_rows:
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0, argv
            assert len(out.splitlines()) == _build_parser().parse_args(argv).order + 1, argv

    def test_traced_names_are_wrappable(self, tracer):
        methods = {(cls, attr) for pairs in tracer.METHODS.values() for cls, attr in pairs}
        names = set(tracer.Tracer.COUNTERS) | set(tracer.Tracer().inclusive)
        assert {"smatrix", "circle_renorm", "green"} <= names
        layers = [importlib.import_module(f"wickalg.{layer}") for layer in tracer.LAYERS]
        for name in sorted(names):
            if "." in name:
                cls_name, attr = name.split(".")
                assert (cls_name, attr) in methods, name
                owners = [getattr(mod, cls_name) for mod in layers if hasattr(mod, cls_name)]
                assert any(attr in vars(cls) for cls in owners), name
            else:
                # The tracer wraps public, non-generator functions of a layer
                # where they are defined.
                assert any(
                    inspect.isfunction(fn := vars(mod).get(name))
                    and fn.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(fn)
                    for mod in layers
                ), name
        for cls_name, attr in methods:
            owners = [getattr(mod, cls_name) for mod in layers if hasattr(mod, cls_name)]
            assert any(attr in vars(cls) for cls in owners), f"{cls_name}.{attr}"
