import random
from fractions import Fraction
from math import ceil

import pytest

from wickalg import Element, Monomial, PairingMatrix, Scalar, Scheme
from wickalg.checks import (  # noqa: F401  (re-exported to the tests)
    LAWS,
    CheckEnv,
    Draws,
    monomials_upto,
    rand_element,
    rand_monomial,
    rand_pairing,
    rand_scalar,
    run_law,
)
from wickalg.config import Config


def e(i):
    return Element.generator(i)


def mono(*indices):
    return Monomial.from_indices(indices)


def rational(p, q=1):
    return Scalar(Fraction(p, q))


def entries(L):
    """The entries of a pairing matrix as rows of Scalars, read by entry()."""
    return [[L.entry(i, j) for j in range(1, L.dim + 1)] for i in range(1, L.dim + 1)]


def rand_scheme(rng, dim, max_grade=4):
    values = {}
    for _ in range(rng.randint(3, 7)):
        m = rand_monomial(rng, dim, max_grade, min_grade=2)
        values[m] = rand_scalar(rng)
    return Scheme(values)


def entry_of(law):
    """The ``checks.LAWS`` entry of ``law``, a ``checks.law_*``."""
    return next(entry for entry in LAWS if entry.fn is law)


def assert_laws(laws, L, *, seed, max_grade, trials, scheme=None, fock=None, **fields):
    """Run each law (a ``checks.law_*``) through ``checks.run_law`` on one
    CheckEnv at the caller's own seed, grading and trial count; the pairing L
    sets d.  ``fields`` replace fields of each law's entry: ``cap=`` for a
    grading past its cap, ``cases=`` for cases of the caller's own.  Each law
    must hold and run at least one trial."""
    config = Config(L, Scheme() if scheme is None else scheme, fock, seed, max_grade, trials)
    env = CheckEnv(config, max_grade, trials, seed)
    for law in laws:
        counterexample, run = run_law(entry_of(law)._replace(**fields), env)
        assert counterexample is None, f"{law.__name__}: {counterexample}"
        assert run, f"{law.__name__} ran no trial"


def sweep(env, *drawn):
    """Cases of every monomial up to the grading in force, each one trial,
    then ``drawn`` (``checks.Draws`` cases)."""
    return [*monomials_upto(env.d, env.max_grade), *drawn]


def trials_for(law, n):
    """The trial request at which ``law`` (a ``checks.law_*``) runs n trials
    of each of its drawn cases, by the share its declaration gives."""
    return ceil(n / entry_of(law).share)


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def hilbert4():
    """The shipped symmetric pairing: entries 1/(i+j), d=4."""
    rows = [
        [Scalar(Fraction(1, i + j)) for j in range(1, 5)] for i in range(1, 5)
    ]
    return PairingMatrix(rows)
