"""Every law in ``checks.LAWS``, run by ``checks.run_checks`` over the two
shipped configs and over seeded random configs: d = 1..4, symmetric
pairings at each d and asymmetric ones at d = 2..4 (a 1x1 matrix is always
symmetric), a Fock block at d = 2 and 4 and none at d = 1 and 3.

A law lives only in ``checks.LAWS``.  This module runs each at the sizes of
``wickalg check``; the acceptance criteria and the unit tests run a law at
their own pairing, scheme, grading and trials through ``conftest.assert_laws``,
which calls ``checks.run_law``, with a cap or cases of their own where they
need one.  Beyond those calls the tests keep worked examples, oracles and the
few identities no law states.
"""

import functools
import os
import random
from math import ceil

import pytest

from conftest import assert_laws, rand_scheme
from wickalg import Element, checks, laplace
from wickalg.checks import (LAWS, CheckEnv, Draws, law_permanent_kernels, law_vee_ring,
                            rand_pairing, run_checks, run_law)
from wickalg.cli import main
from wickalg.config import Config, load_config
from wickalg.fock import FockStructure

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# Breadth over configs: each law runs its declared share of 4 trials at
# grading min(cap, 3).  The acceptance criteria and the unit tests run the
# laws at their own, larger requests, and criterion 11 runs `check` on the
# shipped configs at 10 trials and grading 3.
TRIALS = 4
MAX_GRADE = 3


def random_config(d, symmetric):
    rng = random.Random(100 * d + symmetric)
    fock = None
    if d % 2 == 0:
        letters = rng.sample(range(1, d + 1), d)
        creators, annihilators = letters[: d // 2], letters[d // 2:]
        fock = FockStructure(creators, annihilators, dict(zip(creators, annihilators)))
    return Config(rand_pairing(rng, d, symmetric), rand_scheme(rng, d), fock,
                  seed=d, max_grade=MAX_GRADE, trials=TRIALS)


CONFIGS = {
    name: load_config(os.path.join(CONFIG_DIR, name))
    for name in ("default.json", "asymmetric.json")
}
CONFIGS.update(
    (f"d{d}-{'symmetric' if symmetric else 'asymmetric'}", random_config(d, symmetric))
    for d in (1, 2, 3, 4)
    for symmetric in (True, False)
    if symmetric or d > 1
)


@functools.cache
def reports(name):
    return run_checks(CONFIGS[name], max_grade=MAX_GRADE, trials=TRIALS)


def expected_status(config, entry):
    if entry.needs_symmetric and not config.pairing.symmetric:
        return "skip"
    if entry.needs_fock and config.fock is None:
        return "skip"
    return "ok"


@pytest.mark.parametrize("name", [name for name in CONFIGS if "asymmetric" in name])
def test_asymmetric_configs_have_asymmetric_pairings(name):
    # The pairing reads its symmetry from its entries, so an asymmetric draw
    # that came out symmetric would run, not skip, the time-ordering laws.
    assert not CONFIGS[name].pairing.symmetric


@pytest.mark.parametrize("name", CONFIGS)
def test_each_law_holds_or_skips_for_its_needs(name):
    got = reports(name)
    assert [report.name for report in got] == [entry.name for entry in LAWS]
    wrong = [
        f"{report.name}: {report.status} {report.detail}"
        for report, entry in zip(got, LAWS)
        if report.status != expected_status(CONFIGS[name], entry)
    ]
    assert not wrong


def test_each_law_runs_on_some_config():
    # A law whose needs no config meets would pass everywhere as a skip.
    ran = {report.name for name in CONFIGS for report in reports(name) if report.status == "ok"}
    assert ran == {entry.name for entry in LAWS}


def test_permanent_law_compares_mostly_nonzero_values(monkeypatch):
    # asymmetric.json's pairing has a zero diagonal, so on it alone most
    # (m1|m2) vanish and the law would compare 0 with 0.
    config = CONFIGS["asymmetric.json"]
    oracle, values = laplace.permanent_by_permutations, []
    monkeypatch.setattr(laplace, "permanent_by_permutations",
                        lambda matrix: values.append(oracle(matrix)) or values[-1])
    env = CheckEnv(config, config.max_grade, config.trials, config.seed)
    assert law_permanent_kernels(env) is None
    # two pairs per trial, ceil(100 / 20) trials at each grading 0..4
    assert len(values) == 2 * 5 * 5
    assert sum(1 for v in values if v) > len(values) / 2


SHIPPED = ("default.json", "asymmetric.json")
# The laws that draw random schemes; below grading 2 a scheme has no values to
# draw, so they run no trial there.
SCHEME_LAWS = (checks.law_convolution_group, checks.law_inverse_four_point,
               checks.law_group_action)


def applicable(name):
    return [(k, entry) for k, entry in enumerate(LAWS)
            if expected_status(CONFIGS[name], entry) == "ok"]


def test_a_law_that_runs_no_trial_is_a_skip(monkeypatch, capsys):
    k = next(k for k, entry in enumerate(LAWS) if entry.fn is law_vee_ring)
    patched = list(LAWS)
    patched[k] = LAWS[k]._replace(share=0)
    monkeypatch.setattr(checks, "LAWS", patched)
    report = run_checks(CONFIGS["default.json"], max_grade=1, trials=1)[k]
    assert (report.status, report.detail, report.trials_run) == ("skip", "ran 0 trials", 0)
    path = os.path.join(CONFIG_DIR, "default.json")
    assert main(["check", "--config", path, "--trials", "1", "--max-grade", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    skipped = [f"skip  {entry.name} (ran 0 trials)" for entry in LAWS
               if entry.fn is law_vee_ring or entry.fn in SCHEME_LAWS]
    assert [line for line in out if line.startswith("skip")] == skipped
    ran = len(LAWS) - len(skipped)
    assert out[-1] == f"{ran}/{ran} laws passed"


def test_check_sees_a_tbar_map_wrong_from_grading_four(monkeypatch):
    # At its defaults, check reaches grading 4 only through the circle-fold
    # law; the other Tbar identities stop at 3.
    real = checks.tbar_map

    def wrong(u, ctx):
        return real(u, ctx) + (Element.one() if any(m.grading >= 4 for m in u.terms) else 0)

    monkeypatch.setattr(checks, "tbar_map", wrong)
    failed = [report.name for report in run_checks(CONFIGS["default.json"])
              if report.status == "FAIL"]
    assert failed == ["Tbar equals the renormalised circle fold"]


def test_assert_laws_fails_on_a_law_that_runs_no_trial():
    # A request sized so that a law has no case must not pass as a check.
    with pytest.raises(AssertionError, match="law_vee_ring ran no trial"):
        assert_laws([law_vee_ring], CONFIGS["default.json"].pairing, seed=0, max_grade=1,
                    trials=1, cases=lambda env: [])


@pytest.mark.parametrize("name", SHIPPED)
def test_every_law_runs_a_trial_at_one_requested_trial(name):
    # At grading 1 exactly the scheme laws skip; at grading 2 every law runs.
    got = run_checks(CONFIGS[name], max_grade=1, trials=1)
    for k, entry in applicable(name):
        if entry.fn in SCHEME_LAWS:
            assert (got[k].status, got[k].detail, got[k].trials_run) == ("skip", "ran 0 trials", 0)
        else:
            assert got[k].status == "ok" and got[k].trials_run >= 1, entry.name
    got = run_checks(CONFIGS[name], max_grade=2, trials=1)
    assert all(got[k].status == "ok" and got[k].trials_run >= 1 for k, _ in applicable(name))


@pytest.mark.parametrize("name", SHIPPED)
def test_trials_run_grows_when_the_request_doubles(name):
    # A drawn case runs ceil(share x trials) times, which grows with the
    # request once share x trials >= 1; fixed cases run once whatever it is.
    # Grading 2 is the least at which the scheme laws have cases.
    trials = ceil(1 / min(entry.share for entry in LAWS))
    once, twice = (run_checks(CONFIGS[name], max_grade=2, trials=t) for t in (trials, 2 * trials))
    env = CheckEnv(CONFIGS[name], 2, 1, 0)
    for k, entry in applicable(name):
        drawn = entry.cases is None or any(isinstance(c, Draws) for c in entry.cases(env))
        if drawn:
            assert twice[k].trials_run > once[k].trials_run, entry.name
        else:
            assert twice[k].trials_run == once[k].trials_run, entry.name


class RecordingEnv(CheckEnv):
    """A CheckEnv that keeps the largest grading any draw returned."""
    drawn = 0

    def random_monomial(self, max_grade=None, min_grade=0):
        m = super().random_monomial(max_grade, min_grade)
        self.drawn = max(self.drawn, m.grading)
        return m

    def random_element(self, max_grade=None, terms=3):
        u = super().random_element(max_grade, terms)
        self.drawn = max(self.drawn, *(m.grading for m in u.terms), 0)
        return u


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("max_grade", [1, 2, 6])
def test_no_law_draws_above_its_grading(name, max_grade):
    env = RecordingEnv(CONFIGS[name], max_grade, 2, 0)
    for _, entry in applicable(name):
        env.drawn = 0
        assert run_law(entry, env)[0] is None, entry.name
        assert env.drawn <= min(max_grade, entry.cap or max_grade), entry.name
