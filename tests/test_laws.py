"""Every law in ``checks.LAWS``, run by ``checks.run_checks`` over the two
shipped configs and over seeded random configs: d = 1..4, symmetric
pairings at each d and asymmetric ones at d = 2..4 (a 1x1 matrix is always
symmetric), a Fock block at d = 2 and 4 and none at d = 1 and 3.

A law lives only in ``checks.LAWS``.  This module, the acceptance criteria and
some unit tests (through ``conftest.assert_laws``) run the laws; the tests
otherwise keep worked examples and oracles.
"""

import functools
import os
import random

import pytest

from conftest import rand_scheme
from wickalg import laplace
from wickalg.checks import LAWS, CheckEnv, law_permanent_kernels, rand_pairing, run_checks
from wickalg.config import Config, load_config
from wickalg.fock import FockStructure

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# Breadth over configs; the acceptance criteria run the laws at their own,
# larger sizes, and criterion 11 runs `check` on the shipped configs at 10
# trials and grading 3.
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


def expected_status(config, needs_symmetric, needs_fock):
    if needs_symmetric and not config.pairing.symmetric:
        return "skip"
    if needs_fock and config.fock is None:
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
    assert [report.name for report in got] == [law[0] for law in LAWS]
    wrong = [
        f"{report.name}: {report.status} {report.detail}"
        for report, (_, _, needs_symmetric, needs_fock) in zip(got, LAWS)
        if report.status != expected_status(CONFIGS[name], needs_symmetric, needs_fock)
    ]
    assert not wrong


def test_each_law_runs_on_some_config():
    # A law whose needs no config meets would pass everywhere as a skip.
    ran = {report.name for name in CONFIGS for report in reports(name) if report.status == "ok"}
    assert ran == {law[0] for law in LAWS}


def test_permanent_law_compares_mostly_nonzero_values(monkeypatch):
    # asymmetric.json's pairing has a zero diagonal, so on it alone most
    # (m1|m2) vanish and the law would compare 0 with 0.
    config = CONFIGS["asymmetric.json"]
    oracle, values = laplace.permanent_by_permutations, []
    monkeypatch.setattr(laplace, "permanent_by_permutations",
                        lambda matrix: values.append(oracle(matrix)) or values[-1])
    env = CheckEnv(config, config.max_grade, config.trials, config.seed)
    assert law_permanent_kernels(env) is None
    assert len(values) == 60
    assert sum(1 for v in values if v) > len(values) / 2
