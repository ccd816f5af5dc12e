"""Workload definitions and the worker process of the wickalg benchmark.

Each workload turns a seed into a fixed list of jobs (the "round"), runs them
one after another, and has an independent oracle for their results.  The
runner (``run.py``) starts this file as a fresh interpreter per round, so
every round begins with the program's caches empty, as a ``wickalg``
invocation does.

    python3 perfbench/workloads.py MODE WORKLOAD SEED SCALE [--trace PATH] [--perturb]

MODE is ``round`` (run every job once, timed, with a speed probe, see
``probe_s``, before the first job and after each) or ``oracle`` (compute the
reference results).  The last line of standard output is one JSON object;
its ``ready`` is the ``time.time()`` at which the inputs were built.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = {
    "default": os.path.join(ROOT, "configs", "default.json"),
    "asymmetric": os.path.join(ROOT, "configs", "asymmetric.json"),
}
PERTURBATION = Fraction(1, 997)

# The probe's fastest time seen on the 2-vCPU host of the baseline (Python
# 3.11); run.py reports times in this unit, see probe_s and run.py.
PROBE_REF_S = 0.0008

# Imported in main() so that run.py can import this module for the workload
# names without the program on the path.
algebra = checks = config = laplace = scalars = series = tmaps = None


def _import_program():
    global algebra, checks, config, laplace, scalars, series, tmaps
    from wickalg import algebra as _a, checks as _c, config as _cfg, laplace as _l
    from wickalg import scalars as _s, series as _se, tmaps as _t

    algebra, checks, config, laplace = _a, _c, _cfg, _l
    scalars, series, tmaps = _s, _se, _t


# -- seeded input pieces --------------------------------------------------------

def _rational(rng, top=3):
    """A nonzero rational p/q with |p|, q <= top."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, top))


def _gaussian(rng):
    """A nonzero Gaussian rational; a quarter of them have an imaginary part."""
    im = _rational(rng, 2) if rng.random() < 0.25 else 0
    return scalars.Scalar(_rational(rng), im)


def _one_term(rng, indices):
    """A random coefficient times the monomial of ``indices``."""
    return _gaussian(rng) * _monomial(indices)


def _shaped(rng, templates, letters):
    """One term per template of letter slots, e.g. (0, 0, 1, 2) = a v a v b v c.

    The slots take distinct random letters, so the shape, which letters
    repeat and which terms share them, and with it the work, is the same
    for every seed.
    """
    chosen = rng.sample(letters, 1 + max(max(t) for t in templates))
    return algebra.Element({
        algebra.Monomial.from_indices([chosen[slot] for slot in t]): _gaussian(rng)
        for t in templates})


def _monomial(indices):
    return algebra.Element.from_monomial(algebra.Monomial.from_indices(indices))


# -- workloads ---------------------------------------------------------------

def _even_sizes():
    """``CheckEnv`` whose random gradings and term counts cycle evenly.

    ``CheckEnv`` draws the grading of each random monomial and the term
    count of each random element uniformly; at a few trials per law the
    work of the suite then varies by a quarter from seed to seed.  Here
    sizes run through their range in turn, so every seed asks for the same
    sizes.  Apart from the size draw, both methods are the bodies of
    ``CheckEnv``'s: letters and coefficients stay random and are drawn in
    the same order, and elements are summed through ``Element.__add__``.
    """

    class EvenEnv(checks.CheckEnv):
        def __init__(self, *args):
            super().__init__(*args)
            self._cursor = {}

        def _next(self, lo, hi):
            k = self._cursor.get((lo, hi), 0)
            self._cursor[(lo, hi)] = k + 1
            return lo + k % (hi - lo + 1)

        def random_monomial(self, max_grade=None, min_grade=0):
            rng = self.rng
            if max_grade is None:
                max_grade = self.max_grade
            g = self._next(min_grade, max_grade)
            return algebra.Monomial.from_indices(rng.choices(range(1, self.d + 1), k=g))

        def random_element(self, max_grade=None, terms=3):
            out = algebra.Element.zero()
            for _ in range(self._next(1, terms)):
                c = self.random_scalar()
                out = out + c * algebra.Element.from_monomial(self.random_monomial(max_grade))
            return out

    return EvenEnv


class Laws:
    """Every applicable law of ``checks.LAWS`` on both shipped configs.

    One job is one law.  The laws of a config share one ``CheckEnv``, as in
    ``wickalg check``, so each law draws its random data after the laws
    before it.  The trial count is lowered from the configs' 100 so that a
    run repeats every law many times, and random sizes are spread evenly
    (see ``_even_sizes``) so that the work does not depend on the seed.
    """

    TRIALS = {"full": 10, "tiny": 1}

    def __init__(self, seed, scale):
        trials = self.TRIALS[scale]
        env_class = _even_sizes()
        self.envs = {}
        self.jobs = []
        for cname, path in CONFIGS.items():
            cfg = config.load_config(path)
            max_grade = 2 if scale == "tiny" else cfg.max_grade
            self.envs[cname] = env_class(cfg, max_grade, trials, seed)
            for entry in checks.LAWS:
                name, fn, needs_symmetric, needs_fock = entry[:4]
                if needs_symmetric and not cfg.pairing.symmetric:
                    continue
                if needs_fock and cfg.fock is None:
                    continue
                self.jobs.append((f"{cname}: {name}", cname, fn.__name__))

    def run(self, k):
        _, cname, fn_name = self.jobs[k]
        verdict = getattr(checks, fn_name)(self.envs[cname])
        return "ok" if verdict is None else f"FAIL: {verdict}"

    def expected(self, k):
        return "ok"


class GreenBare:
    """Two-point Green series ``series.green`` through the bare T map.

    Lagrangians: e1^4, e1 v e2 v e3, mass plus cubic, and random elements
    of grade <= 4 with seeded letters, each at growing order.  Orders stop
    where one job still takes well under a second: T through
    ``wick_expand`` enumerates every partial matching of up to
    order x (Lagrangian grade) positions, so grade 4 stops at order 2 and
    grade 3 at order 3.  The random shapes a v a v a v b, a v a v b v b and
    a v a v b + c v c have few distinct letters, so the T output has few
    coproduct splits and the circle product that attaches the external legs
    stays a small share; T takes most of the time.  Couplings and external
    legs are seeded.  Each job parses the config and builds a fresh
    ``TContext``, as ``wickalg green`` does, so no memo carries over from one
    job to the next.
    """

    RENORMALISED = False
    # (kind, orders) per named Lagrangian, copies of that list, the random
    # shapes (templates for _shaped, orders), cycled, and the number of
    # random elements.
    PLAN = {
        "full": ([("e1^4", (1, 2)), ("e1 v e2 v e3", (1, 2, 3)),
                  ("mass+cubic", (1, 2, 3))], 1,
                 [(((0, 0, 0, 1),), (2,)), (((0, 0, 1, 1),), (2,)),
                  (((0, 0, 1), (2, 2)), (3,))], 15),
        "tiny": ([("e1^4", (1,)), ("e1 v e2 v e3", (1, 2)),
                  ("mass+cubic", (1, 2))], 1,
                 [(((0, 0, 1, 2), (2, 3)), (1, 2))], 8),
    }

    def __init__(self, seed, scale):
        rng = random.Random(seed)
        with open(CONFIGS["default"], encoding="utf-8") as fh:
            self.config_data = json.load(fh)
        cfg = config.parse_config(self.config_data)
        d = cfg.dimension
        named, copies, shapes, n_random = self.PLAN[scale]
        lagrangians = []
        for _ in range(copies):
            for kind, orders in named:
                c = scalars.Scalar(_rational(rng))
                if kind == "e1^4":
                    u = c * _monomial((1, 1, 1, 1))
                elif kind == "e1 v e2 v e3":
                    u = c * _monomial((1, 2, 3))
                else:
                    a = rng.randint(1, d)
                    u = c * _monomial((a, a)) + _gaussian(rng) * _monomial((a, a, a))
                lagrangians.append((kind, u, orders))
        for k in range(n_random):
            templates, orders = shapes[k % len(shapes)]
            u = _shaped(rng, templates, range(1, d + 1))
            lagrangians.append(("random", u, orders))
        self.jobs = []
        for kind, u, orders in lagrangians:
            for order in orders:
                i, j = rng.randint(1, d), rng.randint(1, d)
                self.jobs.append((f"{kind} order {order} <{i},{j}>", i, j, u, order))

    def run(self, k):
        _, i, j, u, order = self.jobs[k]
        cfg = config.parse_config(self.config_data)
        ctx = tmaps.TContext(cfg.pairing, cfg.scheme)
        result = series.green(i, j, u, ctx, order, renormalised=self.RENORMALISED)
        return [str(c.scalar_part()) for c in result.coeffs]

    def expected(self, k):
        _, i, j, u, order = self.jobs[k]
        cfg = config.parse_config(self.config_data)
        return _green_reference(i, j, u, cfg.pairing, cfg.scheme, order,
                                self.RENORMALISED)


class GreenRenorm(GreenBare):
    """The same Lagrangian generator with ``renormalised=True``.

    Orders are higher than for the bare series, because Tbar is already a
    memoised recursion; time goes to the renormalised circle product and its
    coupling and modified pairings, and to ``laplace.circle`` for the
    external legs.  The random elements are a v a v b v c + c v d.
    """

    RENORMALISED = True
    PLAN = {
        "full": ([("e1^4", (3, 4)), ("e1 v e2 v e3", (2, 3)),
                  ("mass+cubic", (3, 4))], 2,
                 [(((0, 0, 1, 2), (2, 3)), (2,))], 12),
        "tiny": ([("e1^4", (2,)), ("e1 v e2 v e3", (2,)),
                  ("mass+cubic", (2,))], 1,
                 [(((0, 0, 1, 2), (2, 3)), (1, 2))], 9),
    }


def _tbar_by_twist(w, ctx, z):
    """Tbar(w) = sum zeta(w_(1)) T(w_(2)), with T through ``exp_sigma``."""
    twisted = {}
    for w1, w2, c in algebra.sweedler(w):
        f = z(w1)
        if f:
            twisted[w2] = twisted.get(w2, scalars.ZERO) + c * f
    return tmaps.exp_sigma(algebra.Element(twisted), ctx)


def _green_reference(i, j, u, L, z, order, renormalised):
    """The Green series by routes that share no code with ``series.green``.

    The coefficients of exp_v(u) are built here, T runs through
    ``exp_sigma`` (with the zeta twist when renormalised), the scalar part
    of (e_i o e_j) o c is (e_i|e_j) eps(c) plus the 2x2 permanents against
    the grade-2 part of c, and the quotient series is divided here.
    """
    ctx = tmaps.TContext(L, z)
    power = algebra.Element.one()
    num, den = [], []
    factorial = 1
    for n in range(order + 1):
        if n:
            power = power.vee(u)
            factorial *= n
        c = power / scalars.Scalar(factorial)
        tc = _tbar_by_twist(c, ctx, z) if renormalised else tmaps.exp_sigma(c, ctx)
        eps = tc.scalar_part()
        legs = L.entry(i, j) * eps
        for mono, coeff in tc.items():
            if mono.grading == 2:
                a, b = mono.indices()
                legs = legs + coeff * (L.entry(i, a) * L.entry(j, b)
                                       + L.entry(i, b) * L.entry(j, a))
        num.append(legs)
        den.append(eps)
    out = []
    for k in range(order + 1):
        acc = num[k]
        for m in range(1, k + 1):
            acc = acc - den[m] * out[k - m]
        out.append(acc / den[0])
    return [str(x) for x in out]


class PairingsCold:
    """``laplace.pairing(u, v, L)`` with no pairing key ever repeated.

    Every job draws a fresh random ``PairingMatrix`` and two one-term
    elements of the same grade, so it computes one permanent; the grades
    cycle through 6, 7 and 8.  Even jobs use a 2-letter alphabet (every
    permanent has repeated rows and columns), odd jobs an 8-letter one
    with no letter repeated in a monomial (distinct rows and columns), so
    ``laplace.repeat_share`` is one half.  Jobs are small so that a run
    repeats each of them many times.
    """

    PLAN = {"full": (48, (6, 7, 8)), "tiny": (24, (3, 4))}

    def __init__(self, seed, scale):
        rng = random.Random(seed)
        n_jobs, grades = self.PLAN[scale]
        self.jobs = []
        for k in range(n_jobs):
            d = 2 if k % 2 == 0 else 8
            g = grades[k // 2 % len(grades)]
            rows = [[_gaussian(rng) for _ in range(d)] for _ in range(d)]
            L = laplace.PairingMatrix(rows)
            # 2 letters: drawn with replacement, so letters repeat.
            # 8 letters: drawn without, so every letter is distinct (g <= 8).
            draw = rng.choices if d == 2 else rng.sample
            u = _one_term(rng, draw(range(1, d + 1), k=g))
            v = _one_term(rng, draw(range(1, d + 1), k=g))
            self.jobs.append((f"grade {g}, {d} letters", u, v, L, rows))

    def run(self, k):
        _, u, v, L, _rows = self.jobs[k]
        return str(laplace.pairing(u, v, L))

    def expected(self, k):
        _, u, v, _L, rows = self.jobs[k]
        total = scalars.ZERO
        for m1, c1 in u.items():
            for m2, c2 in v.items():
                if m1.grading == m2.grading:
                    matrix = [[rows[a - 1][b - 1] for b in m2.indices()]
                              for a in m1.indices()]
                    total = total + c1 * c2 * _permanent_reference(matrix)
        return str(total)


def _permanent_reference(matrix):
    """Permutation sum up to n = 6, row expansion over column subsets above."""
    n = len(matrix)
    if n <= 6:
        return laplace.permanent_by_permutations(matrix)
    memo = {0: scalars.ONE}

    def expand(mask):
        # Rows 0..r-1 are already placed, r = number of used columns.
        cached = memo.get(mask)
        if cached is None:
            row = matrix[n - bin(mask).count("1")]
            cached = scalars.ZERO
            for col in range(n):
                if mask >> col & 1:
                    cached = cached + row[col] * expand(mask & ~(1 << col))
            memo[mask] = cached
        return cached

    return expand((1 << n) - 1)


WORKLOADS = {
    "laws": Laws,
    "green_bare": GreenBare,
    "green_renorm": GreenRenorm,
    "pairings_cold": PairingsCold,
}


# -- worker ------------------------------------------------------------------

def probe_s():
    """How long this machine takes just now for a fixed piece of Python work.

    The work is stdlib ``Fraction`` products and sums stored in a dict, the
    kind of work the program spends its time on, but none of the program's
    code, so no change to the program moves it.  It is the fastest of three
    runs, with the garbage collector off so that the program's heap does
    not count.  On a shared machine the speed of a vCPU swings by up to 2x
    within seconds; a job's time divided by the probes taken around it does
    not.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            table = {}
            for i in range(1, 120):
                table[i % 16] = (Fraction(i % 7 + 1, i % 11 + 2)
                                 * Fraction(i % 5 + 1, i % 13 + 3)
                                 + Fraction(i % 3 + 1, i % 4 + 1))
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


def _perturb(result):
    """Add 1/997 to the first coefficient of a result (self-test only)."""
    if isinstance(result, list):
        return [_perturb(result[0])] + result[1:]
    return str(scalars.Scalar.parse(result) + PERTURBATION)


def _break_circle():
    """Make ``laplace.circle`` add 1/997 to every product (self-test only)."""
    from tracer import replace_everywhere

    original = laplace.circle

    def broken(u, v, L):
        return original(u, v, L) + scalars.Scalar(PERTURBATION)

    replace_everywhere(original, broken)


def _run_round(work, trace_path, perturb):
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if perturb and isinstance(work, Laws):
        _break_circle()
    clock = time.perf_counter
    times, results, probes = [], [], [probe_s()]
    start = clock()
    for k in range(len(work.jobs)):
        if tracer:
            tracer.begin_job(k)
        t0 = clock()
        try:
            result = work.run(k)
        except Exception:  # one failed job must not stop the round
            result = "ERROR: " + traceback.format_exc(limit=3)
        times.append(clock() - t0)
        if tracer:
            tracer.end_job()
        if perturb and k == 0 and not isinstance(work, Laws):
            result = _perturb(result)
        results.append(result)
        probes.append(probe_s())
    round_s = clock() - start
    out = {
        "round_s": round_s,
        "job_s": times,
        "probe_s": probes,
        "results": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        tracer.write(trace_path, [job[0] for job in work.jobs])
    return out


def main(argv):
    mode, name, seed, scale = argv[:4]
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    perturb = "--perturb" in argv
    _import_program()
    work = WORKLOADS[name](int(seed), scale)
    ready = time.time()
    if mode == "round":
        out = _run_round(work, trace_path, perturb)
    elif mode == "oracle":
        out = {"results": [work.expected(k) for k in range(len(work.jobs))]}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["ready"] = ready
    out["labels"] = [job[0] for job in work.jobs]
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
