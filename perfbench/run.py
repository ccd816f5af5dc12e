"""The wickalg benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --roadmap

Run it from the root of a source checkout; it needs ``src/wickalg`` and
``configs/`` there and exits with code 2 without them.

``--trace 0`` measures the end-to-end metrics.  It runs rounds until
``--seconds`` have passed, and at least five.  A round is one fresh
interpreter that imports wickalg, loads the configs, builds the inputs and
then runs the workload's fixed job list once, one job after another (a
closed loop with one client).  Nothing is warmed up: each ``wickalg``
invocation starts with empty caches, and so does each round.

Times are reported at a fixed machine speed.  On a shared 2-vCPU virtual
machine the speed of a vCPU swings by up to 2x, within seconds and over
minutes: the fastest of ten back-to-back repeats of one 60 ms job differed
by up to 2x between groups of repeats taken seconds apart, while the median
of ten of its times, each divided by the probes around it, stayed within
25%.  So every round times a fixed probe of stdlib Python work
(``workloads.probe_s``) before its first job and after each job, and a job's
time is divided by the mean of the two probes around it and multiplied by
``PROBE_REF_S``, the probe's time on a fast, idle host.  A job's latency is
the median of these over the rounds, and ``wall_s`` is the sum of those over
one round's jobs.  ``setup_s`` is the median over the rounds of the time
from starting the interpreter to its inputs being ready, divided in the same
way by a probe run just before the start and the round's first probe.  After
the timed rounds a separate interpreter computes every job's result by an
independent oracle; a job fails when it raises, when its law fails, or when
its result differs from the oracle's, in any round.

``--trace 1`` alternates untraced and traced rounds (see ``tracer.py``) until
``--seconds`` have passed, and at least two of each, and prints the
per-layer metrics of the fastest traced round; the counts repeat exactly
for a fixed seed, and every traced round must give the same counts.
``trace.overhead_ratio`` is the traced rounds' ``wall_s`` over the
untraced rounds', both taken as for ``--trace 0``.

``--roadmap`` times the CLI commands of the ROADMAP baseline table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import METRICS as LAYER_METRICS  # noqa: E402
from workloads import PROBE_REF_S, WORKLOADS, probe_s  # noqa: E402

MIN_ROUNDS = 5
MIN_TRACED_PAIRS = 2
DEADLINE_S = 170.0  # every run must end within 180 s
END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
ROADMAP_ROWS = (
    ("check --config configs/default.json",
     ["check", "--config", "configs/default.json"]),
    ("check --config configs/asymmetric.json",
     ["check", "--config", "configs/asymmetric.json"]),
    ('green 1 2 "e1 v e1 v e1 v e1" --order 3',
     ["green", "--config", "configs/default.json", "1", "2",
      "e1 v e1 v e1 v e1", "--order", "3"]),
    ('green 1 2 "e1 v e1 v e1 v e1" --order 3 --renormalised',
     ["green", "--config", "configs/default.json", "1", "2",
      "e1 v e1 v e1 v e1", "--order", "3", "--renormalised"]),
    ('green 1 2 "e1 v e2 v e3" --order 4',
     ["green", "--config", "configs/default.json", "1", "2",
      "e1 v e2 v e3", "--order", "4"]),
)


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _deadline_left(t_start):
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 0:
        raise BenchError("the run passed its time limit")
    return left


def _worker(t_start, *args):
    """Run one fresh worker interpreter; return its JSON result.

    The result gains ``setup_s``: the time from starting the interpreter to
    the worker's inputs being ready, at the speed of ``PROBE_REF_S``.  Both
    ends read ``time.time()``, the one clock whose origin two processes
    share.
    """
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), *map(str, args)]
    before = probe_s()
    spawned = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=_deadline_left(t_start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:2]} passed the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = result["ready"] - spawned
    if "probe_s" in result:
        setup *= PROBE_REF_S / ((before + result["probe_s"][0]) / 2)
    result["setup_s"] = setup
    return result


def _tail_percentile(n_round):
    """Highest whole percentile with at least 10 jobs of one round beyond it."""
    best = None
    for p in range(50, 100):
        if n_round - math.ceil(p * n_round / 100) >= 10:
            best = p
    if best is None:
        raise BenchError(f"a round has {n_round} jobs; the tail needs >= 20")
    return best


def _nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def _job_s(rounds):
    """Each job's time at the speed of ``PROBE_REF_S``, median over rounds."""
    out = []
    for k in range(len(rounds[0]["job_s"])):
        scaled = []
        for rnd in rounds:
            probe = (rnd["probe_s"][k] + rnd["probe_s"][k + 1]) / 2
            scaled.append(rnd["job_s"][k] * PROBE_REF_S / probe)
        out.append(statistics.median(scaled))
    return out


def _wall_s(rounds):
    return math.fsum(_job_s(rounds))


def _failures(rounds, expected):
    failed = 0
    for rnd in rounds:
        failed += sum(1 for got, want in zip(rnd["results"], expected) if got != want)
    return failed


def _run_timed(args, t_start):
    common = (args.workload, args.seed, args.scale)
    extra = ("--perturb",) if args.perturb else ()
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < args.seconds:
        rounds.append(_worker(t_start, "round", *common, *extra))
    expected = _worker(t_start, "oracle", *common)["results"]
    n_round = len(expected)
    pct = _tail_percentile(n_round)
    job_s = _job_s(rounds)
    job_ms = [1000 * s for s in job_s]
    attempted = n_round * len(rounds)
    failed = _failures(rounds, expected)
    metrics = {
        "wall_s": math.fsum(job_s),
        "job_p50_ms": statistics.median(job_ms),
        "job_tail_ms": _nearest_rank(job_ms, pct),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
    }
    notes = {
        "wall_s": f"one round of {n_round} jobs, each job the median of "
                  f"{len(rounds)} rounds",
        "job_p50_ms": f"median over the {n_round} jobs of a round",
        "job_tail_ms": f"p{pct}: highest percentile with >=10 of the "
                       f"{n_round} jobs beyond it",
        "peak_rss_mb": "median ru_maxrss of the round interpreters",
        "setup_s": f"median of the {len(rounds)} rounds' interpreters",
    }
    probes = [p for rnd in rounds for p in rnd["probe_s"]]
    print(f"times at the speed of a {1000 * PROBE_REF_S:g} ms probe; the probe "
          f"took {1000 * statistics.median(probes):.4f} ms (median of "
          f"{len(probes)}) in this run")
    for name, unit in END_TO_END:
        print(f"{name:<14} {metrics[name]:>12.4f} {unit:<3} ({notes[name]})")
    print(f"{'failed_share':<14} {failed / attempted:>12.4f}     "
          f"({failed} of {attempted} jobs failed)")
    labels = rounds[0]["labels"]
    for k, (got, want) in enumerate(zip(rounds[0]["results"], expected)):
        if got != want:
            print(f"FAILED job {k} ({labels[k]}): got {str(got)[:300]}, "
                  f"oracle {str(want)[:300]}", file=sys.stderr)
    units = dict(END_TO_END)
    return attempted, failed, {k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()}


def _run_traced(args, t_start):
    common = (args.workload, args.seed, args.scale)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    plain, traced = [], []
    t0 = time.perf_counter()
    while (len(traced) < MIN_TRACED_PAIRS
           or time.perf_counter() - t0 < args.seconds):
        plain.append(_worker(t_start, "round", *common))
        path = f"{spans}.{len(traced)}"
        traced.append(_worker(t_start, "round", *common, "--trace", path))
        traced[-1]["spans"] = path
    expected = _worker(t_start, "oracle", *common)["results"]
    units = dict(LAYER_METRICS)
    counts = [{k: v for k, v in rnd["layers"].items() if units[k] != "s"}
              for rnd in traced]
    if any(c != counts[0] for c in counts):
        raise BenchError("traced rounds of one seed gave different counts")
    fastest = min(traced, key=lambda rnd: rnd["round_s"])
    os.replace(fastest["spans"], spans)
    for rnd in traced:
        if rnd is not fastest:
            os.remove(rnd["spans"])
    values = dict(fastest["layers"])
    values["trace.overhead_ratio"] = _wall_s(traced) / _wall_s(plain)
    for name, unit in LAYER_METRICS:
        print(f"{name:<30} {values[name]:>16.6g} {unit}")
    print(f"{len(traced)} traced and {len(plain)} untraced rounds; spans of the "
          f"fastest traced round written to {os.path.relpath(spans, ROOT)}")
    attempted = len(plain[0]["results"]) * (len(plain) + len(traced))
    failed = _failures(plain + traced, expected)
    return attempted, failed, {name: {"value": values[name], "unit": unit}
                               for name, unit in LAYER_METRICS}


def _run_roadmap():
    """Time each CLI command of the ROADMAP baseline table once."""
    rows = {}
    for label, cli in ROADMAP_ROWS:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "wickalg.cli", *cli],
                              cwd=ROOT, env=_env(), capture_output=True, text=True)
        rows[label] = time.perf_counter() - t0
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        print(f"{rows[label]:9.3f} s  {status:<7} wickalg {label}")
    print(json.dumps({"roadmap_rows_s": rows}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-test")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one result per round, for the self-test")
    parser.add_argument("--roadmap", action="store_true",
                        help="time the CLI rows of the ROADMAP baseline table")
    args = parser.parse_args(argv)
    for needed in ("src/wickalg/__init__.py", "configs/default.json",
                   "configs/asymmetric.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found; run from a wickalg checkout",
                  file=sys.stderr)
            return 2
    if args.roadmap:
        return _run_roadmap()
    if args.workload is None:
        parser.error("--workload is required")
    t_start = time.perf_counter()
    print(f"# wickalg benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    try:
        run = _run_traced if args.trace else _run_timed
        attempted, failed, metrics = run(args, t_start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
