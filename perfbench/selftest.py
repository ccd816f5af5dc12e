"""Self-test of the benchmark, on tiny inputs; takes well under a minute.

    python3 perfbench/selftest.py

For every workload it checks that a timed run prints every end-to-end
metric with its unit, that a run with one corrupted result per round counts
that job as failed (so the oracle comparison is live), and that a traced
run prints every per-layer metric with its unit and no failure.  Last, it
checks that the benchmark exits with an error, printing no result, when the
program's sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402
from tracer import METRICS as LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(script, *args):
    proc = subprocess.run([sys.executable, script, "--scale", "tiny", *args],
                          capture_output=True, text=True, timeout=170)
    return proc


def _check_run(workload, args, names, failed_min, failed_max):
    proc = _bench(os.path.join(HERE, "run.py"), "--workload", workload,
                  "--seed", "3", "--seconds", "0", *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert set(result["metrics"]) == {n for n, _ in names}, result["metrics"]
    for name, unit in names:
        assert result["metrics"][name]["unit"] == unit, (name, result)
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in lines[:-1]), f"{name} [{unit}] not printed"
    assert failed_min <= result["failed"] <= failed_max, result
    assert result["correct"] == (result["failed"] == 0)
    return result


def main():
    for workload in sorted(WORKLOADS):
        timed = _check_run(workload, ["--trace", "0", "--perturb"], END_TO_END,
                           1, 10**9)
        traced = _check_run(workload, ["--trace", "1"], LAYER_METRICS, 0, 0)
        print(f"ok  {workload}: {timed['failed']} of {timed['attempted']} "
              f"perturbed jobs failed; traced run clean")
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py") or name.endswith(".json"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = _bench(os.path.join(bare, "perfbench", "run.py"), "--workload", "laws",
                  "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  without the program's sources the benchmark exits "
          f"{proc.returncode} and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
