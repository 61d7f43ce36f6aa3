"""Verification-campaign benchmark for the ``stallings`` package.

A single-process, single-thread, closed-loop benchmark: the next subgroup pair
starts only when the previous verdict line is out, as in ``stallings fuzz``.
One unit of work is one pair: ``subgroup_from_spec`` on both sides, then
``check_instance``, then ``InstanceReport.to_json()``.  Pairs are generated
here, from a ``random.Random(seed)`` of the benchmark's own, as spec dicts of
uniformly random reduced words; the library receives only those specs.

Usage (from the repository root)::

    python3 bench/run.py --workload fuzz_full --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --seed 0            # every workload, each in its own process

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
is a separate traced run that reports per-layer metrics (see ``tracing.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs are checked
outside the timed region (see ``pairs.check_pair``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from pairs import BATCH, WORKLOADS, Outcome, Workload, check_pair, pair_stream

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh interpreters started to time ``import stallings``; the first one
#: only warms the bytecode cache and is not counted.
SETUP_REPEATS = 13


def import_stallings():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "stallings" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'stallings'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import stallings

    if Path(stallings.__file__).resolve().parent != SRC / "stallings":
        raise SystemExit(f"error: imported stallings from {stallings.__file__}, not {SRC}")
    return stallings


def measure_setup() -> list[float]:
    """Seconds to ``import stallings`` in fresh interpreters (first one is warm-up)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import stallings; print(repr(time.perf_counter() - t))"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        times.append(float(done.stdout))
    return times[1:]


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) at the highest of p99 and p90
    that has at least ten samples beyond it; p90 when neither has."""
    if len(samples) < 2:
        return samples[0], 90, 0
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    for pct in (99, 90):
        beyond = sum(1 for x in samples if x > cuts[pct - 1])
        if beyond >= 10 or pct == 90:
            return cuts[pct - 1], pct, beyond


def _time_batch(st, workload: Workload, batch: list, stop_at: float) -> list:
    """Closed loop over ``batch``: per pair, ((H, K, report, line) or an
    error message, seconds).  Stops early once ``perf_counter`` passes
    ``stop_at``."""
    done = []
    for left, right in batch:
        t0 = time.perf_counter()
        try:
            H = st.subgroup_from_spec(left)
            K = st.subgroup_from_spec(right)
            report = st.check_instance(H, K, structural=workload.structural)
            line = report.to_json()
        except Exception as exc:  # a failing pair is counted, never fatal
            t1 = time.perf_counter()
            done.append((f"{type(exc).__name__}: {exc}", t1 - t0))
        else:
            t1 = time.perf_counter()
            done.append(((H, K, report, line), t1 - t0))
        if t1 >= stop_at:
            break
    return done


def run_untraced(st, workload: Workload, seed: int, seconds: float):
    """Closed loop over fresh pairs for ``seconds`` of timed wall clock.

    Each batch is checked after its timed part ends.  Returns the passing
    pairs' latencies in ms, the timed wall seconds and the outcome.
    """
    stream = pair_stream(workload, seed)
    latencies = array("d")
    outcome = Outcome()
    timed = 0.0
    while timed < seconds:
        batch = [next(stream) for _ in range(BATCH)]
        start = time.perf_counter()
        done = _time_batch(st, workload, batch, start + seconds - timed)
        timed += time.perf_counter() - start
        for result, taken in done:
            if isinstance(result, str):
                outcome.record(result, None)
                continue
            problem = check_pair(st, *result)
            outcome.record(problem, result[3])
            if problem is None:
                latencies.append(taken * 1000.0)
    return latencies, timed, outcome


def emit(rows: list[tuple], outcome: Outcome, env: dict) -> None:
    """Print the environment and one row per metric, then the JSON result."""
    print("env " + json.dumps(env, sort_keys=True))
    fail_rate = outcome.failed / outcome.attempted
    for name, value, unit, note in rows + [
        ("fail_rate", fail_rate, "ratio", f"({outcome.failed} of {outcome.attempted} pairs)"),
    ]:
        print(f"{name:<42} {value!r:>22} {unit:<5} {note}".rstrip())
    print(f"{'output_sha256':<42} {outcome.digest.hexdigest()} ({outcome.lines} report lines)")
    for error in outcome.errors:
        print(f"failure: {error}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))


def run_workload(workload: Workload, seed: int, seconds: float, trace: int) -> None:
    st = import_stallings()
    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    if trace:
        import tracing

        # Half the run is traced; replaying the same pairs untraced, for
        # trace.overhead, takes most of the other half.
        rows, outcome = tracing.run_traced(st, workload, seed, seconds / 2, BENCH / "out")
        env["pairs"] = outcome.attempted
        emit(rows, outcome, env)
        return
    setup = measure_setup()
    latencies, timed, outcome = run_untraced(st, workload, seed, seconds)
    passed = len(latencies)
    value, pct, beyond = tail(latencies) if latencies else (0.0, 90, 0)
    rows = [
        ("pairs_per_s", passed / timed, "1/s", f"({passed} passing pairs in {timed:.3f} s)"),
        ("verdict_ms_p50", statistics.median(latencies) if latencies else 0.0, "ms", ""),
        ("verdict_ms_tail", value, "ms", f"(p{pct}, {beyond} samples beyond, {passed} samples)"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
        ("setup_s", statistics.median(setup), "s", f"(median of {len(setup)} fresh interpreters)"),
    ]
    env["pairs"] = outcome.attempted
    env["tail_percentile"] = pct
    emit(rows, outcome, env)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own fresh process; prints each one's output,
    then one JSON object holding every workload's result."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        print(f"== {name}")
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="timed wall seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
