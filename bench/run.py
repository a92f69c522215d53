#!/usr/bin/env python3
"""Benchmark of beckettgray: one workload per process, measured end to end.

    python3 bench/run.py --workload tree --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy.  The run
repeats whole rounds of its workload for ``--seconds`` seconds (and until
it has enough items for its tail percentile), checks every output and
prints one JSON object as its last line.  ``--trace 0`` reports the
end-to-end metrics, with every time scaled to the machine's reference
speed (see speed.py); ``--trace 1`` reports the per-layer metrics from a
traced run and writes its spans to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import inputs as bench_inputs
import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUPS_PER_ROUND = 2  # set-ups timed before each round; setup_s is their median
MIN_SETUPS = 15


class SetupError(RuntimeError):
    pass


def _program_modules():
    return {m: mod for m, mod in sys.modules.items() if m == "beckettgray" or m.startswith("beckettgray.")}


def import_program():
    """Import ``beckettgray`` afresh from the checkout's sources."""
    if not (SRC / "beckettgray" / "__init__.py").is_file():
        raise SetupError(f"no beckettgray sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in _program_modules():
        del sys.modules[name]
    bg = importlib.import_module("beckettgray")
    if not Path(bg.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"beckettgray imported from {bg.__file__}, not {SRC}")
    return bg


def time_setup(workload, raw, gauge):
    """(seconds, mark): the time to import the package afresh and build the
    workload's inputs, with the gauge sample taken just before.

    The fresh copy is thrown away and the modules in use are put back, so
    that the rounds keep running on one copy of the package.
    """
    in_use = _program_modules()
    gc.collect()
    mark = gauge.sample()
    t0 = time.perf_counter()
    workload.build(import_program(), raw)
    elapsed = time.perf_counter() - t0
    gauge.sample()
    for name in _program_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return elapsed, mark


class Round:
    """One timed round; only the first round keeps its outputs."""

    def __init__(self, elapsed, items, work, outputs, changed):
        self.elapsed = elapsed
        self.items = items  # (seconds as measured, gauge mark) per item
        self.work = work
        self.outputs = outputs
        self.changed = changed  # operations whose output differs from the first round's


def run_rounds(workload, bg, inputs, tracer, gauge, seconds, min_items=0, between=None, first=None):
    """Whole rounds until ``seconds`` of rounds are timed and ``min_items`` items.

    ``between`` runs before each round, outside its timing.  Each round's
    outputs are compared with those of ``first`` (by default the first
    round of this call) and then dropped, so memory does not grow with the
    number of rounds.
    """
    rounds = []
    n_items = 0
    timed = 0.0
    gauge.sample()
    while True:
        if between is not None:
            between()
        if tracer.round is not None:
            tracer.round = len(rounds)
        timer = speed.ItemTimer(gauge)
        spent = gauge.spent
        t0 = time.perf_counter()
        with tracer.span("round"):
            outputs, work = workload.run_round(bg, inputs, tracer, timer)
        elapsed = time.perf_counter() - t0 - (gauge.spent - spent)  # less the kernel's samples
        if first is None:
            first = outputs
            rounds.append(Round(elapsed, timer.items, work, outputs, []))
        else:
            changed = [
                k for k in range(max(len(first), len(outputs)))
                if k >= len(first) or k >= len(outputs) or outputs[k] != first[k]
            ]
            rounds.append(Round(elapsed, timer.items, work, None, changed))
        timed += elapsed
        n_items += len(timer.items)
        if timed >= seconds and n_items >= min_items:
            gauge.sample()  # the last items have a sample after them
            return rounds


def judge(workload, inputs, rounds):
    """(attempted, failed, correct, problems) over every round.

    The first round is checked in full; every later round must repeat it.
    """
    verdicts, problems = workload.check(inputs, rounds[0].outputs)
    attempted = failed = 0
    for r in rounds:
        round_verdicts = list(verdicts)
        for k in r.changed:
            problems.append(f"operation {k} changed its output between rounds")
            if k < len(round_verdicts):
                round_verdicts[k] = "wrong"
        attempted += len(round_verdicts)
        failed += sum(v != "ok" for v in round_verdicts)
    for k, verdict in enumerate(verdicts):
        if verdict == "wrong":
            problems.append(f"operation {k}: wrong output {str(rounds[0].outputs[k])[:200]}")
    correct = not problems
    return attempted, failed, correct, problems


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def end_to_end(workload, gauge, setups, rounds):
    """The end-to-end metrics, every time scaled by the gauge (see speed.py)."""
    items, elapsed = [], []
    for r in rounds:
        scaled = [t * gauge.scale(mark) for t, mark in r.items]
        items += scaled
        # the time between items runs at the speed of the items around it
        elapsed.append(r.elapsed * sum(scaled) / sum(t for t, _ in r.items))
    timed = sum(elapsed)
    return {
        "setup_s": (statistics.median(t * gauge.scale(mark) for t, mark in setups), "s"),
        "wall_s": (timed / len(rounds), "s"),
        "work_per_s": (sum(r.work for r in rounds) / timed, "1/s"),
        "item_p50_ms": (statistics.median(items) * 1e3, "ms"),
        "item_tail_ms": (percentile(items, workload.tail_percentile) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(workload, bg, raw, inputs, seed, seconds):
    """Untraced reference rounds, then a traced set-up and traced rounds."""
    plain = run_rounds(workload, bg, inputs, tracing.NullTracer(), speed.NullGauge(), seconds / 4)
    tracer = tracing.Tracer()
    tracer.install(bg)
    try:
        with tracer.span("setup"):
            inputs = workload.build(bg, raw)
        tracer.end_setup()
        tracer.round = 0
        rounds = run_rounds(
            workload, bg, inputs, tracer, speed.NullGauge(), seconds - sum(r.elapsed for r in plain),
            first=plain[0].outputs,
        )
    finally:
        tracer.uninstall()
    peak_mb = 0.0
    largest = workload.largest_two_stack_input(inputs)
    if largest is not None:
        tracemalloc.start()
        try:
            bg.is_two_stack_realizable(largest)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    overhead = statistics.mean(r.elapsed for r in rounds) / statistics.mean(r.elapsed for r in plain)
    metrics = tracer.layer_metrics(len(rounds), overhead, peak_mb)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    tracer.dump(
        OUT / f"trace-{workload.name}-seed{seed}.json",
        workload=workload.name, seed=seed, traced_rounds=len(rounds),
        untraced_rounds=len(plain), metrics=metrics,
    )
    return plain + rounds, {name: (value, units[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        codes = bench_inputs.load_codes()
        bg = import_program()
    except (OSError, ValueError, SetupError, ImportError) as e:
        print(f"bench: cannot set up: {e}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, codes)
    raw = workload.prepare(bg)
    inputs = workload.build(bg, raw)
    if args.trace:
        rounds, metrics = traced(workload, bg, raw, inputs, args.seed, args.seconds)
    else:
        # set-up is timed between rounds, so it samples the whole run
        gauge = speed.Gauge()
        setups = []
        rounds = run_rounds(
            workload, bg, inputs, tracing.NullTracer(), gauge, args.seconds, workload.min_items,
            between=lambda: setups.extend(time_setup(workload, raw, gauge) for _ in range(SETUPS_PER_ROUND)),
        )
        while len(setups) < MIN_SETUPS:
            setups.append(time_setup(workload, raw, gauge))
        metrics = end_to_end(workload, gauge, setups, rounds)
    attempted, failed, correct, problems = judge(workload, inputs, rounds)
    for line in dict.fromkeys(problems):
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
