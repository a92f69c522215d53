"""Command-line entry point: verify, canonicalize, enumerate, estimate,
hunt, brgc, selfcheck.

Exit codes: 0 success, 1 verification-negative, 2 usage error,
3 truncated by budget.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from itertools import repeat
from typing import Iterable, Optional

from . import anneal as anneal_mod
from . import estimate as estimate_mod
from .beckett import BeckettKind, BeckettViolationError, classify_beckett, queue_trace
from .canonical import are_isomorphic_beckett, canonicalize
from .core import (
    MAX_BITS,
    TransitionSequence,
    format_symbols,
    parse_symbols,
    read_sequence_file,
    write_sequence_block,
)
from .fixtures import self_check
from .search import EnumerationReport, SearchConfig, SearchState, enumerate_beckett, split_tree
from .stacks import TwoStackState, _stack_steps, brgc

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3


def _in_range(kind: type, lo: float, hi: float = float("inf")):
    """An argparse type: a ``kind`` in [lo, hi], a usage error otherwise."""
    def parse(text: str):
        value = kind(text)
        if not lo <= value <= hi:  # false for NaN too
            raise argparse.ArgumentTypeError(f"{value} outside [{lo}, {hi}]")
        return value

    parse.__name__ = kind.__name__  # argparse reports "invalid int value" and the like
    return parse


_bits = _in_range(int, 1, MAX_BITS)


def _open_out(path: Optional[str]):
    """``path`` opened to append, or None for no path; a ``ValueError`` if it
    cannot be.  A last line left unfinished, as by a killed run, is ended first."""
    if not path:
        return None
    try:
        out = open(path, "a")
        if os.path.getsize(path):  # 0 for a pipe
            with open(path, "rb") as fp:
                fp.seek(-1, os.SEEK_END)
                if fp.read() != b"\n":
                    out.write("\n")
    except OSError as e:
        raise ValueError(e) from e
    return out


def _input_sequences(n: int, args_seqs: list[str]) -> Iterable[TransitionSequence]:
    return (seq for _, seq in read_sequence_file(args_seqs or sys.stdin, n))


def _cmd_verify(args) -> int:
    code = EXIT_OK
    for seq in _input_sequences(args.n, args.sequence):
        cls = classify_beckett(seq)
        if args.json:
            doc = {"sequence": str(seq), "classification": cls.kind.value}
            if cls.violation:
                doc["violation"] = str(cls.violation)
            if cls.repeat_index is not None:
                doc["repeat_index"] = cls.repeat_index
            print(json.dumps(doc))
        else:
            print(f"{seq}\t{cls}")
            if args.trace and cls.kind is not BeckettKind.NOT_BECKETT:
                try:
                    for i, state in enumerate(queue_trace(seq)):
                        print(f"  step {i}: {','.join(map(str, state)) or 'empty'}")
                except BeckettViolationError as e:
                    print(f"  trace stops: {e}")
        if cls.kind not in (BeckettKind.OPEN, BeckettKind.CYCLIC):
            code = EXIT_NEGATIVE
    return code


def _cmd_canonicalize(args) -> int:
    for seq in _input_sequences(args.n, args.sequence):
        canon = canonicalize(seq)
        print(format_symbols(args.n, canon.symbols))
        if args.witness:
            witness = are_isomorphic_beckett(seq, canon)
            if witness is None:
                print("  witness: none (canonical image differs from any "
                      "zero-anchored relabeling)")
            else:
                print(
                    f"  rho={','.join(map(str, witness.rho))} "
                    f"reversed={witness.reversed} "
                    f"rotation={witness.rotation} added_word={witness.added_word}"
                )
    return EXIT_OK


def _run_shard(config: SearchConfig,
               deadline: Optional[float]) -> tuple[EnumerationReport, list[str]]:
    """Walk one shard, with the time left before the run's wall-clock ``deadline``.

    A shard that starts after the deadline is not walked; it is reported
    as truncated, so that a resumed run walks it again.
    """
    lines: list[str] = []
    if deadline is not None:
        left = deadline - time.time()  # wall clock: workers are other processes
        if left <= 0:
            return EnumerationReport(config.n, config.mode, truncated=True), lines
        config = replace(config, time_limit=left)
    report = enumerate_beckett(config, lambda kind, seq: lines.append(str(seq)))
    return report, lines


# checkpoint line field -> EnumerationReport field
_SHARD_FIELDS = {"cyclic": "count_cyclic", "open_total": "count_open_total",
                 "open_strict": "count_open_strict", "nodes": "nodes_visited",
                 "elapsed": "elapsed"}


def _shard_line(prefix: str, report: EnumerationReport) -> str:
    counts = " ".join(f"{k}={getattr(report, f)}" for k, f in _SHARD_FIELDS.items())
    return f"shard={prefix} {counts} truncated={report.truncated}"


def _read_checkpoint(path: str, n: int, mode: str) -> dict[str, EnumerationReport]:
    """The latest untruncated shard report per prefix recorded for this search."""
    done: dict[str, EnumerationReport] = {}
    header = None
    with open(path) as fp:
        for line in fp:
            if line.startswith("n="):
                header = line.split()
            # truncated is written last, so a line cut short by a killed run
            # records no shard, and that shard runs again
            elif (line.startswith("shard=") and header == [f"n={n}", f"mode={mode}"]
                  and line.split()[-1] == "truncated=False"):
                f = dict(field.split("=", 1) for field in line.split())
                f.setdefault("elapsed", "0.0")  # lines written before it was recorded
                if not f.keys() >= _SHARD_FIELDS.keys():
                    raise ValueError(f"checkpoint shard line without every count: {line.strip()}")
                counts = {v: (float if k == "elapsed" else int)(f[k])
                          for k, v in _SHARD_FIELDS.items()}
                done[f["shard"]] = EnumerationReport(n=n, mode=mode, **counts)
    return done


def _cmd_enumerate(args) -> int:
    mode = args.mode
    prefix = parse_symbols(args.n, args.prefix) if args.prefix else None
    SearchState.from_prefix(args.n, prefix)  # raises if the prefix breaks the queue rule
    base = SearchConfig(
        n=args.n,
        mode=mode,
        prefix=prefix,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        emit="count-only" if args.count_only else "canonical-codes",
    )
    sharded = args.jobs > 1 or args.depth is not None
    if sharded:
        start = time.perf_counter()
        # one time budget for the whole run, split included, not one per shard
        deadline = None if args.time_limit is None else time.time() + args.time_limit
        depth = 4 if args.depth is None else args.depth
        shards, shallow, cut = split_tree(args.n, depth, prefix, args.time_limit)
    out = _open_out(args.out)
    done = _read_checkpoint(args.out, args.n, mode) if sharded and args.out else {}

    def emit_line(text: str) -> None:
        print(text)
        if out:
            out.write(text + "\n")
            out.flush()

    emit_line(f"n={args.n} mode={mode}")
    if sharded:
        # a cut split runs and records no shard, so a resume splits again;
        # the split is then all the time this run took
        total = EnumerationReport(n=args.n, mode=mode, nodes_visited=shallow, truncated=cut,
                                  elapsed=time.perf_counter() - start if cut else 0.0)
        pending = []
        for shard in shards:
            if str(shard.prefix) in done:
                total = total.merge(done[str(shard.prefix)])
            else:
                pending.append(replace(base, prefix=shard.prefix))
        mark = start
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = pool.map(_run_shard, pending, repeat(deadline))
            for shard, (report, lines) in zip(pending, results):
                # a shard is charged the wall time since the one before it came in
                # (the first, since the start), so the shards of a run sum to its
                # wall time, and a resume adds up the recorded ones the same way
                now = time.perf_counter()
                report.elapsed, mark = now - mark, now
                for text in lines:
                    emit_line(text)
                emit_line(_shard_line(str(shard.prefix), report))
                total = total.merge(report)
        report = total
    else:
        report = enumerate_beckett(base, lambda kind, seq: emit_line(str(seq)))

    doc = asdict(report)
    if args.json:
        emit_line(json.dumps(doc))
    else:
        emit_line("# " + " ".join(f"{k}={v}" for k, v in doc.items()))
    if out:
        out.close()
    return EXIT_TRUNCATED if report.truncated else EXIT_OK


def _cmd_estimate(args) -> int:
    seed = args.seed if args.seed is not None else random.SystemRandom().randrange(2**32)
    if args.seed is None:
        print(f"# seed={seed} (auto-chosen)")
    config = SearchConfig(n=args.n, mode=args.mode)
    report = estimate_mod.estimate_tree_size(config, args.samples, seed)
    if args.json:
        print(json.dumps(asdict(report)))
    else:
        for k, v in asdict(report).items():
            print(f"{k}={v}")
    return EXIT_OK


def _cmd_hunt(args) -> int:
    seed = args.seed if args.seed is not None else random.SystemRandom().randrange(2**32)
    config = anneal_mod.AnnealConfig(
        n=args.n,
        mode=args.mode,
        rng_seed=seed,
        restarts=args.restarts,
        completion_budget=args.budget,
        seed_handoff_length=args.handoff,
    )
    out = _open_out(args.out)
    if args.seed is None:
        print(f"# seed={seed} (auto-chosen)")
    result = anneal_mod.hunt(config)
    if result.found is not None:
        write_sequence_block(sys.stdout, args.n, args.mode, [result.found])
        if out:
            write_sequence_block(out, args.n, args.mode, [result.found])
    if out:
        out.close()
    print(
        f"# found={result.found is not None} "
        f"best_partial_length={result.best_partial_length} "
        f"attempts={result.attempts} elapsed={result.elapsed:.2f} "
        f"seed={result.rng_seed} winning_seed={result.winning_seed}"
    )
    return EXIT_OK if result.found is not None else EXIT_NEGATIVE


def _cmd_brgc(args) -> int:
    path = brgc(args.n)
    if args.trace:
        # each state is printed as it is stepped, never held as a list
        for word, (even, odd) in zip(path.words, _stack_steps(path)):
            print(f"{word:0{args.n}b}  {TwoStackState(tuple(even), tuple(odd))}")
    else:
        for word in path.words:
            print(f"{word:0{args.n}b}")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    failed = 0
    for check in self_check():
        status = "PASS" if check.passed else "FAIL"
        note = "" if check.canonical else " (not class-least)"
        print(f"{status} {check.label}: {check.classified}{note}")
        if not check.passed:
            failed += 1
    print(f"# {failed} failures")
    return EXIT_OK if failed == 0 else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beckettgray",
        description="Generate, verify, enumerate, estimate and hunt Beckett-Gray codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="classify transition sequences")
    p.add_argument("-n", type=_bits, required=True)
    p.add_argument("sequence", nargs="*", help="sequences (default: stdin)")
    p.add_argument("--trace", action="store_true", help="print the queue trace")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("canonicalize", help="print canonical forms")
    p.add_argument("-n", type=_bits, required=True)
    p.add_argument("sequence", nargs="*")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("enumerate", help="exhaustively enumerate codes")
    p.add_argument("-n", type=_bits, required=True)
    p.add_argument("--mode", choices=["cyclic", "open", "both"], default="both")
    p.add_argument("--prefix", help="root the search at this partial sequence")
    p.add_argument("--jobs", type=_in_range(int, 1), default=1)
    p.add_argument("--depth", type=_in_range(int, 0), help="prefix-shard depth for parallel runs")
    p.add_argument("--out", help="append codes, shard checkpoints and report here")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--node-limit", type=_in_range(int, 0))
    p.add_argument("--time-limit", type=_in_range(float, 0))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("estimate", help="Monte-Carlo search-tree size estimate")
    p.add_argument("-n", type=_bits, required=True)
    p.add_argument("--mode", choices=["cyclic", "open", "both"], default="both",
                   help="reported only: the estimate is of the unpruned tree, whatever the mode")
    p.add_argument("--samples", type=_in_range(int, 1), default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("hunt", help="anneal + backtrack search for a code")
    p.add_argument("-n", type=_bits, required=True)
    p.add_argument("--mode", choices=["cyclic", "open"], default="cyclic")
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=_in_range(int, 1), default=30_000)
    p.add_argument("--budget", type=_in_range(int, 1), default=300_000)
    p.add_argument("--handoff", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("brgc", help="print the binary reflected Gray code")
    p.add_argument("-n", type=_bits, required=True)
    p.add_argument("--trace", action="store_true", help="show the two-stack states")
    p.set_defaults(func=_cmd_brgc)

    p = sub.add_parser("selfcheck", help="verify the bundled published codes")
    p.set_defaults(func=_cmd_selfcheck)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as e:  # every input a command refuses, a malformed sequence included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("# truncated by interrupt", file=sys.stderr)
        return EXIT_TRUNCATED


if __name__ == "__main__":
    sys.exit(main())
