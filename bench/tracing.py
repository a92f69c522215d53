"""The traced run: spans and call counters wrapped around ``beckettgray``.

The tracer replaces public functions of each layer by wrappers, from
outside the package, and puts the originals back afterwards.  Coarse calls
(a shard, a hunt, an anneal, a completion, an estimate call, one verify
check) become spans with a name, start, end and parent.  Hot and
medium-sized calls only add to a per-(function, enclosing span) record of
calls, nanoseconds and words, so that a search that pushes a million
symbols does not make a million spans.  Everything stays in memory until
``dump`` writes it out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("search.nodes", "count", "lower"),
    ("search.children_calls", "count", "lower"),
    ("search.push_calls", "count", "lower"),
    ("search.children_ns", "ns/call", "lower"),
    ("search.push_ns", "ns/call", "lower"),
    ("search.enumerate_s", "s", "lower"),
    ("search.split_s", "s", "lower"),
    ("anneal.attempts", "count", "lower"),
    ("anneal.completion_nodes", "count", "lower"),
    ("anneal.anneal_s", "s", "lower"),
    ("anneal.completion_s", "s", "lower"),
    ("anneal.anneal_push_calls", "count", "lower"),
    ("anneal.completion_nodes_per_s", "1/s", "higher"),
    ("anneal.outcome.found", "count", "higher"),
    ("anneal.outcome.impossible", "count", "higher"),
    ("anneal.outcome.budget", "count", "lower"),
    ("anneal.attempts_per_code", "ratio", "lower"),
    ("estimate.probes", "count", "lower"),
    ("estimate.probe_us", "us/probe", "lower"),
    ("estimate.rel_stderr.n5", "ratio", "lower"),
    ("estimate.rel_stderr.n6", "ratio", "lower"),
    ("core.classify_gray_ns_per_word.n16", "ns/word", "lower"),
    ("core.classify_gray_ns_per_word.n18", "ns/word", "lower"),
    ("core.classify_gray_ns_per_word.short", "ns/word", "lower"),
    ("core.transitions_of_ns_per_word", "ns/word", "lower"),
    ("beckett.classify_ns_per_word", "ns/word", "lower"),
    ("beckett.queue_trace_ns_per_word", "ns/word", "lower"),
    ("beckett.classify_calls", "count", "lower"),
    ("canonical.relabel_calls", "count", "lower"),
    ("canonical.canonicalize_us", "us/call", "lower"),
    ("canonical.isomorphic_us", "us/call", "lower"),
    ("canonical.self_reverse_s", "s", "lower"),
    ("stacks.brgc_ns_per_word", "ns/word", "lower"),
    ("stacks.two_stack_ns_per_word", "ns/word", "lower"),
    ("stacks.two_stack_peak_mb", "MB", "lower"),
    ("fixtures.self_check_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "child_ns")

    def __init__(self, name, start, parent, round_):
        self.name = name
        self.start = start
        self.end = 0
        self.parent = parent
        self.round = round_
        self.child_ns = 0  # part of the span covered by child spans and calls


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    round = None

    @contextmanager
    def span(self, name):
        yield


def _gray_category(args):
    seq = args[0]
    if seq.n < 16:
        return "core.classify_gray.other"
    if len(seq) < (1 << seq.n) - 1:
        return "core.classify_gray.short"
    return f"core.classify_gray.n{seq.n}"


def _seq_len(args):
    return len(args[0])


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.depth = 0  # nesting of counted calls, so self time is charged once
        self.calls: dict = {}  # (key, enclosing span name) -> [calls, ns, words]
        self.counts: Counter = Counter()
        self.samples = defaultdict(list)
        self.setup_calls: dict = {}
        self.round = None
        self._undo: list = []

    # -- spans -----------------------------------------------------------
    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), parent, self.round))
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        span = self.spans[self.stack.pop()]
        span.end = time.perf_counter_ns()
        if span.parent is not None:
            self.spans[span.parent].child_ns += span.end - span.start

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    # -- wrappers --------------------------------------------------------
    def spanned(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def counted(self, fn, key, size=None, after=None):
        tracer = self
        calls = self.calls
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter_ns
        key_of = key if callable(key) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.depth -= 1
                owner = spans[stack[-1]] if stack else None
                if owner is not None and tracer.depth == 0:
                    owner.child_ns += dt
                k = (key_of(args) if key_of else key, owner.name if owner else "")
                rec = calls.get(k)
                if rec is None:
                    rec = calls[k] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                if size is not None:
                    rec[2] += size(args)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def install(self, bg):
        """Wrap the public functions of every measured layer of ``bg``."""
        search, anneal = bg.search, bg.anneal

        def shallow(tr, result):
            tr.counts["search.nodes"] += result

        def enumerated(tr, report):
            tr.counts["search.nodes"] += report.nodes_visited

        def hunted(tr, result):
            tr.counts["anneal.attempts"] += result.attempts
            tr.counts["anneal.codes"] += result.found is not None

        def completed(tr, result):
            tr.counts["anneal.completion_nodes"] += result.nodes
            outcome = (
                "found" if result.found is not None
                else "impossible" if result.proven_impossible else "budget"
            )
            tr.counts[f"anneal.outcome.{outcome}"] += 1

        def estimated(tr, report):
            tr.counts["estimate.probes"] += report.samples
            tr.samples[f"rel_stderr.n{report.n}"].append(report.stderr / report.mean_nodes)

        for cls, name, make in (
            (search.SearchState, "children", lambda f: self.counted(f, "search.children")),
            (search.SearchState, "push", lambda f: self.counted(f, "search.push")),
        ):
            self._patch_attr(cls, name, make(getattr(cls, name)))
        for module, name, make in (
            (search, "enumerate_beckett", lambda f: self.spanned(f, "search.enumerate", enumerated)),
            (search, "split_prefixes", lambda f: self.counted(f, "search.split")),
            (search, "count_shallow_nodes", lambda f: self.counted(f, "search.shallow", after=shallow)),
            (anneal, "hunt", lambda f: self.spanned(f, "anneal.hunt", hunted)),
            (anneal, "anneal_partial", lambda f: self.spanned(f, "anneal.anneal")),
            (anneal, "complete_backtrack", lambda f: self.spanned(f, "anneal.completion", completed)),
            (bg.estimate, "estimate_tree_size", lambda f: self.spanned(f, "estimate.call", estimated)),
            (bg.core, "classify_gray", lambda f: self.counted(f, _gray_category, _seq_len)),
            (bg.core, "transitions_of", lambda f: self.counted(
                f, "core.transitions_of", lambda a: len(a[0].words) - 1)),
            (bg.core, "parse_symbols", lambda f: self.counted(f, "core.parse_symbols")),
            (bg.beckett, "classify_beckett", lambda f: self.counted(f, "beckett.classify", _seq_len)),
            (bg.beckett, "queue_trace", lambda f: self.counted(f, "beckett.queue_trace", _seq_len)),
            (bg.canonical, "canonicalize", lambda f: self.counted(f, "canonical.canonicalize")),
            (bg.canonical, "relabel_first_occurrence", lambda f: self.counted(f, "canonical.relabel")),
            (bg.canonical, "are_isomorphic_beckett", lambda f: self.counted(f, "canonical.isomorphic")),
            (bg.canonical, "self_reverse_witness", lambda f: self.counted(f, "canonical.self_reverse")),
            (bg.stacks, "brgc", lambda f: self.counted(f, "stacks.brgc", lambda a: 1 << a[0])),
            (bg.stacks, "is_two_stack_realizable", lambda f: self.counted(
                f, "stacks.two_stack", lambda a: len(a[0].words))),
            (bg.fixtures, "load_fixtures", lambda f: self.counted(f, "fixtures.load")),
            (bg.fixtures, "self_check", lambda f: self.counted(f, "fixtures.self_check")),
        ):
            original = getattr(module, name)
            wrapper = make(original)
            # the name is also bound wherever another module imported it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "beckettgray" or mod_name.startswith("beckettgray."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch_attr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def end_setup(self):
        """Keep what the traced set-up recorded apart from the rounds."""
        self.setup_calls = dict(self.calls)
        self.calls.clear()  # in place: the wrappers hold this dict
        self.counts.clear()
        self.samples.clear()

    # -- results ---------------------------------------------------------
    def _total(self, key, owner=None, calls=None):
        out = [0, 0, 0]
        for (k, o), rec in (self.calls if calls is None else calls).items():
            if k == key and (owner is None or o == owner):
                out = [a + b for a, b in zip(out, rec)]
        return out

    def _span_ns(self, name, self_time=False):
        return sum(
            s.end - s.start - (s.child_ns if self_time else 0)
            for s in self.spans
            if s.name == name and s.round is not None
        )

    def layer_metrics(self, rounds: int, overhead: float, two_stack_peak_mb: float) -> dict:
        """Every per-layer metric, per traced round where it is an amount.

        A metric whose layer the workload does not call reads 0.
        """

        def per_round(x):
            return x // rounds if x % rounds == 0 else x / rounds

        def ratio(a, b, scale=1.0):
            return a / b * scale if b else 0.0

        def ns_per_word(key, calls=None):
            _, ns, words = self._total(key, calls=calls)
            return ratio(ns, words)

        def median_of(name):
            values = self.samples.get(name)
            return statistics.median(values) if values else 0.0

        children = self._total("search.children")
        push = self._total("search.push")
        split_ns = self._total("search.split")[1] + self._total("search.shallow")[1]
        completion_ns = self._span_ns("anneal.completion")
        probes = self.counts["estimate.probes"]
        canon = self._total("canonical.canonicalize")
        iso = self._total("canonical.isomorphic")
        c = self.counts
        m = {
            "search.nodes": per_round(c["search.nodes"]),
            "search.children_calls": per_round(children[0]),
            "search.push_calls": per_round(push[0]),
            "search.children_ns": ratio(children[1], children[0]),
            "search.push_ns": ratio(push[1], push[0]),
            "search.enumerate_s": self._span_ns("search.enumerate") / rounds / 1e9,
            "search.split_s": split_ns / rounds / 1e9,
            "anneal.attempts": per_round(c["anneal.attempts"]),
            "anneal.completion_nodes": per_round(c["anneal.completion_nodes"]),
            "anneal.anneal_s": self._span_ns("anneal.anneal", True) / rounds / 1e9,
            "anneal.completion_s": self._span_ns("anneal.completion", True) / rounds / 1e9,
            "anneal.anneal_push_calls": per_round(
                self._total("search.push", owner="anneal.anneal")[0]),
            "anneal.completion_nodes_per_s": ratio(
                c["anneal.completion_nodes"], completion_ns, 1e9),
            "anneal.outcome.found": per_round(c["anneal.outcome.found"]),
            "anneal.outcome.impossible": per_round(c["anneal.outcome.impossible"]),
            "anneal.outcome.budget": per_round(c["anneal.outcome.budget"]),
            "anneal.attempts_per_code": ratio(c["anneal.attempts"], c["anneal.codes"]),
            "estimate.probes": per_round(probes),
            "estimate.probe_us": ratio(self._span_ns("estimate.call"), probes, 1e-3),
            "estimate.rel_stderr.n5": median_of("rel_stderr.n5"),
            "estimate.rel_stderr.n6": median_of("rel_stderr.n6"),
            "core.classify_gray_ns_per_word.n16": ns_per_word("core.classify_gray.n16"),
            "core.classify_gray_ns_per_word.n18": ns_per_word("core.classify_gray.n18"),
            "core.classify_gray_ns_per_word.short": ns_per_word("core.classify_gray.short"),
            "core.transitions_of_ns_per_word": ns_per_word("core.transitions_of"),
            "beckett.classify_ns_per_word": ns_per_word("beckett.classify"),
            "beckett.queue_trace_ns_per_word": ns_per_word("beckett.queue_trace"),
            "beckett.classify_calls": per_round(self._total("beckett.classify")[0]),
            "canonical.relabel_calls": per_round(self._total("canonical.relabel")[0]),
            "canonical.canonicalize_us": ratio(canon[1], canon[0], 1e-3),
            "canonical.isomorphic_us": ratio(iso[1], iso[0], 1e-3),
            "canonical.self_reverse_s": self._total("canonical.self_reverse")[1] / rounds / 1e9,
            "stacks.brgc_ns_per_word": ns_per_word("stacks.brgc", self.setup_calls),
            "stacks.two_stack_ns_per_word": ns_per_word("stacks.two_stack"),
            "stacks.two_stack_peak_mb": two_stack_peak_mb,
            "fixtures.self_check_ms": self._total(
                "fixtures.self_check", calls=self.setup_calls)[1] / 1e6,
            "trace.overhead": overhead,
        }
        assert list(m) == [name for name, _, _ in PER_LAYER]
        return m

    def dump(self, path, **header):
        """Write the spans and call records as one JSON document."""

        def records(calls):
            return [[k, o, *rec] for (k, o), rec in sorted(calls.items())]

        doc = dict(header)
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent", "round", "child_ns"]
        doc["spans"] = [
            [s.name, s.start, s.end, s.parent, s.round, s.child_ns] for s in self.spans
        ]
        doc["call_fields"] = ["key", "enclosing_span", "calls", "ns", "words"]
        doc["setup_calls"] = records(self.setup_calls)
        doc["calls"] = records(self.calls)
        doc["counts"] = dict(self.counts)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
