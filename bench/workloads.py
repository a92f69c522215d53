"""The four workloads.

Each workload has four steps:

* ``prepare`` makes the raw inputs from the seed, as plain data, untimed;
* ``build`` turns them into the program's objects with its own
  constructors; it is the timed set-up, together with importing the
  package;
* ``run_round`` does one pass over the inputs, timing each item with the
  timer it is given, and returns one output per operation and the units
  of work done;
* ``check`` judges the outputs of one round against the reference checker,
  the paper's counts and properties the method must have.  It returns one
  verdict per operation: "ok", "failed" (no answer, or a wrong answer from
  a fault this benchmark knows of) or "wrong".

Every round of a run does the same operations, so a run can check its
first round in full and compare every later round with it.
"""

from __future__ import annotations

import math
import random

import inputs as bench_inputs
import reference


class Workload:
    name = ""
    # the run repeats rounds until it has at least this many items; the
    # tail percentile is the highest whole one with ten items beyond it
    min_items = 0

    def __init__(self, seed: int, codes: bench_inputs.CodeList):
        self.seed = seed
        self.codes = codes

    @property
    def tail_percentile(self) -> int:
        return 100 - math.ceil(1000 / self.min_items)

    def prepare(self, bg):
        return None

    def largest_two_stack_input(self, inp):
        return None


class Tree(Workload):
    """The n = 5 census cut into shards, plus two small censuses split too deep.

    Splitting n = 2 at depth 4 and n = 3 at depth 8 loses their one open
    code (the splitter drops codes shorter than the split depth); those two
    census checks fail on every run until the splitter is fixed.
    """

    name = "tree"
    min_items = 1000
    CENSUSES = ((5, 10, False), (2, 4, True), (3, 8, True))  # n, depth, known fault

    def build(self, bg, raw):
        return [bg.SearchConfig(n=n, mode="both", emit="canonical-codes") for n, _, _ in self.CENSUSES]

    def run_round(self, bg, configs, tracer, timer):
        outputs, work = [], 0
        for config, (_, depth, _) in zip(configs, self.CENSUSES):
            n = config.n
            with tracer.span("tree.split"):
                shards = bg.split_prefixes(n, depth)
                shallow = bg.search.count_shallow_nodes(n, depth)
            order = list(range(len(shards)))
            random.Random(self.seed * 1000 + n).shuffle(order)
            results = [None] * len(shards)
            for i in order:
                codes = []
                with timer.item(), tracer.span("tree.shard"):
                    rep = bg.enumerate_beckett(
                        shards[i], lambda kind, seq: codes.append((kind, seq.symbols))
                    )
                results[i] = (
                    "shard", n, shards[i].prefix.symbols, rep.count_cyclic,
                    rep.count_open_total, rep.count_open_strict, rep.nodes_visited,
                    rep.truncated, tuple(codes),
                )
            nodes = shallow + sum(r[6] for r in results)
            totals = tuple(sum(r[k] for r in results) for k in (3, 4, 5))
            outputs.extend(results)
            outputs.append(("census", n, totals, nodes))
            work += nodes
        return outputs, work

    def check(self, inp, outputs):
        verdicts = []
        least = {}
        shards = []
        known = {n: fault for n, _, fault in self.CENSUSES}
        for out in outputs:
            if out[0] == "shard":
                shards.append(out)
                verdicts.append("ok" if self._shard_ok(out, least) else "wrong")
                continue
            _, n, totals, nodes = out
            emitted = [code for shard in shards for code in shard[8]]
            expected = sorted(
                (mode, c) for mode in ("cyclic", "open") for c in self.codes.codes[n, mode]
            )
            ok = (
                totals == self.codes.counts(n)
                and nodes == self.codes.tree_sizes[n]
                and sorted(emitted) == expected
            )
            verdicts.append("ok" if ok else "failed" if known[n] else "wrong")
            shards = []
        return verdicts, []

    @staticmethod
    def _shard_ok(out, least):
        _, n, prefix, cyclic, open_total, open_strict, _, truncated, codes = out
        if truncated:
            return False
        for kind, code in codes:
            if code[: len(prefix)] != prefix or not reference.is_restricted_growth(code):
                return False
            if reference.beckett_kind(n, code)[0] != f"{kind}-beckett":
                return False
            if code not in least:
                least[code] = reference.least_image(n, code)
            if least[code] != code:
                return False
        opens = [code for kind, code in codes if kind == "open"]
        strict = sum(not reference.closable(code) for code in opens)
        return (cyclic, open_total, open_strict) == (len(codes) - len(opens), len(opens), strict)


class Hunt(Workload):
    """Fixed-seed hunts, each run to its first code."""

    name = "hunt"
    min_items = 200
    # seeds of n = 6 hunts that find a code (many run 30,000 attempts in vain)
    HUNTS = (
        [(6, "cyclic", s) for s in (1, 6, 13)]
        + [(5, "cyclic", s) for s in range(24)]
        + [(5, "open", s) for s in range(24)]
    )

    def prepare(self, bg):
        order = list(range(len(self.HUNTS)))
        random.Random(self.seed).shuffle(order)
        return [self.HUNTS[i] for i in order]

    def build(self, bg, raw):
        return [bg.AnnealConfig(n=n, mode=mode, rng_seed=s) for n, mode, s in raw]

    def run_round(self, bg, configs, tracer, timer):
        outputs, work = [], 0
        for config in configs:
            with timer.item(), tracer.span("hunt.item"):
                result = bg.hunt(config)
            found = result.found.symbols if result.found is not None else None
            outputs.append((
                config.n, config.mode, config.rng_seed, found, result.attempts,
                result.winning_seed, result.best_partial_length,
            ))
            work += result.attempts
        return outputs, work

    def check(self, inp, outputs):
        verdicts = []
        for n, mode, _, found, attempts, _, _ in outputs:
            if found is None:
                verdicts.append("failed")
            elif attempts >= 1 and reference.beckett_kind(n, found)[0] == f"{mode}-beckett":
                verdicts.append("ok")
            else:
                verdicts.append("wrong")
        return verdicts, []


class Estimate(Workload):
    """Knuth estimates of the n = 4, 5 and 6 trees from fixed seeds."""

    name = "estimate"
    min_items = 200
    CALLS = (
        [(4, 500, s) for s in range(8)]
        + [(5, 1000, s) for s in range(8)]
        + [(6, 1000, s) for s in range(8)]
    )

    def prepare(self, bg):
        order = list(range(len(self.CALLS)))
        random.Random(self.seed).shuffle(order)
        return [self.CALLS[i] for i in order]

    def build(self, bg, raw):
        return [(bg.SearchConfig(n=n), samples, s) for n, samples, s in raw]

    def run_round(self, bg, calls, tracer, timer):
        outputs, work = [], 0
        for config, samples, s in calls:
            with timer.item(), tracer.span("estimate.item"):
                r = bg.estimate_tree_size(config, samples, s)
            outputs.append((config.n, samples, r.samples, r.mean_nodes, r.stderr, r.log2_mean))
            work += samples
        return outputs, work

    def check(self, inp, outputs):
        verdicts = []
        for n, samples, got, mean, stderr, log2_mean in outputs:
            ok = (
                got == samples
                and math.isfinite(mean) and mean >= 1
                and math.isfinite(stderr) and stderr >= 0
                and math.isclose(log2_mean, math.log2(mean))
            )
            if n in (4, 5):
                ok = ok and abs(mean - self.codes.tree_sizes[n]) <= 4 * stderr
            verdicts.append("ok" if ok else "wrong")
        return verdicts, []


class Verify(Workload):
    """Checking given codes and paths; the search layer does no work here."""

    name = "verify"
    min_items = 1000
    BRGC_BITS = range(1, 19)
    SELF_REVERSE_BITS = range(1, 8)

    def prepare(self, bg):
        rng = random.Random(self.seed)
        sources = [
            (n, code)
            for (n, _), codes in sorted(self.codes.codes.items())
            for code in codes
        ]
        sources += [(f.n, f.seq.symbols) for f in bg.load_fixtures()]
        images = [
            (i, image, reference.beckett_kind(sources[i][0], image)[0] in reference.CODE_KINDS)
            for i, image in bench_inputs.code_images(rng, sources)
        ]
        shorts = bench_inputs.short_inputs(rng)
        # the checks of a round run in one seeded order, so that the many
        # short ones are spread over the whole round, not bunched in one part
        order = (
            [("image", k) for k in range(len(images))]
            + [("short", k) for k in range(len(shorts))]
            + [("brgc", k) for k in range(len(self.BRGC_BITS))]
            + [("self-reverse", k) for k in range(2 * len(self.SELF_REVERSE_BITS))]
        )
        rng.shuffle(order)
        return {"sources": sources, "images": images, "shorts": shorts, "order": order}

    def build(self, bg, raw):
        checks = bg.self_check()
        sources = [bg.TransitionSequence(n, s) for n, s in raw["sources"]]
        images = [
            (i, bg.TransitionSequence(sources[i].n, image), is_code)
            for i, image, is_code in raw["images"]
        ]
        shorts = [bg.TransitionSequence(n, s) for n, s in raw["shorts"]]
        paths = [bg.brgc(n) for n in self.BRGC_BITS]
        cycles = [
            bg.WordPath(n, paths[n - 1].words + (0,)) for n in self.SELF_REVERSE_BITS
        ]
        return {
            "self_check": [(c.label, c.passed) for c in checks],
            "sources": sources,
            "images": images,
            "shorts": shorts,
            "paths": paths,
            "cycles": cycles,
            "order": raw["order"],
        }

    def largest_two_stack_input(self, inp):
        return inp["paths"][-1]

    def run_round(self, bg, inp, tracer, timer):
        outputs, work = [], 0
        sources = inp["sources"]

        def trace(seq):
            try:
                return bg.queue_trace(seq)
            except bg.BeckettViolationError as e:
                return e.violation

        for kind, k in inp["order"]:
            if kind == "image":
                i, seq, is_code = inp["images"][k]
                with timer.item(), tracer.span("verify.check"):
                    cls = bg.classify_beckett(seq)
                    states = trace(seq)
                    canon = bg.canonicalize(seq).symbols
                    witness = bg.are_isomorphic_beckett(sources[i], seq) if is_code else None
                outputs.append(("image", k, cls, states, canon, witness))
                work += len(seq)
            elif kind == "short":
                seq = inp["shorts"][k]
                with timer.item(), tracer.span("verify.check"):
                    cls = bg.classify_beckett(seq)
                    gray = bg.classify_gray(seq)
                    states = trace(seq)
                outputs.append(("short", k, cls, gray, states))
                work += len(seq)
            elif kind == "brgc":
                path = inp["paths"][k]
                with timer.item(), tracer.span("verify.check"):
                    seq = bg.transitions_of(path)
                    gray = bg.classify_gray(seq)
                    stacks = bg.is_two_stack_realizable(path)
                outputs.append(("brgc", path.n, seq.symbols, gray, stacks))
                work += len(seq)
            else:
                cycle, allow = inp["cycles"][k // 2], bool(k % 2)
                with timer.item(), tracer.span("verify.check"):
                    witness = bg.self_reverse_witness(cycle, allow)
                outputs.append(("self-reverse", cycle.n, allow, witness))
                work += len(cycle) - 1
        return outputs, work

    def check(self, inp, outputs):
        problems = [f"fixture {label} fails the self-check" for label, ok in inp["self_check"] if not ok]
        sources = [(s.n, s.symbols) for s in inp["sources"]]
        least = {}
        verdicts = []
        checkers = {
            "image": self._check_image,
            "short": self._check_short,
            "brgc": self._check_brgc,
            "self-reverse": self._check_self_reverse,
        }
        for out in outputs:
            try:
                ok = checkers[out[0]](inp, sources, least, *out[1:])
            except (AttributeError, IndexError, TypeError):
                ok = False  # an output of the wrong shape
            verdicts.append("ok" if ok else "wrong")
        return verdicts, problems

    @staticmethod
    def _same_class(cls, n, symbols):
        kind, detail = reference.beckett_kind(n, symbols)
        if cls.kind.value != kind:
            return False
        if kind == "not-beckett":
            v = cls.violation
            return (v.step, v.position, v.front) == detail
        if kind == "not-gray":
            return cls.repeat_index == detail
        return cls.violation is None and cls.repeat_index is None

    @staticmethod
    def _same_trace(states, symbols):
        ref_states, violation = reference.queue_states(symbols)
        if violation is None:
            return states == ref_states
        return not isinstance(states, list) and (states.step, states.position, states.front) == violation

    def _check_image(self, inp, sources, least, k, cls, states, canon, witness):
        i, seq, is_code = inp["images"][k]
        n, source = sources[i]
        image = seq.symbols
        if not (self._same_class(cls, n, image) and self._same_trace(states, image)):
            return False
        if not is_code:
            return canon == reference.least_image(n, image)
        # every image of a code has the one canonical form of its class
        if i not in least:
            least[i] = reference.least_image(n, source)
        return (
            canon == least[i]
            and witness is not None
            and reference.apply_witness(source, witness.rho, witness.reversed) == image
        )

    def _check_short(self, inp, sources, least, j, cls, gray, states):
        seq = inp["shorts"][j]
        n, symbols = seq.n, seq.symbols
        kind, repeat = reference.gray_kind(n, symbols)
        return (
            self._same_class(cls, n, symbols)
            and (gray.kind.value, gray.repeat_index) == (kind, repeat)
            and self._same_trace(states, symbols)
        )

    def _check_brgc(self, inp, sources, least, n, symbols, gray, stacks):
        words = reference.brgc_words(n)
        path = inp["paths"][n - 1]
        ref_states, violation = reference.two_stack_states(words)
        return (
            list(path.words) == words
            and symbols == tuple((a ^ b).bit_length() - 1 for a, b in zip(words, words[1:]))
            and gray.kind.value == reference.gray_kind(n, symbols)[0] == "open-gray"
            and violation is None
            and stacks == (True, None)
        )

    def _check_self_reverse(self, inp, sources, least, n, allow, witness):
        cycle = inp["cycles"][n - 1].words
        if list(cycle) != reference.brgc_words(n) + [0]:
            return False
        # the BRGC is self-reverse with an added word; without one, no
        # cyclic Gray code is for n >= 3
        if witness is None:
            return not allow and n >= 3
        added = witness.added_word or 0
        return (
            witness.reversed
            and (allow or not added)
            and reference.maps_cycle_onto_reversal(
                list(cycle[:-1]), witness.rho, added, witness.rotation)
        )


WORKLOADS = {w.name: w for w in (Tree, Hunt, Verify, Estimate)}
