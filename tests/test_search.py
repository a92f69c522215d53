import functools
import gc
import hashlib
import importlib
import itertools
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import beckettgray
from beckettgray import cli, search
from beckettgray.anneal import complete_backtrack
from beckettgray.beckett import BeckettKind, classify_beckett, queue_trace
from beckettgray.canonical import canonicalize
from beckettgray.core import (
    GrayKind,
    TransitionSequence,
    WordPath,
    classify_gray,
    parse_symbols,
    transitions_of,
)
from beckettgray.search import (
    SearchConfig,
    SearchState,
    count_shallow_nodes,
    enumerate_beckett,
    enumerate_gray_cycles_small,
    split_prefixes,
    split_tree,
)

TABLE_FIVE_BIT_CYCLIC = {
    "01020132010432104342132340412304",
    "01020312403024041232414013234013",
    "01020314203024041234214103234103",
    "01020314203240421034214130324103",
    "01020341202343142320143201043104",
    "01023412032403041230341012340124",
    "01201321402314340232134021431041",
    "01203041230314043210403202413241",
}


def run(n, mode="both"):
    codes = []
    report = enumerate_beckett(SearchConfig(n, mode), lambda k, s: codes.append((k, s)))
    return report, codes


class TestExactCounts:
    def test_tiny(self):
        assert run(1)[0].count_cyclic == 1
        assert run(2)[0].count_cyclic == 1

    def test_three_bits(self):
        report, codes = run(3)
        assert report.count_cyclic == 0
        assert report.count_open_total == 1
        assert [str(s) for k, s in codes] == ["0102101"]

    def test_four_bits(self):
        report, codes = run(4)
        assert report.count_cyclic == 0
        assert {str(s) for k, s in codes} == {
            "010213202313020",
            "010213212031321",
            "012301202301230",
            "012301213210321",
        }

    def test_five_bits_cyclic_matches_published_table(self):
        report, codes = run(5, "cyclic")
        assert report.count_cyclic == 8
        assert {str(canonicalize(s)) for k, s in codes} == TABLE_FIVE_BIT_CYCLIC

    def test_five_bits_open_count(self):
        report, _ = run(5, "open")
        # the published figure of 116 excludes open codes whose one-step
        # extension closes a cycle; the inclusive count is 132
        assert report.count_open_strict == 116
        assert report.count_open_total == 132


class TestEmittedCodes:
    def test_every_emission_is_classified_and_canonical(self):
        for n in (3, 4, 5):
            _, codes = run(n)
            for kind, s in codes:
                expected = BeckettKind.CYCLIC if kind == "cyclic" else BeckettKind.OPEN
                assert classify_beckett(s).kind is expected
                assert canonicalize(s) == s

    def test_emission_order_is_lexicographic(self):
        _, codes = run(5, "cyclic")
        symbol_lists = [s.symbols for k, s in codes]
        assert symbol_lists == sorted(symbol_lists)

    def test_nodes_visited_deterministic(self):
        assert run(4)[0].nodes_visited == run(4)[0].nodes_visited == 263


class TestUnprunedOracle:
    def test_three_bit_search_without_pruning_gives_same_classes(self):
        # independent oracle: DFS over ALL Beckett-consistent growths with
        # no restricted-growth pruning, then post-hoc canonical dedup
        n, found = 3, set()

        def dfs(state):
            depth = len(state.seq)
            if depth == (1 << n) - 1 and all(state.visited):
                found.add(("open", canonicalize(state.sequence()).symbols))
            if depth == (1 << n):
                found.add(("cyclic", canonicalize(state.sequence()).symbols))
                return
            for p in state.children(restricted_growth=False):
                state.push(p)
                dfs(state)
                state.pop()

        dfs(SearchState(n))
        _, codes = run(n)
        assert found == {(k, canonicalize(s).symbols) for k, s in codes}


class TestSplitPrefixes:
    def test_first_symbol_is_forced(self):
        assert [str(c.prefix) for c in split_prefixes(3, 1)] == ["0"]

    def test_depth_two_survivors(self):
        # "00" dies (dequeue revisits the all-zero word): only "01" survives
        assert [str(c.prefix) for c in split_prefixes(3, 2)] == ["01"]

    def test_time_limit_cuts_the_split_walk(self):
        # checked every 4,096 nodes; a cut walk leaves no shard to run
        assert split_tree(5, 31, time_limit=0) == ([], 4096, True)

    @pytest.mark.parametrize("depth", [4, 6, 8])
    def test_shard_sums_match_unsplit_run(self, depth):
        whole, _ = run(5, "both")
        merged = None
        for cfg in split_prefixes(5, depth):
            shard = enumerate_beckett(
                SearchConfig(5, "both", prefix=cfg.prefix, emit="count-only")
            )
            merged = shard if merged is None else merged.merge(shard)
        assert merged.count_cyclic == whole.count_cyclic == 8
        assert merged.count_open_total == whole.count_open_total
        assert merged.count_open_strict == whole.count_open_strict

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_depth_matches_unsplit_run(self, n):
        # codes shorter than the requested depth must still land in a shard
        whole, whole_codes = run(n)
        for depth in range(min(2**n, 12) + 1):
            merged, codes = None, []
            for cfg in split_prefixes(n, depth):
                shard = enumerate_beckett(
                    SearchConfig(n, "both", prefix=cfg.prefix),
                    lambda k, s: codes.append((k, s)),
                )
                merged = shard if merged is None else merged.merge(shard)
            counts = (merged.count_cyclic, merged.count_open_total, merged.count_open_strict)
            assert counts == (
                whole.count_cyclic, whole.count_open_total, whole.count_open_strict
            ), depth
            assert codes == whole_codes, depth
            assert count_shallow_nodes(n, depth) + merged.nodes_visited == whole.nodes_visited

    def test_every_depth_below_a_prefix_matches_the_prefix_run(self):
        # shards are rooted at the prefix; a depth at or above it gives the
        # prefix itself as the one shard
        prefix = parse_symbols(4, "0102")
        codes = []
        whole = enumerate_beckett(
            SearchConfig(4, prefix=prefix), lambda k, s: codes.append((k, s))
        )
        for depth in range(13):
            shards = split_prefixes(4, depth, prefix)
            if depth <= 4:
                assert [c.prefix for c in shards] == [prefix]
            merged, shard_codes = None, []
            for cfg in shards:
                assert cfg.prefix.symbols[:4] == prefix.symbols
                shard = enumerate_beckett(cfg, lambda k, s: shard_codes.append((k, s)))
                merged = shard if merged is None else merged.merge(shard)
            assert shard_codes == codes, depth
            assert (
                count_shallow_nodes(4, depth, prefix) + merged.nodes_visited
                == whole.nodes_visited
            ), depth

    def test_prefix_must_be_consistent(self):
        with pytest.raises(ValueError):
            SearchState.from_prefix(3, parse_symbols(3, "00"))

    @pytest.mark.parametrize("prefix, index", [
        (parse_symbols(3, "00"), 1), ([0, 0], 1), (iter([0, 0]), 1),
        # symbols outside [0, n) are refused as well, at their own index
        ([3], 0), ([0, 7], 1), ([-1], 0), ([0, 1, 0, 3], 3),
    ], ids=["sequence", "list", "iterator", "3-first", "7-second", "minus1-first", "3-fourth"])
    def test_prefix_error_names_the_refused_symbol(self, prefix, index):
        with pytest.raises(ValueError, match=f"at symbol index {index}$"):
            SearchState.from_prefix(3, prefix)

    def test_symbol_list_replays_as_its_sequence(self):
        assert _snapshot(SearchState.from_prefix(3, [0, 1, 0])) == _snapshot(
            SearchState.from_prefix(3, TransitionSequence(3, (0, 1, 0))))
        assert _snapshot(SearchState.from_prefix(3, [])) == _snapshot(
            SearchState.from_prefix(3, None))


class TestGrayCycleEnumeration:
    def test_two_bit_cycles(self):
        paths = enumerate_gray_cycles_small(2)
        assert {str(transitions_of(p)) for p in paths} == {"0101", "1010"}

    def test_three_bit_count_frozen(self):
        # oracle: brute-force permutation filter over word orderings agrees
        assert len(enumerate_gray_cycles_small(3)) == 12

    def test_four_bit_count_frozen(self):
        # 1344 undirected Hamilton cycles of the 4-cube, both orientations
        assert len(enumerate_gray_cycles_small(4)) == 2688

    def test_one_bit_cycle(self):
        assert [p.words for p in enumerate_gray_cycles_small(1)] == [(0, 1, 0)]

    def test_oracle_brute_force_three_bits(self):
        # the walk is lexicographic in symbols, so the cycles come in the
        # order of their transition strings
        cycles = []
        for perm in itertools.permutations(range(1, 8)):
            cycle = (0,) + perm + (0,)
            if all(bin(cycle[i] ^ cycle[i + 1]).count("1") == 1 for i in range(8)):
                cycles.append(cycle)
        cycles.sort(key=lambda c: str(transitions_of(WordPath(3, c))))
        assert [p.words for p in enumerate_gray_cycles_small(3)] == cycles

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cycles_are_distinct_and_in_symbol_order(self, n):
        # with the frozen counts, this pins the whole list and its order
        symbols = [transitions_of(p).symbols for p in enumerate_gray_cycles_small(n)]
        assert symbols == sorted(set(symbols))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gray_walk_leaves_its_state_as_it_found_it(self, n):
        state = SearchState(n)
        for _ in state.walk(1 << n, restricted_growth=False, gray=True):
            assert _gray_snapshot(state) == _gray_state(n, state.seq)
        assert _gray_snapshot(state) == _gray_state(n, ())
        assert state.visited[0] == 1

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("steps_past", [0, 1])
    def test_gray_walk_closed_at_or_past_a_last_word_of_several_bits(self, n, steps_past):
        # every word is visited at depth 2**n - 1, and only a single-bit
        # word may clear word 0's flag there, for the step that closes it
        state = SearchState(n)
        walk = state.walk(1 << n, restricted_growth=False, gray=True)
        for depth in walk:
            if depth == (1 << n) - 1 and state.word.bit_count() > 1:
                break
        for _ in range(steps_past):
            next(walk)
        walk.close()
        assert state.visited[0] == 1
        assert _gray_snapshot(state) == _gray_state(n, state.seq)

    def test_every_path_is_cyclic_gray(self):
        for p in enumerate_gray_cycles_small(3):
            assert classify_gray(transitions_of(p)).kind is GrayKind.CYCLIC

    def test_size_limit(self):
        with pytest.raises(ValueError):
            enumerate_gray_cycles_small(5)

    @pytest.mark.parametrize("n", [0, -1, 5, 2.5])
    def test_message_names_the_range(self, n):
        # 0 gave no cycle, -1 a negative shift count and 2.5 a TypeError
        with pytest.raises(ValueError, match=r"\[1, 4\]"):
            enumerate_gray_cycles_small(n)


class TestBudgets:
    def test_node_limit_marks_truncated(self):
        report = enumerate_beckett(SearchConfig(5, node_limit=1000, emit="count-only"))
        assert report.truncated
        assert report.nodes_visited <= 1001


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _snapshot(state):
    return (
        state.word, bytes(state.visited), list(state.queue), state.used,
        list(state.seq),
    )


def _gray_snapshot(state):
    return _snapshot(state) + (list(state.used_log),)


def _gray_state(n, symbols):
    """The snapshot of a Gray-rule walk at the node ``symbols``: every word
    on the path visited, the bit of each set step queued after the leading
    0, and ``used`` logged before each step.  No word but a closing 0 is
    visited twice."""
    word, used, queue, used_log = 0, 0, [0], []
    visited = bytearray(1 << n)
    visited[0] = 1
    for depth, p in enumerate(symbols, 1):
        word ^= 1 << p
        assert not visited[word] or word == 0 and depth == 1 << n, symbols
        if word >> p & 1:
            queue.append(1 << p)
        visited[word] = 1
        used_log.append(used)
        used = max(used, p + 1)
    return word, bytes(visited), queue, used, list(symbols), used_log


def _assert_derived_state(state):
    # the state stores neither the visited count nor the live queue: each
    # step but the closing one visits a new word, and the live queue's bits
    # must match the queue checker's independent replay of its symbols
    assert sum(state.visited) == min(len(state.seq) + 1, 1 << state.n)
    live = state.queue[len(state.queue) - state.word.bit_count():]
    assert tuple(b.bit_length() - 1 for b in live) == queue_trace(state.sequence())[-1]


class TestUndoKernel:
    def test_pop_restores_every_field(self):
        rng = random.Random(7)
        # every random descent for n = 1 and 2 closes a cycle
        for n in (1, 2, 3, 4, 5):
            state, snapshots = SearchState(n), []
            while True:
                children = state.children(restricted_growth=False)
                if not children:
                    break
                snapshots.append(_snapshot(state))
                assert state.push(rng.choice(children))
                _assert_derived_state(state)
                replayed = SearchState.from_prefix(n, state.sequence())
                assert _snapshot(replayed) == _snapshot(state)
            if n <= 2:
                assert len(state.seq) == 1 << n and state.word == 0
            while snapshots:
                state.pop()
                _assert_derived_state(state)
                assert _snapshot(state) == snapshots.pop()

    def test_walk_returns_to_its_start(self):
        state = SearchState.from_prefix(4, parse_symbols(4, "0102"))
        before = _snapshot(state)
        assert sum(1 for _ in state.walk(16)) == enumerate_beckett(
            SearchConfig(4, prefix=state.sequence())
        ).nodes_visited
        assert _snapshot(state) == before

    def test_walk_closed_early_stays_at_last_node(self):
        state = SearchState(3)
        walk = state.walk(8)
        for depth in walk:
            if depth == 5:
                break
        walk.close()
        assert _snapshot(state) == _snapshot(SearchState.from_prefix(3, state.sequence()))
        assert len(state.seq) == 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("restricted_growth", [True, False])
    def test_walk_order_is_children_order(self, n, restricted_growth):
        # the walk's move rows, keyed by the mask of a node's moves, must agree with
        # children(), that is push(), node for node: over the whole tree up to
        # n = 5, and for the first 20,000 nodes below the root and below
        # seeded prefixes beyond it (the unrestricted 5-bit tree is too big)
        starts, limit = [()], None
        if n > 5 or (n == 5 and not restricted_growth):
            starts += [_seeded_prefix(n, seed) for seed in range(3)]
            limit = 20_000
        for start in starts:
            walked = SearchState.from_prefix(n, TransitionSequence(n, start))
            stepped = SearchState.from_prefix(n, TransitionSequence(n, start))
            walk = (tuple(walked.seq) for _ in walked.walk(1 << n, restricted_growth))
            pairs = itertools.zip_longest(
                itertools.islice(walk, limit),
                itertools.islice(_children_order(stepped, restricted_growth), limit))
            for node, (got, want) in enumerate(pairs):
                assert got == want, (start, node)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("restricted_growth", [True, False])
    def test_descend_is_a_children_choice_push_loop(self, n, restricted_growth):
        # the inlined step must draw and push as this loop does, step for step
        def stepwise(state, rng, stop_at):
            factors = []
            while len(state.seq) < stop_at:
                kids = state.children(restricted_growth)
                if not kids:
                    break
                factors.append(len(kids))
                assert state.push(rng.choice(kids))
            return factors

        for text, seed in itertools.product(["", "0102"[:n]], range(5)):
            prefix = parse_symbols(n, text)
            # a stop below the deepest node possible, and one past it
            for stop_at in (len(text) + 2, (1 << n) + 1):
                expected, want_rng = SearchState.from_prefix(n, prefix), random.Random(seed)
                want = stepwise(expected, want_rng, stop_at)
                state, got_rng = SearchState.from_prefix(n, prefix), random.Random(seed)
                got = state.descend(got_rng, stop_at, restricted_growth)
                assert (state.seq, got) == (expected.seq, want)
                # a draw skipped for a lone child would show only here
                assert got_rng.getstate() == want_rng.getstate()
                assert _snapshot(state) == _snapshot(
                    SearchState.from_prefix(n, state.sequence())
                )


def _children_order(state, restricted_growth):
    """Each node below ``state`` in turn, by a depth-first loop over children()."""
    untried = []  # per open level, its children not yet entered, last first
    while True:
        yield tuple(state.seq)
        untried.append(state.children(restricted_growth)[::-1])
        while not untried[-1]:
            untried.pop()
            if not untried:
                return
            state.pop()
        assert state.push(untried[-1].pop())


def _seeded_prefix(n, seed):
    """The symbols of a random descent by children() to depth 2n or a leaf."""
    state, rng = SearchState(n), random.Random(seed)
    while len(state.seq) < 2 * n and state.children():
        state.push(rng.choice(state.children()))
    return tuple(state.seq)


def _walked(state, restricted_growth, prune):
    """Nodes yielded, and the cyclic and open completions in walk order."""
    full = 1 << state.n
    nodes, cyclic, open_ = 0, [], []
    before = _snapshot(state)
    for depth in state.walk(full, restricted_growth, prune):
        nodes += 1
        if depth == full:
            cyclic.append(tuple(state.seq))
        elif depth == full - 1:  # every word is visited
            open_.append(tuple(state.seq))
    assert _snapshot(state) == before
    return nodes, cyclic, open_


class TestDegreePrune:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("restricted_growth", [True, False])
    def test_prune_keeps_every_completion_in_order(self, n, restricted_growth):
        # from the root and, at n = 5, from every node at depth 6; the
        # unrestricted 5-bit tree from the root is too big to walk here
        starts = [()]
        if n == 5:
            starts = [c.prefix.symbols for c in split_prefixes(5, 6)]
            if restricted_growth:
                starts.append(())
        for start in starts:
            state = SearchState.from_prefix(n, TransitionSequence(n, start))
            nodes, cyclic, open_ = _walked(state, restricted_growth, None)
            cyclic_nodes, pruned_cyclic, _ = _walked(state, restricted_growth, "cyclic")
            open_nodes, _, pruned_open = _walked(state, restricted_growth, "open")
            assert pruned_cyclic == cyclic, start
            assert pruned_open == open_, start
            assert max(cyclic_nodes, open_nodes) <= nodes, start

    def test_pruned_tree_sizes_are_frozen(self):
        # 537,326 nodes unpruned; a dead node is yielded as a leaf
        state = SearchState(5)
        assert _walked(state, True, "cyclic")[0] == 93_519
        assert _walked(state, True, "open")[0] == 155_305

    def test_dead_start_is_yielded_and_not_expanded(self):
        # at 0, 1, 3, 7, 6 the word 101 has one available neighbour, 100,
        # so no cycle passes through it; without the closing word 0, 010
        # has one too, and no open path ends at both
        state = SearchState.from_prefix(3, parse_symbols(3, "0120"))
        assert len(list(state.walk(8, False))) > 1
        assert list(state.walk(8, False, "cyclic")) == [4]
        assert list(state.walk(8, False, "open")) == [4]

    def test_bad_prune_is_rejected(self):
        with pytest.raises(ValueError):
            next(SearchState(3).walk(8, prune="both"))


class TestIterativeSearch:
    def test_deep_searches_need_no_recursion(self):
        code = parse_symbols(5, "01020132010432104342132340412304")
        prefix = TransitionSequence(5, code.symbols[:8])
        expected_report = enumerate_beckett(SearchConfig(5, prefix=prefix, emit="count-only"))
        expected_completion = complete_backtrack(TransitionSequence(5, code.symbols[:4]))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 20)
        try:
            report = enumerate_beckett(SearchConfig(5, prefix=prefix, emit="count-only"))
            completion = complete_backtrack(TransitionSequence(5, code.symbols[:4]))
        finally:
            sys.setrecursionlimit(old)
        report.elapsed = expected_report.elapsed
        assert report == expected_report
        assert report.count_cyclic >= 1
        assert completion == expected_completion
        assert completion.found is not None


@pytest.fixture
def empty_move_table():
    search._rows.clear()
    yield
    search._rows.clear()


def _kernel_runs(n):
    """Runs whose results the move table may not change: the digest of every
    walk, pruned or not, in both growth modes, and a run of descents in each
    mode with the draws it leaves."""
    def walk(restricted_growth, prune):
        # the unrestricted 5-bit tree from the root is too big to walk here
        start = {True: "0102", False: "01020"}[restricted_growth] if n == 5 else ""
        state = SearchState.from_prefix(n, parse_symbols(n, start))
        digest = hashlib.sha256()
        for _ in state.walk(1 << n, restricted_growth, prune):
            digest.update(bytes(state.seq) + b".")
        return digest.hexdigest()

    def descents(restricted_growth):
        rng, out = random.Random(n), []
        for _ in range(50):
            state = SearchState(n)
            out.append((state.descend(rng, (1 << n) + 1, restricted_growth), state.seq))
        return out, rng.getstate()

    return ([functools.partial(walk, restricted_growth, prune) for restricted_growth, prune
             in itertools.product((True, False), (None, "cyclic", "open"))]
            + [functools.partial(descents, restricted_growth)
               for restricted_growth in (True, False)])


def _kernel_run(n):
    return [run() for run in _kernel_runs(n)]


class TestMoveTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_evicted_rows_change_nothing(self, n, monkeypatch, empty_move_table):
        uncapped = _kernel_run(n)
        search._rows.clear()
        monkeypatch.setattr(search, "_MAX_ROWS", 2)  # nearly every lookup builds its row
        assert _kernel_run(n) == uncapped
        assert len(search._rows) <= 2

    def test_one_table_serves_every_n_and_growth_mode(self, empty_move_table):
        # each run on an emptied table, then all of them taken in turn
        # across n on one table that none of them empties
        runs = {(i, n): run for n in (3, 4, 5) for i, run in enumerate(_kernel_runs(n))}
        alone = {}
        for key, run in runs.items():
            search._rows.clear()
            alone[key] = run()
        search._rows.clear()
        assert {key: runs[key]() for key in sorted(runs)} == alone

    def test_a_long_run_holds_at_most_the_cap(self, monkeypatch, capsys, empty_move_table):
        # this run meets 3,367 masks; a cap below that shows that the
        # table is emptied when it is full
        monkeypatch.setattr(search, "_MAX_ROWS", 1 << 11)
        args = ["enumerate", "-n", "12", "--count-only", "--node-limit", "1000000"]
        assert cli.main(args) == cli.EXIT_TRUNCATED
        assert 0 < len(search._rows) <= 1 << 11

    def test_import_builds_no_table(self):
        # rows are built on first use, so importing the package takes no longer
        code = ("import beckettgray\n"
                "from beckettgray import search\n"
                "print(len(search._rows), search._limits.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(beckettgray.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.split() == ["0", "0"]


def test_reimported_package_is_freed():
    # typing caches parametrized aliases; one holding a package class would
    # keep every re-imported copy of the package alive
    def package_modules():
        return {
            name: module for name, module in sys.modules.items()
            if name == "beckettgray" or name.startswith("beckettgray.")
        }

    in_use = package_modules()
    try:
        for name in in_use:
            del sys.modules[name]
        fresh = importlib.import_module("beckettgray")
        freed = weakref.ref(fresh.core.TransitionSequence)
        del fresh
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(in_use)
    gc.collect()
    assert freed() is None
