import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from beckettgray import anneal
from beckettgray.anneal import (
    AnnealConfig,
    anneal_partial,
    complete_backtrack,
    hunt,
)
from beckettgray.beckett import BeckettKind, classify_beckett
from beckettgray.core import TransitionSequence, parse_symbols
from beckettgray.fixtures import load_fixtures
from beckettgray.search import SearchConfig, SearchState, enumerate_beckett


def unpruned_completion(prefix, mode):
    """``complete_backtrack`` without the degree prune or a budget:
    the first completion and whether none exists."""
    n = prefix.n
    target = (1 << n) - (0 if mode == "cyclic" else 1)
    state = SearchState.from_prefix(n, prefix)
    for depth in state.walk(target, restricted_growth=False):
        if depth == target and (mode == "cyclic" or all(state.visited)):
            return state.sequence(), False
    return None, True


def annealed(config, seed):
    """The partial a hunt attempt anneals from ``seed``: the attempt with its
    completion stopped after the first node, on the path ``_kernel()`` picks."""
    _, got, out, _, _ = anneal._kernel()(config.n, seed, 1, config.complete_length,
                                         config.handoff, 1)
    return TransitionSequence(config.n, out[:got])


def replayed_hunt(config):
    """``hunt`` with a replayed completion: each attempt anneals, then
    completes a ``TransitionSequence`` of its handoff prefix, which
    ``complete_backtrack`` replays into a fresh state."""
    best = 0
    for attempt in range(config.restarts):
        seed = config.rng_seed * 1_000_003 + attempt
        partial = annealed(config, seed)
        best = max(best, len(partial))
        if len(partial) == config.complete_length:
            found = partial
        else:
            prefix = TransitionSequence(config.n, partial.symbols[:config.handoff])
            found = complete_backtrack(prefix, config.mode, config.completion_budget).found
        if found is not None:
            return found, attempt + 1, seed, max(best, len(found))
    return None, config.restarts, None, best


_ANNEAL_PY = anneal._anneal_py  # the real one, which a test may patch over
_python_partials: dict[tuple[int, int, int, int], tuple[int, ...]] = {}


def python_partial(n, seed, length, stop_len):
    """The symbols of ``_anneal_py``'s best partial, annealed once per session
    for every test that asks: a full schedule takes about a second."""
    key = n, seed, length, stop_len
    if key not in _python_partials:
        _python_partials[key] = tuple(_ANNEAL_PY(*key).seq)
    return _python_partials[key]


def _fields(state):
    return {name: getattr(state, name) for name in SearchState.__slots__}


# the compiled kernel keys its generator by the 32-bit words of abs(seed)
SEEDS = (*range(41), -1, -12_345, 2**32 + 7, 2**64 + 3, -(2**70) - 11)
LONG_SEEDS = (0, 2**64 + 3)  # for the schedules that take about a second in Python

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler (cc) on PATH: only the Python annealer runs")


@pytest.fixture
def fresh_kernel():
    """The kernel is tried once per process: forget it before and after."""
    anneal._kernel.cache_clear()
    yield
    anneal._kernel.cache_clear()


class TestAnnealConfig:
    @pytest.mark.parametrize("mode,field,value", [
        ("open", "seed_handoff_length", 16), ("open", "seed_handoff_length", -3),
    ])
    def test_lengths_outside_the_code_are_rejected(self, mode, field, value):
        with pytest.raises(ValueError):
            AnnealConfig(n=4, mode=mode, **{field: value})

    @pytest.mark.parametrize("mode,length", [("open", 15), ("cyclic", 16), ("cyclic", 0)])
    def test_lengths_within_the_code_are_accepted(self, mode, length):
        AnnealConfig(n=4, mode=mode, seed_handoff_length=length)

    @pytest.mark.parametrize("n,length,handoff", [
        (1, None, 1), (2, None, 3), (3, None, 5), (6, None, 40), (7, None, 80), (4, 0, 0),
    ])
    def test_handoff(self, n, length, handoff):
        # 2**n - 1 below three bits, 5/8 of the words from there on
        assert AnnealConfig(n=n, seed_handoff_length=length).handoff == handoff

    @pytest.mark.parametrize("n", [0, 25])
    def test_n_outside_the_range_is_rejected(self, n):
        with pytest.raises(ValueError):
            AnnealConfig(n=n)

    @pytest.mark.parametrize("seed", [1.0, "1", None])
    def test_seed_must_be_an_int(self, seed):
        # random.Random would hash it
        with pytest.raises(ValueError):
            AnnealConfig(n=4, rng_seed=seed)


class TestAnnealPartial:
    def test_one_bit_completes_immediately(self):
        result = anneal_partial(AnnealConfig(n=1, mode="open", rng_seed=0))
        assert result.symbols == (0,)

    def test_outputs_are_always_beckett_consistent(self):
        for seed in range(20):
            partial = annealed(AnnealConfig(n=4, mode="open", seed_handoff_length=12), seed)
            kind = classify_beckett(partial).kind
            assert kind in (BeckettKind.OPEN, BeckettKind.CYCLIC, BeckettKind.INCOMPLETE)

    def test_three_bit_open_success_band(self):
        # regression band: a generous schedule completes the 7-step code
        # for most seeds
        wins = 0
        for seed in range(30):
            cfg = AnnealConfig(n=3, mode="open", rng_seed=seed)
            result = anneal_partial(cfg)
            if len(result) == 7:
                wins += 1
        assert wins >= 24

    def test_deterministic(self):
        cfg = AnnealConfig(n=5, mode="cyclic", seed_handoff_length=24)
        assert annealed(cfg, 99) == annealed(cfg, 99)

    def test_state_is_left_at_the_returned_partial(self):
        # no 3-bit cyclic code exists, so the schedule runs to its floor;
        # with seed 1 it ends after accepting a move away from its best,
        # and the state must be rebuilt at that best (a recorded figure)
        best = parse_symbols(3, "0102101")
        assert anneal_partial(AnnealConfig(n=3, mode="cyclic", rng_seed=1)) == best
        state = anneal._anneal_py(3, 1, 8, 8)
        assert _fields(state) == _fields(SearchState.from_prefix(3, best))


class TestCompleteBacktrack:
    def test_table_prefix_completes_to_cyclic_code(self):
        full = parse_symbols(5, "01020132010432104342132340412304")
        prefix = TransitionSequence(5, full.symbols[:24])
        result = complete_backtrack(prefix, "cyclic")
        assert result.found is not None
        assert classify_beckett(result.found).kind is BeckettKind.CYCLIC

    def test_full_code_returned_unchanged(self):
        full = parse_symbols(5, "01020132010432104342132340412304")
        assert complete_backtrack(full, "cyclic").found == full

    def test_forced_dead_end_is_proven_impossible(self):
        result = complete_backtrack(parse_symbols(3, "00"), "open")
        assert result.found is None
        assert result.proven_impossible

    def test_budget_exhaustion_is_not_a_proof(self):
        result = complete_backtrack(TransitionSequence(5, ()), "cyclic", budget=10)
        assert result.found is None
        assert not result.proven_impossible

    @pytest.mark.parametrize("n,mode,base", [
        (5, "cyclic", 11), (5, "open", 3), (6, "cyclic", 1), (6, "open", 2),
    ])
    def test_prune_gives_the_unpruned_answer(self, n, mode, base):
        # the handoff prefix of every attempt of a hunt, up to its code
        config = AnnealConfig(n=n, mode=mode)
        handoff = config.handoff
        for attempt in itertools.count():
            partial = annealed(config, base * 1_000_003 + attempt)
            prefix = TransitionSequence(n, partial.symbols[:handoff])
            expected = unpruned_completion(prefix, mode)
            result = complete_backtrack(prefix, mode)
            assert (result.found, result.proven_impossible) == expected, attempt
            if result.found is not None:
                break

    def test_seven_bit_prefix_completes_within_the_default_budget(self):
        # the unpruned walk finds nothing here within 3,000,000 nodes
        code = next(e.seq for e in load_fixtures() if e.n == 7 and e.mode == "cyclic")
        budget = AnnealConfig(n=7).completion_budget
        result = complete_backtrack(TransitionSequence(7, code.symbols[:80]), "cyclic", budget)
        assert result.found is not None and result.nodes <= budget
        assert classify_beckett(result.found).kind is BeckettKind.CYCLIC

    @pytest.mark.parametrize("n,mode", [(3, "open"), (4, "open"), (5, "cyclic")])
    def test_empty_prefix_matches_first_enumeration(self, n, mode):
        first = []
        enumerate_beckett(
            SearchConfig(n, mode),
            lambda k, s: first.append(s) if not first else None,
        )
        result = complete_backtrack(TransitionSequence(n, ()), mode)
        assert result.found == first[0]


class TestHunt:
    def test_finds_six_bit_cyclic_code_quickly(self):
        result = hunt(AnnealConfig(n=6, mode="cyclic", rng_seed=1))
        assert result.found is not None
        assert classify_beckett(result.found).kind is BeckettKind.CYCLIC
        assert result.elapsed < 60

    def test_three_bit_cyclic_is_never_found(self):
        result = hunt(AnnealConfig(n=3, mode="cyclic", rng_seed=0, restarts=50))
        assert result.found is None
        # and exhaustion proves impossibility outright
        proof = complete_backtrack(TransitionSequence(3, ()), "cyclic")
        assert proof.found is None and proof.proven_impossible

    @pytest.mark.parametrize("mode,seed,attempts,found", [
        ("cyclic", 11, 14, "41203414202304241302413102310131"),
        ("open", 22, 1, "4032140432314104321034023102101"),
    ])
    def test_random_stream_is_pinned(self, mode, seed, attempts, found):
        # recorded figures: a change to the random draws shows here
        result = hunt(AnnealConfig(n=5, mode=mode, rng_seed=seed))
        assert (str(result.found), result.attempts, result.winning_seed) == (
            found, attempts, seed * 1_000_003 + attempts - 1)

    def test_six_bit_stream_is_pinned(self):
        # recorded before the completion's degree prune, which changed none of it
        result = hunt(AnnealConfig(n=6, mode="cyclic", rng_seed=1))
        assert (str(result.found), result.attempts, result.winning_seed,
                result.best_partial_length) == (
            "0431050431324515032024153054203251435021312515425340134021314231",
            874, 1_000_876, 64)

    @pytest.mark.parametrize("n,restarts", [(4, 40), (5, 400)])
    @pytest.mark.parametrize("mode", ["cyclic", "open"])
    def test_handoff_is_the_replayed_prefix(self, n, restarts, mode):
        # the completion from the annealer's own state must match the one
        # from a replay of the handoff prefix, attempt for attempt; no
        # 4-bit cyclic code exists, so those hunts run every attempt
        for base in range(4):
            config = AnnealConfig(n=n, mode=mode, rng_seed=base, restarts=restarts)
            result = hunt(config)
            assert (result.found, result.attempts, result.winning_seed,
                    result.best_partial_length) == replayed_hunt(config)

    @pytest.mark.parametrize("n,mode,seed,handoff,expected", [
        (4, "open", 1, 0, ("023102321320132", 1, 1_000_003, 15)),
        (4, "open", 1, 15, ("023102321320132", 1, 1_000_003, 15)),
        (4, "open", 1, 8, ("201320121320132", 3, 1_000_005, 15)),
        (5, "cyclic", 3, 16, ("40213404212314240312403012301030", 35, 3_000_043, 32)),
        (1, "cyclic", 1, None, ("00", 1, 1_000_003, 2)),
        (1, "open", 1, None, ("0", 1, 1_000_003, 1)),
        (2, "cyclic", 1, None, ("1010", 1, 1_000_003, 4)),
        (2, "open", 1, None, ("101", 1, 1_000_003, 3)),
    ])
    def test_handoff_stream_is_pinned(self, n, mode, seed, handoff, expected):
        # recorded figures for an explicit handoff (0 anneals the full
        # schedule) and for the n < 3 default of 2**n - 1
        result = hunt(AnnealConfig(n=n, mode=mode, rng_seed=seed, seed_handoff_length=handoff))
        assert (str(result.found), result.attempts, result.winning_seed,
                result.best_partial_length) == expected

    def test_deterministic(self):
        cfg = AnnealConfig(n=5, mode="cyclic", rng_seed=12, restarts=500)
        a, b = hunt(cfg), hunt(cfg)
        assert (a.found, a.attempts, a.winning_seed) == (b.found, b.attempts, b.winning_seed)


@needs_cc
class TestCompiledAnnealer:
    """The kernel against its Python twin, and the pinned streams on it."""

    @pytest.fixture(autouse=True)
    def compiled(self):
        assert anneal._kernel() is not anneal._hunt_py

    @pytest.mark.parametrize("mode", ["cyclic", "open"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_python_annealer(self, n, mode):
        # anneal_partial's one-node completion hands back the annealer's own
        # partial: the kernel's is the one the Python annealer ends at
        for seed in LONG_SEEDS:
            config = AnnealConfig(n=n, mode=mode, rng_seed=seed)
            length = config.complete_length
            assert anneal_partial(config).symbols == python_partial(n, seed, length, length)

    @pytest.mark.parametrize("mode", ["cyclic", "open"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_python_attempt(self, n, mode, monkeypatch):
        # the whole (attempts, longest partial, code or last best partial,
        # nodes, outcome) of each call on both paths, for batches of 1 and 7
        # attempts; budgets 1 to 3 stop many completions (1 at the
        # code-length handoff is anneal_partial's call), the default
        # handoff's and the full code's take at most 404 nodes, but from a
        # handoff of 0 or 1 an unlimited walk runs for minutes in Python from
        # n = 6 on
        config = AnnealConfig(n=n, mode=mode)
        length = config.complete_length
        calls = [(seed, count, handoff, budget)
                 for handoff, seeds, counts in ((config.handoff, SEEDS, (1, 7)),
                                                (0, LONG_SEEDS, (1,)), (1, SEEDS, (1, 7)),
                                                (length, LONG_SEEDS, (1,)))
                 for budget in ((1, 2, 3, 50) if n > 5 and handoff in (0, 1) else (1, 2, 3, 50, 0))
                 for seed in seeds for count in counts]
        compiled = [anneal._kernel()(n, seed, count, length, handoff, budget)
                    for seed, count, handoff, budget in calls]
        # the twin, with each partial annealed once for all the budgets and tests
        monkeypatch.setattr(anneal, "_anneal_py", lambda *key: SearchState.from_prefix(
            key[0], python_partial(*key)))
        for (seed, count, handoff, budget), got in zip(calls, compiled):
            assert anneal._hunt_py(n, seed, count, length, handoff, budget) == got, (
                seed, count, handoff, budget)
        # best partials and whole batches too
        assert n < 3 or any(outcome < 1 for *_, outcome in compiled) and any(
            made == 7 for made, *_ in compiled)

    @pytest.mark.parametrize("first,count", [
        (-3, 8),  # crosses 0
        (2**32 - 3, 6),  # the key grows from one word to two
        (-(2**32) - 2, 4),  # and shrinks from two to one
        (2**64 - 2, 4),
    ])
    @pytest.mark.parametrize("n,mode", [(4, "open"), (5, "cyclic"), (5, "open")])
    def test_batch_seeds_step_as_ints(self, first, count, n, mode):
        # every prefix of the batch on both paths, so each seed in it is the
        # last attempt's once; budget 1 runs them all, no budget may stop early
        config = AnnealConfig(n=n, mode=mode)
        for budget in (1, 0):
            for c in range(1, count + 1):
                call = n, first, c, config.complete_length, config.handoff, budget
                assert anneal._kernel()(*call) == anneal._hunt_py(*call), (budget, c)

    @pytest.mark.parametrize("n,mode,base,restarts", [
        (5, "cyclic", -1, 200), (5, "open", -2, 200), (6, "cyclic", -3, 100),
        (4, "open", -(2**40), 200), (3, "cyclic", 0, anneal._CHUNK + 3),
    ])
    def test_hunt_matches_the_python_hunt(self, n, mode, base, restarts, monkeypatch):
        # negative base seeds, and a 3-bit cyclic hunt that never finds a
        # code and so runs two batches
        config = AnnealConfig(n=n, mode=mode, rng_seed=base, restarts=restarts)
        compiled = hunt(config)
        monkeypatch.setattr(anneal, "_kernel", lambda: anneal._hunt_py)
        python = hunt(config)
        assert (compiled.found, compiled.attempts, compiled.winning_seed,
                compiled.best_partial_length) == (
            python.found, python.attempts, python.winning_seed, python.best_partial_length)

    test_random_stream_is_pinned = TestHunt.test_random_stream_is_pinned
    test_six_bit_stream_is_pinned = TestHunt.test_six_bit_stream_is_pinned
    test_handoff_stream_is_pinned = TestHunt.test_handoff_stream_is_pinned
    test_state_is_left_at_the_returned_partial = (
        TestAnnealPartial.test_state_is_left_at_the_returned_partial)


class TestPythonAnnealer:
    """The pinned streams on the Python twin, the kernel's reference."""

    @pytest.fixture(autouse=True)
    def python(self, monkeypatch):
        monkeypatch.setattr(anneal, "_kernel", lambda: anneal._hunt_py)

    test_random_stream_is_pinned = TestHunt.test_random_stream_is_pinned
    test_six_bit_stream_is_pinned = TestHunt.test_six_bit_stream_is_pinned
    test_handoff_stream_is_pinned = TestHunt.test_handoff_stream_is_pinned
    test_state_is_left_at_the_returned_partial = (
        TestAnnealPartial.test_state_is_left_at_the_returned_partial)


def test_illegal_kernel_partial_is_an_error(monkeypatch):
    # 0 then 0 dequeues back to word 0 before every word is visited: as the
    # best partial (no completion) and as the code an attempt found
    monkeypatch.setattr(anneal, "_kernel", lambda: lambda n, first, count, length, handoff,
                        budget: (1, 2, bytes(length), 1, 1))
    for call in (lambda: anneal_partial(AnnealConfig(n=3)), lambda: hunt(AnnealConfig(n=3))):
        with pytest.raises(RuntimeError, match="illegal sequence") as raised:
            call()
        assert isinstance(raised.value.__cause__, ValueError)


@pytest.mark.parametrize("restarts,wins", [
    (2 * anneal._CHUNK + 5, None), (2 * anneal._CHUNK + 5, anneal._CHUNK + 2),
    (anneal._CHUNK, anneal._CHUNK - 1), (3, 0),
])
def test_hunt_asks_for_each_seed_once_in_order(restarts, wins, monkeypatch):
    # a fake kernel that records the seeds of each batch and finds the
    # 1-bit cyclic code 00 at attempt wins, if any
    base, batches = -2, []
    win = None if wins is None else base * 1_000_003 + wins

    def run(n, first, count, length, handoff, budget):
        batches.append(range(first, first + count))
        if win in batches[-1]:
            return win - first + 1, 2, b"\0\0", 2, 1
        return count, 1, b"\0\0", count, 0

    monkeypatch.setattr(anneal, "_kernel", lambda: run)
    result = hunt(AnnealConfig(n=1, rng_seed=base, restarts=restarts))
    asked = [seed for batch in batches for seed in batch]
    end = restarts if wins is None else min(restarts, (wins // anneal._CHUNK + 1) * anneal._CHUNK)
    assert asked == list(range(base * 1_000_003, base * 1_000_003 + end))
    assert all(len(batch) <= anneal._CHUNK for batch in batches)
    assert (result.attempts, result.winning_seed) == (
        (restarts, None) if wins is None else (wins + 1, win))
    assert str(result.found) == ("None" if wins is None else "00")


@pytest.mark.parametrize("broken", ["no-cc", "failing-cc", "unwritable-cache"])
def test_hunt_falls_back_when_the_kernel_cannot_be_built(broken, fresh_kernel, monkeypatch,
                                                          tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if broken == "unwritable-cache":
        (tmp_path / "cache").write_text("a file where the cache directory should be")
    else:
        monkeypatch.setenv("PATH", str(tmp_path))
        if broken == "failing-cc":
            (tmp_path / "cc").write_text("#!/bin/sh\nexit 1\n")
            (tmp_path / "cc").chmod(0o755)
    builds = []
    build = anneal._build
    monkeypatch.setattr(anneal, "_build", lambda: builds.append(1) or build())
    for _ in range(2):
        result = hunt(AnnealConfig(n=5, mode="cyclic", rng_seed=11))
        assert (str(result.found), result.attempts) == ("41203414202304241302413102310131", 14)
    assert anneal._kernel() is anneal._hunt_py
    assert builds == [1]
    if broken != "unwritable-cache":
        assert not any((tmp_path / "cache" / "beckettgray").iterdir())  # no half-built library


def test_relative_cache_home_is_ignored(monkeypatch, tmp_path):
    # the XDG spec makes a relative XDG_CACHE_HOME invalid: ~/.cache is used
    # instead, not a directory below wherever the process runs
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    monkeypatch.setenv("PATH", str(tmp_path))  # no cc: the directory is made, nothing built
    with pytest.raises(OSError):
        anneal._build()
    assert (tmp_path / "home" / ".cache" / "beckettgray").is_dir()
    assert list((tmp_path / "cwd").iterdir()) == []


def test_import_loads_no_kernel_machinery():
    # the kernel is built and loaded on first use; these imported with the
    # package would cost every caller set-up time, and hashlib alone 3.6 MB
    code = "import sys, beckettgray; print(*{'ctypes', 'subprocess', 'hashlib'} & sys.modules.keys())"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(anneal.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == []
