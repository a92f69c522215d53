import itertools

import pytest

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


class TestAnnealConfig:
    @pytest.mark.parametrize("mode,field,value", [
        ("open", "seed_handoff_length", 16), ("open", "seed_handoff_length", -3),
        ("cyclic", "target_length", 17), ("cyclic", "target_length", -1),
    ])
    def test_lengths_outside_the_code_are_rejected(self, mode, field, value):
        with pytest.raises(ValueError):
            AnnealConfig(n=4, mode=mode, **{field: value})

    @pytest.mark.parametrize("mode,length", [("open", 15), ("cyclic", 16), ("cyclic", 0)])
    def test_lengths_within_the_code_are_accepted(self, mode, length):
        AnnealConfig(n=4, mode=mode, seed_handoff_length=length, target_length=length)


class TestAnnealPartial:
    def test_one_bit_completes_immediately(self):
        result = anneal_partial(AnnealConfig(n=1, mode="open", rng_seed=0))
        assert result.symbols == (0,)

    def test_outputs_are_always_beckett_consistent(self):
        for seed in range(20):
            partial = anneal_partial(
                AnnealConfig(n=4, mode="open", rng_seed=seed, target_length=12)
            )
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
        cfg = AnnealConfig(n=5, mode="cyclic", rng_seed=99, target_length=24)
        assert anneal_partial(cfg) == anneal_partial(cfg)


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
        handoff = AnnealConfig(n=n, mode=mode).handoff
        for attempt in itertools.count():
            partial = anneal_partial(AnnealConfig(
                n=n, mode=mode, rng_seed=base * 1_000_003 + attempt, target_length=handoff))
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

    def test_deterministic(self):
        cfg = AnnealConfig(n=5, mode="cyclic", rng_seed=12, restarts=500)
        a, b = hunt(cfg), hunt(cfg)
        assert (a.found, a.attempts, a.winning_seed) == (b.found, b.attempts, b.winning_seed)
