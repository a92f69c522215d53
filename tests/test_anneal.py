import pytest

from beckettgray.anneal import (
    AnnealConfig,
    anneal_partial,
    complete_backtrack,
    hunt,
)
from beckettgray.beckett import BeckettKind, classify_beckett
from beckettgray.core import TransitionSequence, parse_symbols
from beckettgray.search import SearchConfig, enumerate_beckett


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

    def test_deterministic(self):
        cfg = AnnealConfig(n=5, mode="cyclic", rng_seed=12, restarts=500)
        a, b = hunt(cfg), hunt(cfg)
        assert (a.found, a.attempts, a.winning_seed) == (b.found, b.attempts, b.winning_seed)
