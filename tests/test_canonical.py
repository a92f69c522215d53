import itertools
import random

import pytest

from beckettgray.beckett import BeckettKind, classify_beckett
from beckettgray.canonical import (
    IncompleteAlphabetError,
    IncomparableCodesError,
    are_isomorphic_beckett,
    canonicalize,
    relabel_first_occurrence,
    reverse_seq,
    self_reverse_witness,
)
from beckettgray.core import TransitionSequence, WordPath, apply_transitions, parse_symbols
from beckettgray.fixtures import load_fixtures
from beckettgray.search import SearchConfig, enumerate_beckett, enumerate_gray_cycles_small
from beckettgray.stacks import brgc


def relabel_oracle(n, symbols):
    return min(
        tuple(perm[s] for s in symbols) for perm in itertools.permutations(range(n))
    )


def self_reverse_oracle(path, allow_addition):
    """Brute force: every relabeling (lexicographic), then every rotation."""
    n = path.n
    cycle = path.words[:-1]
    size = len(cycle)
    rev = [cycle[(-i) % size] for i in range(size)]
    for perm in itertools.permutations(range(n)):
        image = [sum(1 << perm[p] for p in range(n) if w >> p & 1) for w in cycle]
        for r in range(size):
            added = rev[r]
            if added and not allow_addition:
                continue
            if all(image[i] ^ added == rev[(i + r) % size] for i in range(size)):
                return perm, r, added or None
    return None


def closed_brgc(n):
    return WordPath(n, brgc(n).words + (0,))


def collect(n, mode="both"):
    out = []
    enumerate_beckett(SearchConfig(n, mode), lambda k, s: out.append(s))
    return out


class TestRelabelFirstOccurrence:
    def test_against_brute_force_oracle(self):
        s = parse_symbols(3, "1012010")
        assert relabel_first_occurrence(s).symbols == relabel_oracle(3, s.symbols)
        assert str(relabel_first_occurrence(s)) == "0102101"

    def test_fixed_point(self):
        s = parse_symbols(3, "0102101")
        assert relabel_first_occurrence(s) == s

    def test_oracle_on_2120212(self):
        s = parse_symbols(3, "2120212")
        expected = relabel_oracle(3, s.symbols)
        assert relabel_first_occurrence(s).symbols == expected == (0, 1, 0, 2, 0, 1, 0)

    def test_missing_position_rejected(self):
        with pytest.raises(IncompleteAlphabetError):
            relabel_first_occurrence(parse_symbols(3, "0101"))

    def test_output_is_restricted_growth(self):
        rng = random.Random(3)
        for _ in range(50):
            symbols = [rng.randrange(4) for _ in range(20)]
            if len(set(symbols)) < 4:
                continue
            image = relabel_first_occurrence(TransitionSequence(4, tuple(symbols)))
            seen = 0
            for x in image.symbols:
                assert x <= seen
                seen = max(seen, x + 1)


class TestReverseSeq:
    def test_literal_reversal(self):
        assert str(reverse_seq(parse_symbols(3, "0102101"))) == "1012010"
        assert str(reverse_seq(parse_symbols(2, "0101"))) == "1010"

    def test_cyclic_code_reversals_stay_cyclic(self):
        for s in collect(5, "cyclic"):
            assert classify_beckett(reverse_seq(s)).kind is BeckettKind.CYCLIC


class TestCanonicalize:
    def test_three_bit_code_is_canonical(self):
        s = parse_symbols(3, "0102101")
        assert canonicalize(s) == s

    def test_permuted_image_canonicalizes_back(self):
        s = parse_symbols(4, "012301202301230")
        image = TransitionSequence(4, tuple({0: 3, 1: 2, 2: 0, 3: 1}[x] for x in s.symbols))
        assert canonicalize(image) == s

    def test_first_five_bit_code_is_canonical(self):
        s = parse_symbols(5, "01020132010432104342132340412304")
        assert canonicalize(s) == s

    def test_idempotent_on_all_small_codes(self):
        for n in (1, 2, 3, 4, 5):
            for s in collect(n):
                c = canonicalize(s)
                assert canonicalize(c) == c

    def test_invariance_under_random_relabelings(self):
        rng = random.Random(11)
        for n in (3, 4):
            for s in collect(n):
                for _ in range(10):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    image = TransitionSequence(n, tuple(perm[x] for x in s.symbols))
                    assert canonicalize(image) == canonicalize(s)

    def test_invariance_under_reversal_when_reversal_is_a_code(self):
        for n in (4, 5):
            for s in collect(n):
                rev = reverse_seq(s)
                if classify_beckett(rev).kind in (BeckettKind.OPEN, BeckettKind.CYCLIC):
                    assert canonicalize(rev) == canonicalize(s)


class TestIsomorphismWitness:
    def test_witness_between_code_and_its_reversal_image(self):
        a = parse_symbols(3, "0102101")
        b = parse_symbols(3, "1012010")
        w = are_isomorphic_beckett(a, b)
        assert w is not None
        source = a.symbols[::-1] if w.reversed else a.symbols
        assert tuple(w.rho[x] for x in source) == b.symbols
        assert w.added_word is None

    def test_identity_witness(self):
        a = parse_symbols(3, "0102101")
        w = are_isomorphic_beckett(a, a)
        assert w is not None and not w.reversed
        assert w.rho == (0, 1, 2)

    def test_distinct_classes_have_no_witness(self):
        a = parse_symbols(4, "010213202313020")
        b = parse_symbols(4, "012301213210321")
        assert are_isomorphic_beckett(a, b) is None

    def test_mode_mismatch_is_incomparable(self):
        a = parse_symbols(2, "0101")
        b = parse_symbols(2, "010")
        with pytest.raises(IncomparableCodesError):
            are_isomorphic_beckett(a, b)

    def test_enumerated_codes_pairwise_non_isomorphic(self):
        for n in (3, 4):
            codes = collect(n)
            for a, b in itertools.combinations(codes, 2):
                if len(a) == len(b):
                    assert are_isomorphic_beckett(a, b) is None


class TestSelfReverse:
    def test_no_witness_for_any_three_bit_cycle(self):
        for path in enumerate_gray_cycles_small(3):
            assert self_reverse_witness(path, allow_addition=False) is None

    def test_brgc_self_reverse_with_addition(self):
        for n in (3, 4):
            path = brgc(n)
            closed = WordPath(n, path.words + (0,))
            w = self_reverse_witness(closed, allow_addition=True)
            assert w is not None
            assert w.added_word == 1 << (n - 1)

    def test_one_bit_cycle_self_reverse_without_addition(self):
        path = WordPath(1, (0, 1, 0))
        assert self_reverse_witness(path, allow_addition=False) is not None

    def test_witness_matches_brute_force_oracle(self):
        cycles = [c for n in (1, 2, 3, 4) for c in enumerate_gray_cycles_small(n)]
        cycles += [closed_brgc(n) for n in range(1, 8)]
        cycles += [
            apply_transitions(0, f.seq)
            for f in load_fixtures()
            if f.mode == "cyclic" and f.n <= 7
        ]
        for path in cycles:
            for allow in (False, True):
                w = self_reverse_witness(path, allow_addition=allow)
                got = None if w is None else (w.rho, w.rotation, w.added_word)
                assert got == self_reverse_oracle(path, allow), (path, allow)
                assert w is None or w.reversed

    def test_brgc_past_eight_bits(self):
        for n in (10, 12):
            path = closed_brgc(n)
            assert self_reverse_witness(path, allow_addition=False) is None
            w = self_reverse_witness(path, allow_addition=True)
            assert w is not None
            assert w.added_word == 1 << (n - 1)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            self_reverse_witness(WordPath(9, (0,)), allow_addition=False)

    def test_non_cyclic_input_rejected(self):
        with pytest.raises(ValueError):
            self_reverse_witness(brgc(3), allow_addition=False)
