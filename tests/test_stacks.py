import random
from collections import deque

import pytest

from beckettgray import stacks
from beckettgray.core import (
    GrayKind,
    MalformedSequenceError,
    NotAGrayStepError,
    WordPath,
    apply_transitions,
    classify_gray,
    parse_symbols,
    transitions_of,
)
from beckettgray.stacks import (
    PopNotTop,
    PopNotTopError,
    TwoStackState,
    brgc,
    is_two_stack_realizable,
    two_stack_trace,
)

# published two-stack table, n=2 block: (word, even stack, odd stack)
TABLE_TWO_BIT = [
    (0b00, (), ()),
    (0b01, (0,), ()),
    (0b11, (0,), (1,)),
    (0b10, (), (1,)),
]

# n=3 block; stacks are bottom-to-top tuples
TABLE_THREE_BIT = [
    (0b000, (), ()),
    (0b001, (0,), ()),
    (0b011, (0,), (1,)),
    (0b010, (), (1,)),
    (0b110, (2,), (1,)),
    (0b111, (2, 0), (1,)),
    (0b101, (2, 0), ()),
    (0b100, (2,), ()),
]


class TestBrgc:
    def test_two_bits(self):
        assert brgc(2).words == (0b00, 0b01, 0b11, 0b10)

    def test_three_bits(self):
        assert brgc(3).words == (0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100)

    def test_one_bit(self):
        assert brgc(1).words == (0, 1)

    def test_is_open_gray_with_cyclic_closure(self):
        for n in (2, 3, 6):
            path = brgc(n)
            assert classify_gray(transitions_of(path)).kind is GrayKind.OPEN
            closed = WordPath(n, path.words + (0,))
            assert classify_gray(transitions_of(closed)).kind is GrayKind.CYCLIC


class TestTwoStackTrace:
    def test_matches_published_two_bit_block(self):
        states = two_stack_trace(brgc(2))
        assert [(w, s.even_stack, s.odd_stack) for w, s in zip(brgc(2).words, states)] \
            == TABLE_TWO_BIT

    def test_matches_published_three_bit_block(self):
        states = two_stack_trace(brgc(3))
        assert [(w, s.even_stack, s.odd_stack) for w, s in zip(brgc(3).words, states)] \
            == TABLE_THREE_BIT

    def test_forced_violation(self):
        path = WordPath(3, (0b000, 0b001, 0b011, 0b111, 0b110))
        with pytest.raises(PopNotTopError) as e:
            two_stack_trace(path)
        d = e.value.diagnostics
        assert (d.step, d.position, d.top) == (3, 0, 2)

    def test_state_count(self):
        assert len(two_stack_trace(brgc(3))) == 8

    def test_parity_partition_invariant(self):
        path = brgc(5)
        for word, state in zip(path.words, two_stack_trace(path)):
            assert all(p % 2 == 0 for p in state.even_stack)
            assert all(p % 2 == 1 for p in state.odd_stack)
            union = set(state.even_stack) | set(state.odd_stack)
            assert union == {p for p in range(5) if word >> p & 1}
            assert len(state.even_stack) + len(state.odd_stack) == len(union)


class TestRealizability:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_reflected_code_realizable_for_all_n(self, n):
        ok, diag = is_two_stack_realizable(brgc(n))
        assert ok and diag is None

    def test_three_bit_beckett_code_verdict_frozen(self):
        # frozen regression: the queue code's word path also passes the
        # two-stack discipline
        path = apply_transitions(0, parse_symbols(3, "0102101"))
        ok, _ = is_two_stack_realizable(path)
        assert ok

    def test_single_word_path(self):
        ok, _ = is_two_stack_realizable(WordPath(3, (0,)))
        assert ok

    def test_failure_carries_diagnostics(self):
        path = WordPath(3, (0b000, 0b001, 0b011, 0b111, 0b110))
        ok, diag = is_two_stack_realizable(path)
        assert not ok
        assert diag.step == 3

    @pytest.mark.parametrize("k", range(1, 20))
    def test_midpoint_structure(self, k):
        # in the (k+1)-bit code, the word before the top bit first flips is
        # exactly {k-1}; one stack holds just k-1, the other is empty
        path = brgc(k + 1)
        mid = path.words[(1 << k) - 1]
        assert mid == 1 << (k - 1)
        states = two_stack_trace(path)
        state = states[(1 << k) - 1]
        stacks = (state.even_stack, state.odd_stack)
        holder, other = (stacks[0], stacks[1]) if (k - 1) % 2 == 0 else (stacks[1], stacks[0])
        assert holder == (k - 1,)
        assert other == ()


class TestNotRealizable:
    # the reflected 6-bit code with bits 0 and 1 swapped: a Gray path that
    # breaks the parity-stack discipline; verdicts recorded at the step loop
    SWAPPED = WordPath(6, tuple((w & ~3) | (w & 1) << 1 | (w >> 1 & 1) for w in brgc(6).words))

    def test_verdict_carries_the_first_pop_not_on_top(self):
        assert is_two_stack_realizable(self.SWAPPED) == (False, PopNotTop(5, 0, 2))

    def test_trace_raises_the_same_diagnostics(self):
        with pytest.raises(PopNotTopError) as e:
            two_stack_trace(self.SWAPPED)
        assert e.value.diagnostics == PopNotTop(5, 0, 2)
        assert str(e.value) == "step 5: position 0 flipped 1->0 but even stack top is 2"

    def test_path_not_from_zero(self):
        with pytest.raises(ValueError, match="starts from the all-zero word"):
            is_two_stack_realizable(WordPath(3, (1, 3)))


class TestStateFormatting:
    def test_bottom_to_top_layout(self):
        state = TwoStackState((2, 0), (1,))
        assert str(state) == "even[2,0] odd[1]"


def stepped(path):
    """The verdict of stepping the whole path word by word."""
    try:
        deque(stacks._stack_steps(path), maxlen=0)
    except PopNotTopError as e:
        return False, e.diagnostics
    return True, None


def random_walk(rng, n):
    """A walk from 0 that keeps the stack discipline, but in most walks for
    one pop that misses the top.

    Below n = 3 no stack holds two positions, so no pop can miss the top.
    """
    word, live, words = 0, ([], []), [0]
    length = rng.randrange(1, 3 * (1 << n))
    breaking = rng.randrange(length) if rng.random() < 0.6 else length  # from this step on
    for i in range(length):
        clear = [p for p in range(n) if not word >> p & 1]
        tops = [stack[-1] for stack in live if stack]
        under = [p for stack in live for p in stack[:-1]]
        if i >= breaking and under:
            p, breaking = rng.choice(under), length
        elif tops and (not clear or rng.random() < 0.5):
            p = rng.choice(tops)
        else:
            p = rng.choice(clear)
        stack = live[p & 1]
        if p in stack:
            stack.remove(p)
        else:
            stack.append(p)
        word ^= 1 << p
        words.append(word)
    return WordPath(n, tuple(words))


class TestPassesAgreeWithTheStepper:
    def test_seeded_random_walks(self):
        rng = random.Random(12)
        outcomes = []
        for n in range(1, 9):
            for _ in range(60):
                path = random_walk(rng, n)
                expected = stepped(path)
                assert is_two_stack_realizable(path) == expected, path
                outcomes.append(expected[0])
        assert 0.3 < outcomes.count(False) / len(outcomes) < 0.6

    def test_steps_that_carry_or_borrow_are_not_one_flip(self):
        # each difference is +-2**p, but 1 -> 2 carries and 2 -> 1 borrows
        rng = random.Random(5)
        for words in [(0, 1, 2), (0, 2, 1), (0, 1, 2, 3), (0, 1, 3, 4, 0)] + [
            random_walk(rng, 4).words + (w,) for w in (0, 8, 15) for _ in range(5)
        ]:
            path = WordPath(4, words)
            if all(bin(a ^ b).count("1") == 1 for a, b in zip(words, words[1:])):
                continue
            with pytest.raises(NotAGrayStepError) as e:
                is_two_stack_realizable(path)
            with pytest.raises(NotAGrayStepError) as expected:
                transitions_of(path)
            assert (e.value.index, str(e.value)) == (expected.value.index, str(expected.value))

    def test_the_top_positions_at_24_bits(self):
        # tokens 22, 23, 22 | 32 and 23 | 32: the largest there are
        path = WordPath(24, (0, 1 << 22, 3 << 22, 1 << 23, 0))
        assert is_two_stack_realizable(path) == (True, None) == stepped(path)
        broken = WordPath(24, (0, 1 << 23, 1 << 23 | 1 << 21, 1 << 21))
        assert is_two_stack_realizable(broken) == (False, PopNotTop(2, 23, 21)) == stepped(broken)

    def test_a_start_other_than_zero_wins_over_a_bad_step(self):
        with pytest.raises(ValueError, match="starts from the all-zero word"):
            is_two_stack_realizable(WordPath(3, (1, 6)))

    def test_a_bad_step_wins_over_an_earlier_pop_not_on_top(self):
        # step 2 pops 0 from under 2; step 3 flips two bits
        path = WordPath(3, (0b000, 0b001, 0b101, 0b100, 0b111))
        with pytest.raises(NotAGrayStepError) as e:
            is_two_stack_realizable(path)
        assert e.value.index == 3
        assert str(e.value) == "words at steps 3 and 4 differ in 2 bits (0x4 vs 0x7)"

    def test_empty_path(self):
        with pytest.raises(MalformedSequenceError, match="empty word path"):
            is_two_stack_realizable(WordPath(3, ()))


class TestOnlyAFailureIsStepped:
    def test_a_realizable_path_is_never_stepped(self, monkeypatch):
        def no_stepping(path):
            raise RuntimeError("stepped")

        monkeypatch.setattr(stacks, "_stack_steps", no_stepping)
        assert is_two_stack_realizable(brgc(12)) == (True, None)
        with pytest.raises(RuntimeError, match="stepped"):
            is_two_stack_realizable(TestNotRealizable.SWAPPED)
