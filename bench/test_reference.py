"""Hand-worked cases for the benchmark's reference checker.

Run with ``python3 -m pytest bench/test_reference.py``.
"""

from itertools import permutations

import inputs
import reference

OPEN_N3 = (0, 1, 0, 2, 1, 0, 1)  # the paper's n = 3 open code 0102101


def test_open_code_n3_is_open_beckett():
    assert reference.gray_kind(3, OPEN_N3) == ("open-gray", None)
    assert reference.beckett_kind(3, OPEN_N3) == ("open-beckett", None)
    assert not reference.closable(OPEN_N3)  # it ends at 111


def test_open_code_n3_queue_states():
    # words 000 001 011 010 110 100 101 111; the queue lists set bits oldest first
    states, violation = reference.queue_states(OPEN_N3)
    assert violation is None
    assert states == [(), (0,), (0, 1), (1,), (1, 2), (2,), (2, 0), (2, 0, 1)]


def test_open_code_n3_is_least_and_its_images_lead_back():
    assert reference.least_image(3, OPEN_N3) == OPEN_N3
    image = reference.apply_witness(OPEN_N3, (2, 0, 1), True)
    assert image == (0, 2, 0, 1, 2, 0, 2)
    assert reference.least_image(3, image) == OPEN_N3


def test_cyclic_closures():
    assert reference.beckett_kind(1, (0, 0)) == ("cyclic-beckett", None)
    assert reference.gray_kind(2, (0, 1, 0, 1)) == ("cyclic-gray", None)
    assert reference.beckett_kind(2, (0, 1, 0, 1)) == ("cyclic-beckett", None)
    # a return to 0 before the end is a repeat
    assert reference.gray_kind(2, (0, 0, 1)) == ("invalid", 1)


def test_mutant_with_queue_violation():
    # 0120 is consistent (word 110); changing its last symbol to 1 clears
    # bit 1 while bit 0 is the queue front, at the fresh word 101
    assert reference.beckett_kind(4, (0, 1, 2, 0))[0] == "incomplete-beckett"
    assert reference.beckett_kind(4, (0, 1, 2, 1)) == ("not-beckett", (3, 1, 0))
    assert reference.queue_states((0, 1, 2, 1)) == (None, (3, 1, 0))


def test_mutant_with_repeated_word():
    # 0102101 with step 4 changed to 0: step 5 returns to 110 (step 3);
    # the repeat wins over any queue check at that step
    mutant = (0, 1, 0, 2, 0, 0, 1)
    assert reference.gray_kind(3, mutant) == ("invalid", 5)
    assert reference.beckett_kind(3, mutant) == ("not-gray", 5)


def test_brgc_n3_two_stack_states():
    words = reference.brgc_words(3)
    assert words == [0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100]
    states, violation = reference.two_stack_states(words)
    assert violation is None
    assert states == [
        ((), ()),
        ((0,), ()),
        ((0,), (1,)),
        ((), (1,)),
        ((2,), (1,)),
        ((2, 0), (1,)),
        ((2, 0), ()),
        ((2,), ()),
    ]


def test_two_stack_violation():
    # 000 001 011 111 110: clearing bit 0 while bit 2 is on the even stack's top
    assert reference.two_stack_states([0, 1, 3, 7, 6]) == (None, (3, 0, 2))


def test_brgc_self_reverse_only_with_addition():
    cycle = reference.brgc_words(3)
    assert reference.maps_cycle_onto_reversal(cycle, (0, 1, 2), 0b100, 1)
    assert not any(
        reference.maps_cycle_onto_reversal(cycle, rho, 0, r)
        for rho in permutations(range(3))
        for r in range(len(cycle))
    )


def test_small_enumeration_matches_the_paper():
    for n in range(1, 5):
        codes, nodes = reference.enumerate_codes(n)
        assert len(codes["cyclic"]) == inputs.PAPER_CYCLIC[n]
        strict = [c for c in codes["open"] if not reference.closable(c)]
        assert len(strict) == inputs.PAPER_STRICT_OPEN[n]
        assert nodes == inputs.TREE_SIZES[n]
    assert reference.enumerate_codes(3)[0]["open"] == [OPEN_N3]


def test_code_file_passes_its_checks():
    listed = inputs.load_codes()
    assert listed.counts(5) == (8, 132, 116)
