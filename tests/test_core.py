import io

import pytest
from hypothesis import given, strategies as st

from beckettgray.core import (
    GrayKind,
    MalformedSequenceError,
    NotAGrayStepError,
    TransitionSequence,
    WordPath,
    apply_transitions,
    classify_gray,
    format_symbols,
    parse_symbols,
    read_sequence_file,
    transitions_of,
    write_sequence_block,
)


def seq(n, text):
    return parse_symbols(n, text)


class TestApplyTransitions:
    def test_three_bit_code_word_column(self):
        path = apply_transitions(0, seq(3, "0102101"))
        assert path.words == (0b000, 0b001, 0b011, 0b010, 0b110, 0b100, 0b101, 0b111)

    def test_empty_sequence(self):
        path = apply_transitions(0, TransitionSequence(2, ()))
        assert path.words == (0,)

    def test_double_flip_returns_to_start(self):
        path = apply_transitions(0, seq(3, "00"))
        assert path.words == (0b000, 0b001, 0b000)

    def test_symbol_out_of_range_rejected(self):
        with pytest.raises(MalformedSequenceError):
            TransitionSequence(3, (0, 3))

    def test_start_out_of_range_rejected(self):
        with pytest.raises(MalformedSequenceError):
            apply_transitions(8, seq(3, "01"))


class TestTransitionsOf:
    def test_read_off_flipped_bits(self):
        assert transitions_of(WordPath(3, (0b000, 0b001, 0b011))).symbols == (0, 1)

    def test_table_word_column_roundtrip(self):
        words = (0b000, 0b001, 0b011, 0b010, 0b110, 0b100, 0b101, 0b111)
        assert transitions_of(WordPath(3, words)).symbols == tuple(
            seq(3, "0102101").symbols
        )

    def test_two_bit_jump_is_an_error(self):
        with pytest.raises(NotAGrayStepError) as e:
            transitions_of(WordPath(3, (0b000, 0b011)))
        assert e.value.index == 0

    def test_equal_words_is_an_error(self):
        with pytest.raises(NotAGrayStepError):
            transitions_of(WordPath(3, (0b001, 0b001)))


# Error reports of the checks below, recorded from the per-word loops they
# replaced; the fast paths must report the first bad element the same way.
class TestErrorReports:
    BRGC6 = tuple(i ^ (i >> 1) for i in range(64))

    @pytest.mark.parametrize("words, index, a, b, message", [
        pytest.param(BRGC6[:21] + BRGC6[20:], 20, 0x1e, 0x1e,
                     "words at steps 20 and 21 differ in 0 bits (0x1e vs 0x1e)", id="repeat"),
        pytest.param(BRGC6[:30] + BRGC6[31:], 29, 0x13, 0x10,
                     "words at steps 29 and 30 differ in 2 bits (0x13 vs 0x10)", id="two-bit"),
    ])
    def test_first_bad_step_mid_path(self, words, index, a, b, message):
        with pytest.raises(NotAGrayStepError) as e:
            transitions_of(WordPath(6, words))
        assert (e.value.index, str(e.value)) == (index, message)
        assert (words[index], words[index + 1]) == (a, b)

    def test_steps_of_the_top_bit(self):
        # every word fits in MAX_BITS bits, so a one-bit step always reads off
        assert transitions_of(WordPath(24, (0, 1 << 23, 3 << 22))).symbols == (23, 22)
        with pytest.raises(NotAGrayStepError) as e:
            transitions_of(WordPath(24, (0, 1 << 23, 3 | 1 << 23)))
        assert e.value.index == 1
        # a word past the top bit needs an n past MAX_BITS, rejected on construction
        with pytest.raises(MalformedSequenceError, match=r"^n=25 outside \[1, 24\]$"):
            WordPath(25, (0, 1 << 24, 3 | 1 << 24))

    @pytest.mark.parametrize("n", [-1, 0, 25])
    def test_word_path_n_outside_the_bit_range(self, n):
        with pytest.raises(MalformedSequenceError, match=rf"^n={n} outside \[1, 24\]$"):
            WordPath(n, (0,))

    def test_empty_and_single_word_paths(self):
        with pytest.raises(MalformedSequenceError, match="^empty word path$"):
            transitions_of(WordPath(6, ()))
        assert transitions_of(WordPath(6, (5,))).symbols == ()

    @pytest.mark.parametrize("symbols, message", [
        ((0, 1, 2, -1, 5), "symbol -1 at index 3 outside [0, 4)"),
        ((0, 4, -1), "symbol 4 at index 1 outside [0, 4)"),
        ((0, 1, -7), "symbol -7 at index 2 outside [0, 4)"),
    ])
    def test_first_symbol_out_of_range(self, symbols, message):
        with pytest.raises(MalformedSequenceError) as e:
            TransitionSequence(4, symbols)
        assert str(e.value) == message

    @pytest.mark.parametrize("words, message", [
        ((0, 1, 9, -1), "word 9 does not fit in 3 bits"),
        ((0, -2, 9), "word -2 does not fit in 3 bits"),
        ((0, 1, 8), "word 8 does not fit in 3 bits"),
        ((0, -1, 1), "word -1 does not fit in 3 bits"),
    ])
    def test_first_word_that_does_not_fit(self, words, message):
        with pytest.raises(MalformedSequenceError) as e:
            WordPath(3, words)
        assert str(e.value) == message

    @staticmethod
    def outcome(f):
        try:
            return f()
        except (NotAGrayStepError, MalformedSequenceError) as e:
            return type(e), getattr(e, "index", None), str(e)

    @given(st.integers(1, 5), st.lists(st.integers(0, 31), max_size=12))
    def test_transitions_agree_with_the_per_word_loop(self, n, words):
        words = tuple(w % (1 << n) for w in words)

        def reference():  # the loop the C-level pass replaced
            if not words:
                raise MalformedSequenceError("empty word path")
            symbols = []
            for i in range(len(words) - 1):
                diff = words[i] ^ words[i + 1]
                if diff == 0 or diff & (diff - 1):
                    raise NotAGrayStepError(i, words[i], words[i + 1])
                symbols.append(diff.bit_length() - 1)
            return tuple(symbols)

        got = self.outcome(lambda: transitions_of(WordPath(n, words)).symbols)
        assert got == self.outcome(reference)

    @given(st.integers(1, 5), st.lists(st.integers(-2, 7), max_size=12))
    def test_range_check_agrees_with_the_per_symbol_loop(self, n, symbols):
        bad = [(i, s) for i, s in enumerate(symbols) if not 0 <= s < n]
        expected = tuple(symbols) if not bad else (
            MalformedSequenceError, None, f"symbol {bad[0][1]} at index {bad[0][0]} outside [0, {n})")
        assert self.outcome(lambda: TransitionSequence(n, symbols).symbols) == expected

    @pytest.mark.parametrize("n", range(1, 17))
    def test_reflected_code_reads_as_the_ruler_sequence(self, n):
        # step i flips the lowest set bit of i + 1
        ruler = tuple(((i + 1) & -(i + 1)).bit_length() - 1 for i in range((1 << n) - 1))
        words = tuple(i ^ (i >> 1) for i in range(1 << n))
        assert transitions_of(WordPath(n, words)).symbols == ruler


class TestClassifyGray:
    def test_open(self):
        assert classify_gray(seq(3, "0102101")).kind is GrayKind.OPEN

    def test_cyclic(self):
        assert classify_gray(seq(2, "0101")).kind is GrayKind.CYCLIC

    def test_incomplete_prefix(self):
        assert classify_gray(seq(3, "010")).kind is GrayKind.INCOMPLETE

    def test_invalid_repeat_carries_index(self):
        result = classify_gray(seq(3, "00"))
        assert result.kind is GrayKind.INVALID
        assert result.repeat_index == 1

    def test_cyclic_means_even_symbol_counts(self):
        s = seq(2, "0101")
        assert classify_gray(s).kind is GrayKind.CYCLIC
        for p in range(s.n):
            assert sum(1 for x in s.symbols if x == p) % 2 == 0


@given(st.integers(1, 6), st.data())
def test_round_trip_random_paths(n, data):
    # build a random valid Gray path by walking unvisited neighbours
    words = [0]
    visited = {0}
    length = data.draw(st.integers(0, (1 << n) - 1))
    for _ in range(length):
        nbrs = [words[-1] ^ (1 << p) for p in range(n)]
        nbrs = [w for w in nbrs if w not in visited]
        if not nbrs:
            break
        nxt = data.draw(st.sampled_from(nbrs))
        words.append(nxt)
        visited.add(nxt)
    path = WordPath(n, tuple(words))
    assert apply_transitions(words[0], transitions_of(path)) == path


@given(st.integers(1, 5), st.data())
def test_short_repeat_free_sequences_are_incomplete(n, data):
    words = [0]
    visited = {0}
    target = data.draw(st.integers(0, (1 << n) - 2))
    while len(words) - 1 < target:
        nbrs = [words[-1] ^ (1 << p) for p in range(n) if words[-1] ^ (1 << p) not in visited]
        if not nbrs:
            break
        nxt = data.draw(st.sampled_from(nbrs))
        words.append(nxt)
        visited.add(nxt)
    s = transitions_of(WordPath(n, tuple(words)))
    if len(s) < (1 << n) - 1:
        assert classify_gray(s).kind is GrayKind.INCOMPLETE


class TestTextFormat:
    def test_digits_when_small(self):
        assert format_symbols(3, (0, 1, 0, 2)) == "0102"

    def test_commas_when_large(self):
        assert format_symbols(12, (0, 11, 5)) == "0,11,5"
        assert parse_symbols(12, "0,11,5").symbols == (0, 11, 5)

    def test_commas_read_when_small(self):
        assert parse_symbols(3, "0,1,2").symbols == (0, 1, 2)

    @pytest.mark.parametrize("n, text", [(3, "01x"), (3, "0,x"), (12, "0,x")])
    def test_bad_symbol_is_malformed(self, n, text):
        with pytest.raises(MalformedSequenceError, match="bad symbol in"):
            parse_symbols(n, text)

    def test_file_round_trip(self):
        buf = io.StringIO()
        codes = [seq(3, "0102101")]
        write_sequence_block(buf, 3, "open", codes)
        buf.seek(0)
        parsed = list(read_sequence_file(buf))
        assert parsed == [({"n": "3", "mode": "open"}, codes[0])]

    def test_reader_skips_comments_reports_and_records(self):
        lines = ["# a comment", "", "n=3 mode=both label=x", "0102101", "shard=01 nodes=5",
                 '{"n": 3}', "  0102  ", "n=12 mode=open", "0,11,5"]
        assert [(h.get("label"), str(s)) for h, s in read_sequence_file(lines)] == [
            ("x", "0102101"), ("x", "0102"), (None, "0,11,5")]
        # a given n parses every sequence, with or without a header
        assert [s.n for _, s in read_sequence_file(["n=3", "01", "n=5", "01"], n=4)] == [4, 4]
        assert list(read_sequence_file(["01"], n=2)) == [({}, seq(2, "01"))]

    @pytest.mark.parametrize("lines, message", [
        (["0102"], "^sequence line before any header$"),
        (["shard=01 nodes=5", "0102"], "^sequence line before any header$"),
        (["n=x mode=open", "0102"], "^bad n in header: 'n=x mode=open'$"),
        (["n=3", "01x"], "^bad symbol in '01x'$"),
        (["n=3", "0102 mode=open"], "^bad symbol in"),
    ])
    def test_reader_rejects_what_it_cannot_read(self, lines, message):
        with pytest.raises(MalformedSequenceError, match=message):
            list(read_sequence_file(lines))
