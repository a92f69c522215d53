"""Word/transition data model shared by every other module.

A Gray code is stored as its transition sequence: the list of bit
positions flipped between consecutive words.  Bit positions are numbered
from the right, starting at zero.  All sequences are anchored at the
all-zero word, so a transition sequence alone determines the word path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice
from operator import xor
from typing import Iterable, Iterator, Optional, TextIO

MAX_BITS = 24
_BIT_POSITION = {1 << p: p for p in range(MAX_BITS)}  # one-bit word -> its position
_SYMBOLS = [frozenset(range(n)) for n in range(MAX_BITS + 1)]  # n -> the symbols [0, n)


class MalformedSequenceError(ValueError):
    """A transition sequence violates its structural invariants."""


class NotAGrayStepError(ValueError):
    """Two consecutive words differ in zero or more than one bit."""

    def __init__(self, index: int, a: int, b: int):
        self.index = index
        super().__init__(
            f"words at steps {index} and {index + 1} differ in "
            f"{bin(a ^ b).count('1')} bits ({a:#x} vs {b:#x})"
        )


@dataclass(frozen=True)
class TransitionSequence:
    """An ordered list of bit positions, each in [0, n)."""

    n: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_BITS:
            raise MalformedSequenceError(f"n={self.n} outside [1, {MAX_BITS}]")
        object.__setattr__(self, "symbols", tuple(self.symbols))
        # one C-level membership pass; the loop runs only to report the first bad symbol
        if not _SYMBOLS[self.n].issuperset(self.symbols):
            for i, s in enumerate(self.symbols):
                if not 0 <= s < self.n:
                    raise MalformedSequenceError(
                        f"symbol {s} at index {i} outside [0, {self.n})"
                    )

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __str__(self) -> str:
        return format_symbols(self.n, self.symbols)


@dataclass(frozen=True)
class WordPath:
    """An explicit sequence of n-bit words, consecutive words one flip apart."""

    n: int
    words: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_BITS:
            raise MalformedSequenceError(f"n={self.n} outside [1, {MAX_BITS}]")
        object.__setattr__(self, "words", tuple(self.words))
        limit = 1 << self.n
        # C-level min and max; the loop runs only to report the first bad word
        if self.words and not (0 <= min(self.words) and max(self.words) < limit):
            for w in self.words:
                if not 0 <= w < limit:
                    raise MalformedSequenceError(f"word {w} does not fit in {self.n} bits")

    def __len__(self) -> int:
        return len(self.words)


class GrayKind(enum.Enum):
    OPEN = "open-gray"
    CYCLIC = "cyclic-gray"
    INCOMPLETE = "incomplete"
    INVALID = "invalid"


@dataclass(frozen=True)
class GrayClassification:
    kind: GrayKind
    # index of the step whose result repeats an earlier word (INVALID only)
    repeat_index: Optional[int] = None

    def __str__(self) -> str:
        if self.kind is GrayKind.INVALID:
            return f"invalid (word repeats at step {self.repeat_index})"
        return self.kind.value


def apply_transitions(start: int, seq: TransitionSequence) -> WordPath:
    """Flip the bits named by ``seq`` one at a time, starting from ``start``."""
    if not 0 <= start < (1 << seq.n):
        raise MalformedSequenceError(f"start word {start} does not fit in {seq.n} bits")
    words = [start]
    w = start
    for s in seq.symbols:
        w ^= 1 << s
        words.append(w)
    return WordPath(seq.n, tuple(words))


def transitions_of(path: WordPath) -> TransitionSequence:
    """Read off the flipped bit position between each consecutive word pair."""
    words = path.words
    if not words:
        raise MalformedSequenceError("empty word path")
    try:
        symbols = tuple(map(_BIT_POSITION.__getitem__, map(xor, words, islice(words, 1, None))))
    except KeyError:  # a pair not one flip apart: find the first
        for i, (a, b) in enumerate(zip(words, islice(words, 1, None))):
            diff = a ^ b
            if diff == 0 or diff & (diff - 1):
                raise NotAGrayStepError(i, a, b) from None
    return TransitionSequence(path.n, symbols)


def classify_gray(seq: TransitionSequence) -> GrayClassification:
    """Classify a transition sequence anchored at the all-zero word.

    A revisit of the all-zero word is legal only as the very last step of
    a full-length sequence, where it closes a cycle.
    """
    total = 1 << seq.n
    last = len(seq) - 1
    w = 0
    visited = bytearray(total)  # one flag per word
    visited[0] = 1
    for i, s in enumerate(seq.symbols):
        w ^= 1 << s
        if visited[w]:
            # each earlier step visited a new word, so i + 1 words are seen
            if w == 0 and i == last == total - 1:
                return GrayClassification(GrayKind.CYCLIC)
            return GrayClassification(GrayKind.INVALID, repeat_index=i)
        visited[w] = 1
    if last == total - 2:
        return GrayClassification(GrayKind.OPEN)
    return GrayClassification(GrayKind.INCOMPLETE)


# ---------------------------------------------------------------------------
# Textual form: one sequence per line; single decimal digits when n <= 10,
# comma-separated decimals otherwise.  Files carry "n=<k> mode=<...>" header
# lines, which may hold further key=value fields, before each block of sequences.

def format_symbols(n: int, symbols: Iterable[int]) -> str:
    if n <= 10:
        return "".join(str(s) for s in symbols)
    return ",".join(str(s) for s in symbols)


def parse_symbols(n: int, text: str) -> TransitionSequence:
    text = text.strip()
    if not text:
        return TransitionSequence(n, ())
    parts = text if n <= 10 and "," not in text else text.split(",")
    try:
        symbols = tuple(map(int, parts))
    except ValueError as e:
        raise MalformedSequenceError(f"bad symbol in {text!r}") from e
    return TransitionSequence(n, symbols)


def read_sequence_file(
    lines: Iterable[str], n: Optional[int] = None
) -> Iterator[tuple[dict[str, str], TransitionSequence]]:
    """Yield (header fields, sequence) for each sequence line of ``lines``.

    Blank lines, ``#`` comments, JSON report lines (starting with ``{``)
    and lines made only of ``key=value`` fields, such as shard records,
    are skipped; a line of fields that holds ``n`` is the header of the
    lines after it.  Every other line must parse as a sequence: with
    ``n`` when given, otherwise with its header's ``n``.
    """
    header = None
    for line in lines:
        line = line.strip()
        if not line or line[0] in "#{":
            continue
        parts = line.split()
        if all("=" in part for part in parts):
            fields = dict(part.split("=", 1) for part in parts)
            if "n" in fields:
                if not fields["n"].isdecimal():
                    raise MalformedSequenceError(f"bad n in header: {line!r}")
                header = fields
            continue
        if n is None and header is None:
            raise MalformedSequenceError("sequence line before any header")
        yield header or {}, parse_symbols(int(header["n"]) if n is None else n, line)


def write_sequence_block(
    fp: TextIO, n: int, mode: str, seqs: Iterable[TransitionSequence]
) -> None:
    fp.write(f"n={n} mode={mode}\n")
    for seq in seqs:
        fp.write(format_symbols(n, seq.symbols) + "\n")
