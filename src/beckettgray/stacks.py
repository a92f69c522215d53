"""Two-stack realization of the binary reflected Gray code.

The set bits of each word split by parity: one stack holds the even bit
positions, the other the odd ones (top last).  A 0->1 flip pushes on the
matching stack; a 1->0 flip must pop that stack's top.

The verdict comes from whole-path byte passes.  Each step is a token: p
when it sets bit p, p | 32 when it clears it, so a token's parity is its
position's.  One stack obeys LIFO exactly when deleting adjacent
push-pop pairs of one position, until none is left, leaves no pop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from operator import sub, xor
from typing import Iterator, Optional

from .core import MAX_BITS, WordPath, transitions_of

_POP = 32  # flag of a 1->0 flip's token; positions are below it
_TOKEN = {d: p | (_POP if d < 0 else 0) for p in range(MAX_BITS) for d in (1 << p, -(1 << p))}
_ONE_BIT = frozenset(1 << p for p in range(MAX_BITS))
# per stack: the tokens of the other parity, and this parity's push-pop pairs
_PARITIES = tuple(
    (bytes(range(1 - parity, 2 * _POP, 2)),
     [bytes((p, p | _POP)) for p in range(parity, MAX_BITS, 2)])
    for parity in (0, 1)
)


@dataclass(frozen=True)
class TwoStackState:
    even_stack: tuple[int, ...]
    odd_stack: tuple[int, ...]

    def __str__(self) -> str:
        def fmt(stack):
            # bottom first, top last
            return ",".join(str(p) for p in stack) if stack else "-"

        return f"even[{fmt(self.even_stack)}] odd[{fmt(self.odd_stack)}]"


@dataclass(frozen=True)
class PopNotTop:
    """Diagnostics for a 1->0 flip whose position is not its stack's top."""

    step: int
    position: int
    top: Optional[int]

    def __str__(self) -> str:
        return (
            f"step {self.step}: position {self.position} flipped 1->0 but "
            f"{'even' if self.position % 2 == 0 else 'odd'} stack top is {self.top}"
        )


class PopNotTopError(ValueError):
    def __init__(self, diag: PopNotTop):
        self.diagnostics = diag
        super().__init__(str(diag))


def brgc(n: int) -> WordPath:
    """The standard reflected Gray code: word i = i XOR (i >> 1)."""
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"n={n} outside [1, {MAX_BITS}]")
    return WordPath(n, tuple(i ^ (i >> 1) for i in range(1 << n)))


def _stack_steps(path: WordPath) -> Iterator[tuple[list[int], list[int]]]:
    """Yield the live (even, odd) stacks before the first step and after each.

    Every step yields the same tuple of the two lists, changed in place.
    """
    if path.words and path.words[0] != 0:
        raise ValueError("two-stack trace starts from the all-zero word")
    seq = transitions_of(path)
    stacks: tuple[list[int], list[int]] = ([], [])
    word = 0
    yield stacks
    for i, p in enumerate(seq.symbols):
        stack = stacks[p & 1]
        if word >> p & 1:
            if not stack or stack[-1] != p:
                top = stack[-1] if stack else None
                raise PopNotTopError(PopNotTop(i, p, top))
            stack.pop()
        else:
            stack.append(p)
        word ^= 1 << p
        yield stacks


def two_stack_trace(path: WordPath) -> list[TwoStackState]:
    """Replay a Gray path through the parity stacks; 1 + |transitions| states.

    Raises PopNotTopError when a 1->0 flip does not hit its stack's top,
    which means the path is not two-stack realizable.
    """
    return [TwoStackState(tuple(even), tuple(odd)) for even, odd in _stack_steps(path)]


def _is_lifo(tokens: bytes, pairs: list[bytes]) -> bool:
    """Whether one stack's tokens reduce to pushes alone.

    Each pass deletes every innermost pair; a realizable stack holds at most
    12 distinct positions, so at most 13 passes run on it.
    """
    size = -1
    while len(tokens) != size:
        size = len(tokens)
        for pair in pairs:
            tokens = tokens.replace(pair, b"")
    return max(tokens, default=0) < _POP


def is_two_stack_realizable(path: WordPath) -> tuple[bool, Optional[PopNotTop]]:
    """Whether the whole path survives the parity-stack discipline.

    The path is stepped only when it fails, to find the first pop that misses the top.
    """
    words = path.words
    if words and words[0] != 0:
        raise ValueError("two-stack trace starts from the all-zero word")
    # one flip is tested on the XOR: a difference of +-2**p may carry (1 -> 2)
    if not words or not _ONE_BIT.issuperset(map(xor, words, islice(words, 1, None))):
        transitions_of(path)  # raises: the path is empty or a step is not one flip
    tokens = bytes(map(_TOKEN.__getitem__, map(sub, islice(words, 1, None), words)))
    if all(_is_lifo(tokens.translate(None, other), pairs) for other, pairs in _PARITIES):
        return True, None
    try:
        deque(_stack_steps(path), maxlen=0)  # drain at C speed
    except PopNotTopError as e:
        return False, e.diagnostics
    raise AssertionError("the stack passes rejected a path the stepper accepts")

