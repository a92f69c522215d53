"""Queue semantics: the exit discipline where the longest-set bit clears first.

The set bits of the current word behave as a FIFO queue of bit positions;
a 0->1 flip enqueues at the back, and a 1->0 flip must remove the front.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .core import TransitionSequence

QueueState = tuple[int, ...]


@dataclass(frozen=True)
class BeckettViolation:
    """Diagnostics for a 1->0 flip whose position is not the queue front."""

    step: int
    position: int
    front: int

    def __str__(self) -> str:
        return (
            f"step {self.step}: position {self.position} flipped 1->0 "
            f"but queue front is {self.front}"
        )


class BeckettViolationError(ValueError):
    def __init__(self, violation: BeckettViolation):
        self.violation = violation
        super().__init__(str(violation))


class BeckettKind(enum.Enum):
    OPEN = "open-beckett"
    CYCLIC = "cyclic-beckett"
    INCOMPLETE = "incomplete-beckett"
    NOT_BECKETT = "not-beckett"
    NOT_GRAY = "not-gray"


@dataclass(frozen=True)
class BeckettClassification:
    kind: BeckettKind
    violation: Optional[BeckettViolation] = None
    repeat_index: Optional[int] = None

    def __str__(self) -> str:
        if self.kind is BeckettKind.NOT_BECKETT:
            return f"not-beckett ({self.violation})"
        if self.kind is BeckettKind.NOT_GRAY:
            return f"not-gray (word repeats at step {self.repeat_index})"
        return self.kind.value


def queue_trace(seq: TransitionSequence) -> list[QueueState]:
    """Replay ``seq`` from the empty queue, returning all 1 + |seq| states.

    Raises BeckettViolationError at the first 1->0 flip of a non-front
    position.
    """
    word = 0
    queue: list[int] = []
    states: list[QueueState] = [()]
    for i, p in enumerate(seq.symbols):
        if word >> p & 1:
            if not queue or queue[0] != p:
                front = queue[0] if queue else -1
                raise BeckettViolationError(BeckettViolation(i, p, front))
            queue.pop(0)
            word ^= 1 << p
        else:
            queue.append(p)
            word ^= 1 << p
        states.append(tuple(queue))
    return states


def classify_beckett(seq: TransitionSequence) -> BeckettClassification:
    """Combine Gray classification with the queue discipline.

    A word repeat is reported as not-gray even when a queue violation
    occurs at the same step.
    """
    total = 1 << seq.n
    last = len(seq) - 1
    word = 0
    visited = bytearray(total)  # one flag per word
    visited[0] = 1
    queue: list[int] = []
    for i, p in enumerate(seq.symbols):
        new = word ^ (1 << p)
        # each earlier step visited a new word, so a revisit of the all-zero
        # word at the last of 2^n steps closes a cycle
        if visited[new] and not (new == 0 and i == last == total - 1):
            return BeckettClassification(BeckettKind.NOT_GRAY, repeat_index=i)
        if word >> p & 1:
            if not queue or queue[0] != p:
                front = queue[0] if queue else -1
                return BeckettClassification(
                    BeckettKind.NOT_BECKETT, violation=BeckettViolation(i, p, front)
                )
            queue.pop(0)
        else:
            queue.append(p)
        word = new
        visited[new] = 1
    if last == total - 1:
        return BeckettClassification(BeckettKind.CYCLIC)
    if last == total - 2:
        return BeckettClassification(BeckettKind.OPEN)
    return BeckettClassification(BeckettKind.INCOMPLETE)
