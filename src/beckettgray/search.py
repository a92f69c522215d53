"""Exhaustive DFS enumeration of Beckett-Gray codes with isomorph rejection.

The search tree: nodes are Beckett-consistent partial transition
sequences anchored at the all-zero word.  Children, in ascending symbol
order, either flip a 0-bit to 1 (enqueue) or flip the queue front to 0
(dequeue); a child is pruned when its word was already visited, except
that a dequeue back to all-zero is kept when it closes a full cycle.
Relabeling isomorphs are pruned on the fly by restricted growth (a fresh
bit position may enter only as the smallest unused one); reversal
isomorphs are rejected at completion time.

The same walk enumerates plain Gray cycles under the Gray rule, which
may clear any set bit; only under the queue rule is
``queue[-popcount(word)]`` the front.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .canonical import canonicalize
from .core import MAX_BITS, TransitionSequence, WordPath, apply_transitions

# a string reference: typing caches parametrized aliases, and one holding
# the class itself would keep every re-imported copy of the package alive
Sink = Callable[[str, "TransitionSequence"], None]


@functools.cache
def _limits(n: int, restricted_growth: bool) -> tuple[int, ...]:
    """Per count of symbols used so far, the bits that the next symbol may
    take: under restricted growth, only up to the first unused."""
    return tuple(min(2 << used, 1 << n) - 1 if restricted_growth else (1 << n) - 1
                 for used in range(n + 1))


_BITS = tuple(1 << p for p in range(MAX_BITS))  # the words with one bit set, ascending
_PAIRS = tuple(enumerate(_BITS))  # (symbol, bit), shared by every row
_MAX_ROWS = 1 << 13  # rows the move table holds; every mask of up to 13 bits fits
_rows: dict[int, tuple[tuple[int, int], ...]] = {}  # the move table: mask -> row
_SEEN = 128  # on a visited word's count (see _degrees): never 0 or 1, and + MAX_BITS fits a byte


def _row(mask: int) -> tuple[tuple[int, int], ...]:
    """Build, store and return ``_rows[mask]``, the ``(symbol, bit)`` pairs
    of the set bits of ``mask`` in ascending order.  A node's moves, before
    the visited test, are the bits of ``limit ^ word ^ front`` (its
    ``_limits`` entry, its word and its queue front's bit): the unset bits
    it may set and the front it may clear, as ``push`` checks one symbol at
    a time; under ``walk``'s Gray rule, the ``_limits`` entry alone.  A row
    depends on the mask alone, so one table serves every n and both growth
    modes; it is emptied when it holds ``_MAX_ROWS`` rows."""
    if len(_rows) >= _MAX_ROWS:
        _rows.clear()
    row = _rows[mask] = tuple(m for m in _PAIRS if mask & m[1])
    return row


def _degrees(n: int, visited: bytearray, word: int, cyclic: bool) -> bytearray:
    """Per word, its available neighbours, plus ``_SEEN`` if it is visited.

    A neighbour is available if it is unvisited, the current ``word``, or,
    for a cycle, word 0.  A Hamilton path from ``word`` through every
    unvisited word (closed at 0 for a cycle) enters and leaves each of them
    by available neighbours, so each needs two; only an open path's end
    word may have one.
    """
    bits, avail = _BITS[:n], bytearray(_SEEN * seen for seen in visited)
    for y, seen in enumerate(visited):
        if not seen or y == word or cyclic and not y:  # y is available to its neighbours
            for b in bits:
                avail[y ^ b] += 1
    return avail


@dataclass(frozen=True)
class SearchConfig:
    n: int
    mode: str = "both"  # cyclic | open | both
    prefix: Optional[TransitionSequence] = None
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    emit: str = "canonical-codes"  # count-only | canonical-codes

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.node_limit, (int, type(None))):
            raise ValueError(f"n={self.n!r} or node_limit={self.node_limit!r} is not an int")
        if not 1 <= self.n <= MAX_BITS:
            raise ValueError(f"n={self.n} outside [1, {MAX_BITS}]")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(f"node_limit={self.node_limit} below 0")
        if self.time_limit is not None and not self.time_limit >= 0:  # true for NaN too
            raise ValueError(f"time_limit={self.time_limit} is not a time >= 0")
        if self.mode not in ("cyclic", "open", "both"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.emit not in ("count-only", "canonical-codes"):
            raise ValueError(f"bad emit {self.emit!r}")
        if self.prefix is not None and self.prefix.n != self.n:
            raise ValueError("prefix n mismatch")


@dataclass
class EnumerationReport:
    n: int
    mode: str
    count_cyclic: int = 0
    count_open_total: int = 0
    count_open_strict: int = 0
    nodes_visited: int = 0
    elapsed: float = 0.0
    truncated: bool = False

    def merge(self, other: "EnumerationReport") -> "EnumerationReport":
        if (self.n, self.mode) != (other.n, other.mode):
            raise ValueError("cannot merge reports for different searches")
        return EnumerationReport(
            n=self.n,
            mode=self.mode,
            count_cyclic=self.count_cyclic + other.count_cyclic,
            count_open_total=self.count_open_total + other.count_open_total,
            count_open_strict=self.count_open_strict + other.count_open_strict,
            nodes_visited=self.nodes_visited + other.nodes_visited,
            elapsed=self.elapsed + other.elapsed,
            truncated=self.truncated or other.truncated,
        )


class SearchState:
    """Undo-able DFS state; replayable from any Beckett-consistent prefix.

    ``queue`` is append-only: a leading 0, then the bit of every symbol
    enqueued so far.  Under the queue rule it holds exactly the set bits
    of ``word`` in the order they were set, so ``queue[-word.bit_count()]``
    is the front's bit, or the leading 0 for word 0; under ``walk``'s Gray
    rule it is only the undo log of the set steps.  Each step visits a new
    word except the one that closes a cycle, so ``len(seq) + 1`` words are
    visited, all of them from depth ``2**n - 1`` on.  Every push logs the previous
    ``used``, so ``pop`` restores the state exactly.
    """

    __slots__ = ("n", "word", "visited", "queue", "used", "seq", "used_log")

    def __init__(self, n: int):
        self.n = n
        self.word = 0
        self.visited = bytearray(1 << n)  # one flag per word
        self.visited[0] = 1
        self.queue: list[int] = [0]
        self.used = 0  # distinct symbols used so far (restricted growth frontier)
        self.seq: list[int] = []
        self.used_log: list[int] = []

    @classmethod
    def from_prefix(cls, n: int, prefix: Optional[Iterable[int]]) -> "SearchState":
        """A fresh state with the symbols of ``prefix`` pushed, if any."""
        state = cls(n)
        # all() stops at the first symbol push refuses, so len(seq) is its index
        try:  # push raises on a symbol outside [0, n), before it changes the state
            if prefix is None or all(map(state.push, prefix)):
                return state
        except (IndexError, ValueError):
            pass
        raise ValueError(f"prefix is not Beckett-consistent at symbol index {len(state.seq)}")

    def children(self, restricted_growth: bool = True) -> list[int]:
        """Legal next symbols in ascending order: those ``push`` accepts."""
        out = []
        for p in range(min(self.used + 1, self.n)) if restricted_growth else range(self.n):
            if self.push(p):
                self.pop()
                out.append(p)
        return out

    def push(self, p: int) -> bool:
        """Apply symbol ``p`` if legal (ignoring restricted growth); else False."""
        word, queue = self.word, self.queue
        b = 1 << p
        new = word ^ b
        if word & b and queue[-word.bit_count()] != b:
            return False  # only the queue front may be cleared
        if self.visited[new] and (new or len(self.seq) != len(self.visited) - 1):
            return False  # a revisit, other than the 0 that closes a cycle
        if new > word:  # an enqueue
            queue.append(b)
        self.visited[new] = 1
        self.word = new
        self.used_log.append(self.used)
        if p >= self.used:
            self.used = p + 1
        self.seq.append(p)
        return True

    def pop(self) -> int:
        """Undo the last ``push`` and return its symbol."""
        p = self.seq.pop()
        word = self.word
        if word >> p & 1:  # undo an enqueue
            self.queue.pop()
        if word:  # a closing dequeue to 0 visited nothing new
            self.visited[word] = 0
        self.word = word ^ (1 << p)
        self.used = self.used_log.pop()
        return p

    def truncate(self, depth: int) -> None:
        """Undo pushes until ``depth`` symbols remain."""
        while len(self.seq) > depth:
            self.pop()

    def walk(self, max_depth: int, restricted_growth: bool = True,
             prune: Optional[str] = None, gray: bool = False) -> Iterator[int]:
        """Depth-first walk of the subtree below the current node.

        Yields the depth of each node in lexicographic order, the current
        node first, with the state set to that node.  Nodes at
        ``max_depth`` are not expanded.  A walk that runs to its end
        leaves the state at its starting node; one that is closed early
        leaves it at the last node yielded.  A node's moves are the row of
        its mask in the move table (see ``_row``), and those reaching an
        unvisited word are its children, tested one at a time each time the
        walk comes back to the node; push and pop are inlined, with the
        state's ints held in locals.

        ``prune`` ("cyclic" or "open") stops at every node, the start
        included, below which no code of that kind can be completed, by
        the degree rule of ``_degrees``: the words not yet visited must
        still admit a Hamilton path from the current word, closed at 0
        when cyclic.  A node is dead when some unvisited word has no
        available neighbour, or more have one than the slack allows (0
        cyclic, 1 open); it is yielded but not expanded, so no completion
        is lost and their order is kept.  The counts are built once, then
        updated in O(n) per step and read by two C-level scans per step
        (``count``, a slower call, only once a 1 is found).

        ``gray`` walks under the Gray rule: any set bit may be cleared, so
        a node's mask is ``limit`` alone and the visited test filters the
        moves.  Under either rule, a node at depth ``2**n - 1`` whose word
        is a single bit clears word 0's visited flag for its closing step.
        """
        n = self.n
        last = (1 << n) - 1  # the depth at which every word is visited
        visited, queue, seq, used_log = self.visited, self.queue, self.seq, self.used_log
        word, used = self.word, self.used
        root = depth = len(seq)
        limits, rows = _limits(n, restricted_growth), _rows
        rule = 0 if gray else -1  # masks out the word and front under the Gray rule
        pending: list[Iterator[tuple[int, int]]] = []  # per open level: its untried moves
        stop = max_depth  # nodes this deep are not expanded; a dead node's own depth
        avail = None
        if prune is not None:
            if prune not in ("cyclic", "open"):
                raise ValueError(f"bad prune {prune!r}")
            if n > 1:  # the 1-bit cycle uses its one edge twice
                cyclic = prune == "cyclic"
                slack = 0 if cyclic else 1  # an open path's end word needs only one
                bits = _BITS[:n]
                avail = _degrees(n, visited, word, cyclic)
                if 0 in avail or 1 in avail and avail.count(1) > slack:
                    stop = depth
        try:
            while True:
                self.word, self.used = word, used
                yield depth
                row = ()
                if depth < stop:
                    if depth == last and not word & (word - 1):  # every word is visited:
                        visited[0] = 0  # let the closing step pass; its push sets it again
                    try:
                        row = rows[limits[used] ^ (word ^ queue[-word.bit_count()]) & rule]
                    except KeyError:
                        row = _row(limits[used] ^ (word ^ queue[-word.bit_count()]) & rule)
                kids = iter(row)
                while True:
                    for p, b in kids:
                        if not visited[word ^ b]:
                            break
                    else:  # no child left: climb to the nearest node with one
                        if depth == root:
                            return
                        p = seq.pop()
                        if avail is not None:
                            # the word rejoins the unvisited ones, and the
                            # neighbours of the word it was entered from
                            # regain that one
                            if word:
                                avail[word] -= _SEEN
                            u = word ^ 1 << p
                            if u or not cyclic:
                                for b in bits:
                                    if not visited[u ^ b]:
                                        avail[u ^ b] += 1
                        if word >> p & 1:
                            queue.pop()
                        if word:
                            visited[word] = 0
                        word ^= 1 << p
                        used = used_log.pop()
                        depth -= 1
                        kids = pending.pop()
                        continue
                    break
                pending.append(kids)
                word ^= b
                if word & b:  # an enqueue
                    queue.append(b)
                visited[word] = 1
                used_log.append(used)
                if p >= used:
                    used = p + 1
                seq.append(p)
                depth += 1
                if avail is not None:
                    # the word left is no longer available to its unvisited
                    # neighbours, except 0 for a cycle; the cube has no
                    # triangles, so none of them neighbours the new word
                    u = word ^ 1 << p
                    if u or not cyclic:
                        for b in bits:
                            if not visited[u ^ b]:
                                avail[u ^ b] -= 1
                    if word:  # the new word leaves the unvisited ones
                        avail[word] += _SEEN
                    stop = (depth if 0 in avail or 1 in avail and avail.count(1) > slack
                            else max_depth)
        finally:
            self.word, self.used = word, used

    def descend(
        self, rng: random.Random, stop_at: int, restricted_growth: bool = True
    ) -> list[int]:
        """Push ``rng.choice(children())`` to a leaf or depth ``stop_at``; return
        each step's number of children.  The children are looked up in the move
        table and the push step is inlined, as in ``walk``,
        and so is ``choice``'s draw: ``getrandbits`` of the count's bit length,
        redrawn until below the count and made even for a lone child, so the
        stream moves exactly as under ``choice``."""
        n = self.n
        last = (1 << n) - 1
        visited, queue, seq, used_log = self.visited, self.queue, self.seq, self.used_log
        word, used = self.word, self.used
        limits, rows = _limits(n, restricted_growth), _rows
        getrandbits = rng.getrandbits
        factors: list[int] = []
        while len(seq) < stop_at:
            front = queue[-word.bit_count()]
            if len(seq) == last and not word & (word - 1):
                visited[0] = 0  # every word is visited: close the cycle, as in walk
            try:
                row = rows[limits[used] ^ word ^ front]
            except KeyError:
                row = _row(limits[used] ^ word ^ front)
            kids = []
            for m in row:
                if not visited[word ^ m[1]]:
                    kids.append(m)
            if not kids:
                break
            k = len(kids)
            factors.append(k)
            bits = k.bit_length()
            r = getrandbits(bits)
            while r >= k:
                r = getrandbits(bits)
            p, b = kids[r]
            word ^= b
            if word & b:  # an enqueue
                queue.append(b)
            visited[word] = 1
            used_log.append(used)
            if p >= used:
                used = p + 1
            seq.append(p)
        self.word, self.used = word, used
        return factors

    def sequence(self) -> TransitionSequence:
        return TransitionSequence(self.n, tuple(self.seq))


def enumerate_beckett(
    config: SearchConfig, sink: Optional[Sink] = None
) -> EnumerationReport:
    """Depth-first lexicographic enumeration; exact counts and node count.

    The tree itself is mode-independent; ``config.mode`` selects which
    completions are counted and emitted.  A prefix config reports only
    its subtree; callers add the shallow nodes.
    """
    n = config.n
    total = 1 << n
    report = EnumerationReport(n=n, mode=config.mode)
    wanted = {
        "open": config.mode in ("open", "both"),
        "cyclic": config.mode in ("cyclic", "both"),
    }
    if config.emit == "count-only":
        sink = None
    deadline = None if config.time_limit is None else time.monotonic() + config.time_limit
    start = time.monotonic()
    stop = math.inf if config.node_limit is None else config.node_limit + 1
    check_at = 1  # the node count at which the budgets are next checked

    state = SearchState.from_prefix(n, config.prefix)
    nodes = 0
    for depth in state.walk(total):
        nodes += 1
        if nodes == check_at:
            if nodes == stop or (
                deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline
            ):
                report.truncated = True
                break
            check_at = min(stop, nodes - nodes % 4096 + 4096)
        if depth < total - 1:
            continue
        # every word is visited at depth 2^n - 1 (an open completion, whose
        # only possible child is the cyclic closure) and at depth 2^n
        kind = "open" if depth < total else "cyclic"
        if not wanted[kind]:
            continue
        seq = state.sequence()
        if canonicalize(seq) != seq:
            continue
        if kind == "cyclic":
            report.count_cyclic += 1
        else:
            report.count_open_total += 1
            report.count_open_strict += state.word & (state.word - 1) != 0
        if sink is not None:
            sink(kind, seq)
    report.nodes_visited = nodes
    report.elapsed = time.monotonic() - start
    return report


def split_tree(n: int, depth: int, prefix: Optional[TransitionSequence] = None,
               time_limit: Optional[float] = None) -> tuple[list[SearchConfig], int, bool]:
    """One walk to the split ``depth`` below ``prefix``: the configs whose
    prefixes are the nodes at that depth, in order; the number of nodes
    above it; and whether ``time_limit`` (checked every 4,096 nodes) cut
    the walk short, in which case no config is returned and every node
    walked is counted.

    The depth is capped at the open-code length ``2**n - 1``, so every
    code lies in some shard, and raised to the prefix length, so the
    prefix is the one shard of a depth above it; the shard subtrees
    partition the nodes at and below that depth, and summing shard
    reports gives the unsplit code counts.
    """
    if not isinstance(depth, int) or depth < 0:
        raise ValueError(f"split depth={depth!r} is not an int >= 0")
    if depth > 12 and n > 5:  # the whole tree for n <= 5 has 537,326 nodes
        raise ValueError("split depth limited to 12 for n > 5")
    state = SearchState.from_prefix(n, prefix)
    # no code is shorter than the open length, so no code lies above it
    depth = max(min(depth, (1 << n) - 1), len(state.seq))
    deadline = None if time_limit is None else time.monotonic() + time_limit
    shards: list[SearchConfig] = []
    nodes = 0
    for d in state.walk(depth):
        if d == depth:
            shards.append(SearchConfig(n=n, prefix=state.sequence()))
        nodes += 1
        if deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline:
            return [], nodes, True
    return shards, nodes - len(shards), False


def split_prefixes(n: int, depth: int,
                   prefix: Optional[TransitionSequence] = None) -> list[SearchConfig]:
    """Configs whose prefixes are the nodes at ``depth`` below ``prefix``, in order."""
    return split_tree(n, depth, prefix)[0]


def count_shallow_nodes(n: int, depth: int,
                        prefix: Optional[TransitionSequence] = None) -> int:
    """Number of nodes from ``prefix`` down to just above the split ``depth``."""
    return split_tree(n, depth, prefix)[1]


def enumerate_gray_cycles_small(n: int) -> list[WordPath]:
    """All directed Hamilton cycles of the n-cube anchored at the all-zero word.

    Each returned path is closed (2^n + 1 words, first == last == 0); both
    orientations of every undirected cycle are returned.
    """
    if not isinstance(n, int) or not 1 <= n <= 4:
        raise ValueError(f"cycle enumeration limited to n in [1, 4], not {n!r}")
    state = SearchState(n)
    return [apply_transitions(0, state.sequence())
            for depth in state.walk(1 << n, restricted_growth=False, gray=True)
            if depth == 1 << n]
