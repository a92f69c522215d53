"""Exhaustive DFS enumeration of Beckett-Gray codes with isomorph rejection.

The search tree: nodes are Beckett-consistent partial transition
sequences anchored at the all-zero word.  Children, in ascending symbol
order, either flip a 0-bit to 1 (enqueue) or flip the queue front to 0
(dequeue); a child is pruned when its word was already visited, except
that a dequeue back to all-zero is kept when it closes a full cycle.
Relabeling isomorphs are pruned on the fly by restricted growth (a fresh
bit position may enter only as the smallest unused one); reversal
isomorphs are rejected at completion time.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .canonical import canonicalize
from .core import TransitionSequence, WordPath

# a string reference: typing caches parametrized aliases, and one holding
# the class itself would keep every re-imported copy of the package alive
Sink = Callable[[str, "TransitionSequence"], None]


@functools.cache
def _scan(n: int, descending: bool,
          restricted_growth: bool) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per count of symbols used so far, the symbols that may come next,
    with their bits: under restricted growth, only up to the first unused."""
    order = range(n - 1, -1, -1) if descending else range(n)
    return tuple(tuple((p, 1 << p) for p in order if p <= used or not restricted_growth)
                 for used in range(n + 1))


def _expand(row: tuple[tuple[int, int], ...], word: int, queue: list[int],
            visited: bytearray, closing: bool) -> list[int]:
    """The symbols of ``row`` legal after ``word``, in the row's order: each
    reaches an unvisited word by setting a bit or by clearing the queue
    front, the oldest set bit; when ``closing`` (every word visited), only
    the front may be cleared, back to 0.  ``push`` applies the same rule
    to one symbol."""
    front = queue[len(queue) - word.bit_count()] if word else -1
    if closing:
        return [front] if word == 1 << front else []
    kids = []
    for p, b in row:
        if (p == front or not word & b) and not visited[word ^ b]:
            kids.append(p)
    return kids


def _degrees(n: int, visited: bytearray, word: int, cyclic: bool) -> tuple[bytearray, int]:
    """Available neighbours of each unvisited word, and their total deficit.

    A neighbour is available if it is unvisited, the current ``word``, or,
    for a cycle, word 0.  A Hamilton path from ``word`` through every
    unvisited word (closed at 0 for a cycle) enters and leaves each of them
    by available neighbours, so each needs two; only an open path's end
    word may have one.  The deficit sums ``2 - count`` over the words with
    fewer than two: a cycle needs it 0, an open path at most 1.
    """
    avail = bytearray(1 << n)
    bits = [1 << p for p in range(n)]
    # the current word and word 0 are visited, so the scan below does not
    # count them again; for a cycle at word 0 they are one word
    for b in bits:
        avail[word ^ b] += 1
        if cyclic and word:
            avail[b] += 1
    deficit = 0
    for x in range(1 << n):
        if not visited[x]:
            a = avail[x]
            for b in bits:
                if not visited[x ^ b]:
                    a += 1
            avail[x] = a
            if a < 2:
                deficit += 2 - a
    return avail, deficit


@dataclass(frozen=True)
class SearchConfig:
    n: int
    mode: str = "both"  # cyclic | open | both
    prefix: Optional[TransitionSequence] = None
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    emit: str = "canonical-codes"  # count-only | canonical-codes

    def __post_init__(self):
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

    ``queue`` is append-only, every symbol enqueued so far: the queue
    holds exactly the set bits of ``word`` in the order they were set, so
    the live queue is its last popcount(word) symbols.  Each step visits
    a new word except the one that closes a cycle, so ``len(seq) + 1``
    words are visited, all of them from depth ``2**n - 1`` on.  Every
    push logs the previous ``used``, so ``pop`` restores the state exactly.
    """

    __slots__ = ("n", "word", "visited", "queue", "used", "seq", "used_log")

    def __init__(self, n: int):
        self.n = n
        self.word = 0
        self.visited = bytearray(1 << n)  # one flag per word
        self.visited[0] = 1
        self.queue: list[int] = []
        self.used = 0  # distinct symbols used so far (restricted growth frontier)
        self.seq: list[int] = []
        self.used_log: list[int] = []

    @classmethod
    def from_prefix(cls, n: int, prefix: Optional[TransitionSequence]) -> "SearchState":
        state = cls(n)
        if prefix is not None:
            for s in prefix.symbols:
                if not state.push(s):
                    raise ValueError(
                        f"prefix is not Beckett-consistent at symbol index "
                        f"{len(state.seq)}"
                    )
        return state

    def children(self, restricted_growth: bool = True) -> list[int]:
        """Legal next symbols in ascending order: those ``push`` accepts."""
        out = []
        for p, _ in _scan(self.n, False, restricted_growth)[self.used]:
            if self.push(p):
                self.pop()
                out.append(p)
        return out

    def push(self, p: int) -> bool:
        """Apply symbol ``p`` if legal (ignoring restricted growth); else False."""
        word, queue = self.word, self.queue
        new = word ^ (1 << p)
        if word >> p & 1 and queue[len(queue) - word.bit_count()] != p:
            return False  # only the queue front may be cleared
        if self.visited[new] and (new or len(self.seq) != len(self.visited) - 1):
            return False  # a revisit, other than the 0 that closes a cycle
        if new > word:  # an enqueue
            queue.append(p)
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
             prune: Optional[str] = None) -> Iterator[int]:
        """Depth-first walk of the subtree below the current node.

        Yields the depth of each node in lexicographic order, the current
        node first, with the state set to that node.  Nodes at
        ``max_depth`` are not expanded.  A walk that runs to its end
        leaves the state at its starting node; one that is closed early
        leaves it at the last node yielded.  ``_expand`` gives the children;
        push and pop are inlined, with the state's ints held in locals.

        ``prune`` ("cyclic" or "open") stops at every node, the start
        included, below which no code of that kind can be completed, by
        the degree rule of ``_degrees``: the words not yet visited must
        still admit a Hamilton path from the current word, closed at 0
        when cyclic.  Such a node is yielded but not expanded, so no
        completion is lost and their order is kept.  The counts are built
        once and then updated in O(n) per step.
        """
        n = self.n
        last = (1 << n) - 1  # the depth at which every word is visited
        visited, queue, seq, used_log = self.visited, self.queue, self.seq, self.used_log
        word, used = self.word, self.used
        root = depth = len(seq)
        scan = _scan(n, True, restricted_growth)
        pending: list[list[int]] = []  # per open level: untried symbols, descending
        stop = max_depth  # nodes this deep are not expanded; a dead node's own depth
        avail = None
        if prune is not None:
            if prune not in ("cyclic", "open"):
                raise ValueError(f"bad prune {prune!r}")
            if n > 1:  # the 1-bit cycle uses its one edge twice
                cyclic = prune == "cyclic"
                slack = 0 if cyclic else 1  # an open path's end word needs only one
                bits = tuple(1 << p for p in range(n))
                avail, deficit = _degrees(n, visited, word, cyclic)
                if deficit > slack:
                    stop = depth
        try:
            while True:
                self.word, self.used = word, used
                yield depth
                # descending, so that pop() returns ascending
                kids = _expand(scan[used], word, queue, visited,
                               depth == last) if depth < stop else None
                if kids:
                    pending.append(kids)
                else:
                    # climb to the nearest node with an untried symbol
                    while True:
                        if depth == root:
                            return
                        p = seq.pop()
                        if avail is not None:
                            # the word rejoins the unvisited ones, and the
                            # neighbours of the word it was entered from
                            # regain that one
                            if word:
                                a = avail[word]
                                if a < 2:
                                    deficit += 2 - a
                            u = word ^ 1 << p
                            if u or not cyclic:
                                for b in bits:
                                    if not visited[u ^ b]:
                                        a = avail[u ^ b]
                                        avail[u ^ b] = a + 1
                                        if a < 2:
                                            deficit -= 1
                        if word >> p & 1:
                            queue.pop()
                        if word:
                            visited[word] = 0
                        word ^= 1 << p
                        used = used_log.pop()
                        depth -= 1
                        kids = pending[-1]
                        if kids:
                            break
                        pending.pop()
                p = kids.pop()
                if not word >> p & 1:
                    queue.append(p)
                word ^= 1 << p
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
                                a = avail[u ^ b] - 1
                                avail[u ^ b] = a
                                if a < 2:
                                    deficit += 1
                    if word:  # the new word leaves the unvisited ones
                        a = avail[word]
                        if a < 2:
                            deficit -= 2 - a
                    stop = max_depth if deficit <= slack else depth
        finally:
            self.word, self.used = word, used

    def descend(
        self, rng: random.Random, stop_at: int, restricted_growth: bool = True
    ) -> list[int]:
        """Push ``rng.choice(children())`` to a leaf or depth ``stop_at``; return
        each step's number of children.  The push step is inlined, as in ``walk``,
        and so is ``choice``'s draw: ``getrandbits`` of the count's bit length,
        redrawn until below the count and made even for a lone child, so the
        stream moves exactly as under ``choice``."""
        last = (1 << self.n) - 1
        visited, queue, seq, used_log = self.visited, self.queue, self.seq, self.used_log
        word, used = self.word, self.used
        scan = _scan(self.n, False, restricted_growth)
        getrandbits = rng.getrandbits
        factors: list[int] = []
        while len(seq) < stop_at:
            kids = _expand(scan[used], word, queue, visited, len(seq) == last)
            if not kids:
                break
            k = len(kids)
            factors.append(k)
            bits = k.bit_length()
            r = getrandbits(bits)
            while r >= k:
                r = getrandbits(bits)
            p = kids[r]
            if not word >> p & 1:
                queue.append(p)
            word ^= 1 << p
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
    if n > 4:
        raise ValueError("cycle enumeration limited to n <= 4")
    total = 1 << n
    cycles: list[WordPath] = []
    path = [0]
    visited = 1

    def extend() -> None:
        nonlocal visited
        w = path[-1]
        for p in range(n):
            nxt = w ^ (1 << p)
            if nxt == 0:
                if len(path) == total:
                    cycles.append(WordPath(n, tuple(path) + (0,)))
                continue
            if visited >> nxt & 1:
                continue
            visited |= 1 << nxt
            path.append(nxt)
            extend()
            path.pop()
            visited ^= 1 << nxt

    extend()
    return cycles
