"""Reference checker for Beckett-Gray codes, written apart from ``beckettgray``.

Everything here works on plain tuples of ints and shares no code with the
package under test, so the benchmark can check the package's outputs
against it.  It is written for clarity, not speed: words are kept in a
``set``, the queue in a ``deque``, and least images are found by brute
force over every relabeling.

Conventions follow the package's documentation: bit positions count from
the right, every sequence starts at the all-zero word, an open code has
2^n - 1 transitions and a cyclic code 2^n.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations

CODE_KINDS = ("open-beckett", "cyclic-beckett")


def words_of(symbols):
    """The words visited by flipping ``symbols`` from the all-zero word."""
    words = [0]
    for p in symbols:
        words.append(words[-1] ^ (1 << p))
    return words


def gray_kind(n, symbols):
    """(kind, repeat_index): open-gray, cyclic-gray, incomplete or invalid.

    A return to the all-zero word is legal only as the last step of a
    full-length sequence, where it closes the cycle.
    """
    total = 1 << n
    seen = {0}
    word = 0
    last = len(symbols) - 1
    for i, p in enumerate(symbols):
        word ^= 1 << p
        if word in seen:
            if word == 0 and i == last == total - 1 and len(seen) == total:
                return "cyclic-gray", None
            return "invalid", i
        seen.add(word)
    if len(symbols) == total - 1 and len(seen) == total:
        return "open-gray", None
    return "incomplete", None


def beckett_kind(n, symbols):
    """(kind, detail) under the queue discipline.

    kind is open-beckett, cyclic-beckett, incomplete-beckett, not-gray
    (detail: the step whose word repeats) or not-beckett (detail: the
    violating step, the position flipped and the queue front, -1 when the
    queue is empty).  A repeated word wins over a queue violation at the
    same step.
    """
    total = 1 << n
    seen = {0}
    word = 0
    queue = deque()
    last = len(symbols) - 1
    for i, p in enumerate(symbols):
        new = word ^ (1 << p)
        closing = new == 0 and i == last == total - 1 and len(seen) == total
        if new in seen and not closing:
            return "not-gray", i
        if word >> p & 1:
            if not queue or queue[0] != p:
                return "not-beckett", (i, p, queue[0] if queue else -1)
            queue.popleft()
        else:
            queue.append(p)
        word = new
        seen.add(new)
    if len(symbols) == total:
        return "cyclic-beckett", None
    if len(symbols) == total - 1:
        return "open-beckett", None
    return "incomplete-beckett", None


def queue_states(symbols):
    """(states, violation): the queue after every step, ignoring word repeats.

    On the first 1->0 flip of a position that is not the queue front,
    states is None and violation is (step, position, front).
    """
    word = 0
    queue = deque()
    states = [()]
    for i, p in enumerate(symbols):
        if word >> p & 1:
            if not queue or queue[0] != p:
                return None, (i, p, queue[0] if queue else -1)
            queue.popleft()
        else:
            queue.append(p)
        word ^= 1 << p
        states.append(tuple(queue))
    return states, None


def is_restricted_growth(symbols):
    """True when new positions first appear in the order 0, 1, 2, ..."""
    fresh = 0
    for p in symbols:
        if p > fresh:
            return False
        if p == fresh:
            fresh += 1
    return True


def closable(symbols):
    """True when one more flip closes an open code into a cycle."""
    word = words_of(symbols)[-1]
    return word & (word - 1) == 0


def least_image(n, symbols):
    """The lexicographically least image under every relabeling and the reversal.

    The reversed string competes only when it is itself a complete code
    replayed from the all-zero word, as the package documents.
    """
    candidates = [tuple(symbols)]
    backward = tuple(reversed(symbols))
    if beckett_kind(n, backward)[0] in CODE_KINDS:
        candidates.append(backward)
    best = None
    for cand in candidates:
        for rho in permutations(range(n)):
            if best is not None:
                # compare lazily: most relabelings lose within a few symbols
                for i, s in enumerate(cand):
                    x = rho[s]
                    if x != best[i]:
                        break
                else:
                    continue
                if x > best[i]:
                    continue
            best = tuple(rho[s] for s in cand)
    return best


def apply_witness(symbols, rho, reversed_):
    """The image of a transition string under relabeling ``rho`` (and reversal)."""
    seq = symbols[::-1] if reversed_ else symbols
    return tuple(rho[s] for s in seq)


def relabel_word(word, rho):
    out = 0
    for p, q in enumerate(rho):
        if word >> p & 1:
            out |= 1 << q
    return out


def maps_cycle_onto_reversal(cycle, rho, added, rotation):
    """True when relabel-then-add takes ``cycle`` onto its reversal, rotated.

    ``cycle`` is one period of words starting at the all-zero word; the
    reversal is read back from that word.
    """
    size = len(cycle)
    rev = [cycle[(-i) % size] for i in range(size)]
    return all(
        relabel_word(cycle[i], rho) ^ added == rev[(i + rotation) % size]
        for i in range(size)
    )


def brgc_words(n):
    """The binary reflected Gray code by its closed form, i XOR (i >> 1)."""
    return [i ^ (i >> 1) for i in range(1 << n)]


def two_stack_states(words):
    """(states, violation): the parity stacks after every word of a Gray path.

    Even positions live on one stack and odd ones on the other, top last.
    A 0->1 flip pushes; a 1->0 flip must pop the top of its stack.  On
    failure states is None and violation is (step, position, top).
    """
    if words[0] != 0:
        raise ValueError("a two-stack path starts at the all-zero word")
    stacks = ([], [])
    states = [((), ())]
    for i in range(len(words) - 1):
        diff = words[i] ^ words[i + 1]
        if diff == 0 or diff & (diff - 1):
            raise ValueError(f"words {i} and {i + 1} are not one flip apart")
        p = diff.bit_length() - 1
        stack = stacks[p % 2]
        if words[i] & diff:
            if not stack or stack[-1] != p:
                return None, (i, p, stack[-1] if stack else None)
            stack.pop()
        else:
            stack.append(p)
        states.append((tuple(stacks[0]), tuple(stacks[1])))
    return states, None


def enumerate_codes(n):
    """(codes, nodes): every least Beckett-Gray code at ``n`` and the tree size.

    The depth-first search visits the Beckett-consistent partial strings
    whose positions first appear in order 0, 1, 2, ... (a relabeling can
    always bring a code to that form).  ``codes`` maps "cyclic" and "open"
    to the sorted strings that are least in their class.  ``nodes`` counts
    every partial string visited, the empty one and the closed cycles
    included.
    """
    total = 1 << n
    seq = []
    seen = {0}
    queue = deque()
    found = {"cyclic": [], "open": []}
    nodes = 0

    def extend(word, used):
        nonlocal nodes
        nodes += 1
        if len(seq) == total - 1:
            found["open"].append(tuple(seq))
        for p in range(min(used + 1, n)):
            new = word ^ (1 << p)
            if word >> p & 1:
                if queue[0] != p:
                    continue
                if new == 0:
                    if len(seq) == total - 1:
                        nodes += 1
                        found["cyclic"].append(tuple(seq) + (p,))
                    continue
                if new in seen:
                    continue
                queue.popleft()
                seen.add(new)
                seq.append(p)
                extend(new, used)
                seq.pop()
                seen.remove(new)
                queue.appendleft(p)
            else:
                if new in seen:
                    continue
                queue.append(p)
                seen.add(new)
                seq.append(p)
                extend(new, max(used, p + 1))
                seq.pop()
                seen.remove(new)
                queue.pop()

    extend(0, 0)
    codes = {
        mode: sorted(c for c in cands if least_image(n, c) == c)
        for mode, cands in found.items()
    }
    return codes, nodes
