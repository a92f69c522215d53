"""Isomorphism handling for Beckett-Gray codes and general cyclic Gray codes.

Beckett canonicalization quotients by bit-position relabeling and by
reversal only; XOR-ing a fixed word onto every code word can destroy the
queue discipline, so word addition never appears in Beckett witnesses.
The self-reverse checker for general cyclic Gray codes allows a rotation
and, optionally, an added word; it searches no relabelings, because each
rotation forces the relabeling through the transition strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .beckett import BeckettKind, classify_beckett
from .core import (
    GrayKind,
    TransitionSequence,
    WordPath,
    classify_gray,
    transitions_of,
)


class IncompleteAlphabetError(ValueError):
    """A relabeling was requested for a sequence missing some bit position."""


class IncomparableCodesError(ValueError):
    """Isomorphism was tested between codes of different n or mode."""


@dataclass(frozen=True)
class IsomorphismWitness:
    """A concrete map taking one code to another (or to its own reversal)."""

    rho: tuple[int, ...]  # bit-position relabeling, rho[old] = new
    reversed: bool
    added_word: Optional[int] = None  # general-Gray checks only
    rotation: Optional[int] = None    # cyclic general-Gray checks only


def relabel_first_occurrence(seq: TransitionSequence) -> TransitionSequence:
    """Relabel symbols to 0,1,2,... in order of first occurrence.

    The result is the lexicographically least image of ``seq`` over all n!
    relabelings (a restricted-growth string).
    """
    mapping: dict[int, int] = {}
    out = []
    for s in seq.symbols:
        if s not in mapping:
            mapping[s] = len(mapping)
        out.append(mapping[s])
    if len(mapping) != seq.n:
        missing = sorted(set(range(seq.n)) - set(mapping))
        raise IncompleteAlphabetError(f"positions {missing} never occur")
    return TransitionSequence(seq.n, tuple(out))


def reverse_seq(seq: TransitionSequence) -> TransitionSequence:
    """Reverse the transition sequence (the time reversal of the code)."""
    return TransitionSequence(seq.n, seq.symbols[::-1])


def canonicalize(seq: TransitionSequence) -> TransitionSequence:
    """Lexicographically least zero-anchored image under relabeling and reversal.

    The reversed transition string, replayed from the all-zero word, is
    always a Beckett code for cyclic inputs (the queue starts and ends
    empty) but not necessarily for open ones, where the reversed run
    would begin with a non-empty stage.  The reversal candidate therefore
    participates only when it is itself a valid zero-anchored Beckett
    code, which keeps canonicalize closed over actual codes.
    """
    forward = relabel_first_occurrence(seq)
    backward = relabel_first_occurrence(reverse_seq(seq))
    kind = classify_beckett(backward).kind
    if kind in (BeckettKind.OPEN, BeckettKind.CYCLIC):
        return min(forward, backward, key=lambda s: s.symbols)
    return forward


def _match_relabeling(
    a: tuple[int, ...], b: tuple[int, ...], n: int, shift: int = 0
) -> Optional[tuple[int, ...]]:
    """Find rho with rho[a[i]] == b[(i + shift) % len(b)] for all i, or None.

    Every position 0..n-1 must occur in ``a``, so a match defines all of rho.
    """
    rho: list[int] = [-1] * n
    used = [False] * n
    size = len(b)
    for i, x in enumerate(a):
        y = b[(i + shift) % size]
        if rho[x] == -1:
            if used[y]:
                return None
            rho[x] = y
            used[y] = True
        elif rho[x] != y:
            return None
    return tuple(rho)


def are_isomorphic_beckett(
    a: TransitionSequence, b: TransitionSequence
) -> Optional[IsomorphismWitness]:
    """Witness taking complete Beckett-Gray code ``a`` to ``b``, if any.

    Tries the non-reversed map first, so isomorphic-and-equal inputs get
    the identity witness.
    """
    if a.n != b.n:
        raise IncomparableCodesError(f"n mismatch: {a.n} vs {b.n}")
    if len(a) != len(b):
        raise IncomparableCodesError(f"mode mismatch: lengths {len(a)} vs {len(b)}")
    if canonicalize(a).symbols != canonicalize(b).symbols:
        return None
    for rev in (False, True):
        cand = a.symbols[::-1] if rev else a.symbols
        rho = _match_relabeling(cand, b.symbols, a.n)
        if rho is not None:
            return IsomorphismWitness(rho=rho, reversed=rev)
    return None


def _cyclic_transitions(path: WordPath) -> TransitionSequence:
    """Validate a complete cyclic Gray code and return its transitions."""
    seq = transitions_of(path)
    if path.words[0] != 0:
        raise ValueError("cyclic word path must be anchored at the all-zero word")
    if classify_gray(seq).kind is not GrayKind.CYCLIC:
        raise ValueError("word path is not a complete cyclic Gray code")
    return seq


def self_reverse_witness(
    path: WordPath, allow_addition: bool
) -> Optional[IsomorphismWitness]:
    """Find an isomorphism taking a cyclic Gray code to its reversal.

    With ``rev[j] == cycle[-j]``, a map ``rho(cycle[i]) ^ added == rev[i + r]``
    (indices mod the cycle size) sends each transition ``t[i]`` of the cycle
    to the transition ``u[i + r]`` of the reversal, and ``cycle[0] == 0``
    forces ``added == rev[r]``.  So each rotation ``r`` forces the relabeling,
    read off by matching the transition strings, and the added word; without
    addition only ``r == 0`` has ``rev[r] == 0``.  Of all matching rotations
    the witness has the lexicographically least ``rho``, then the least ``r``.
    """
    t = _cyclic_transitions(path).symbols
    size = len(t)
    u = t[::-1]  # u[j] is the bit flipped between rev[j] and rev[j + 1]
    best: Optional[tuple[tuple[int, ...], int]] = None
    for r in range(size if allow_addition else 1):
        rho = _match_relabeling(t, u, path.n, r)
        if rho is not None and (best is None or rho < best[0]):
            best = (rho, r)
    if best is None:
        return None
    rho, r = best
    added = path.words[-r % size]  # rev[r]
    return IsomorphismWitness(rho=rho, reversed=True, added_word=added or None, rotation=r)
