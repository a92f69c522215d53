"""Stochastic hunting for large-n codes: anneal long partials, then backtrack.

Simulated annealing grows long Beckett-consistent partial sequences
(energy is minus the length; a move cuts a random suffix and regrows
randomly until stuck).  Promising prefixes seed a deterministic
backtracking completion, which starts from the annealer's own state cut
back to the prefix, with no replay of it.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from typing import Optional

from .core import TransitionSequence
from .search import SearchState

INITIAL_TEMPERATURE = 2.0
COOLING_FACTOR = 0.995
STEPS_PER_TEMPERATURE = 200
TEMPERATURE_FLOOR = 0.05
MAX_BACKTRACK_CUT = 12  # longest suffix one move cuts


@dataclass(frozen=True)
class AnnealConfig:
    n: int
    mode: str = "cyclic"  # cyclic | open
    # default 5/8 of the word count: short enough that attempts stay
    # millisecond-scale, long enough that completion subtrees are searchable
    seed_handoff_length: Optional[int] = None
    completion_budget: Optional[int] = 300_000  # nodes per completion attempt
    restarts: int = 30_000
    rng_seed: int = 0
    # annealing stops early once a partial at least this long is seen;
    # None runs the full cooling schedule
    target_length: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("cyclic", "open"):
            raise ValueError(f"bad mode {self.mode!r}")
        for name in ("seed_handoff_length", "target_length"):
            value = getattr(self, name)
            if value is not None and not 0 <= value <= self.complete_length:
                raise ValueError(f"{name}={value} outside [0, {self.complete_length}]")

    @property
    def handoff(self) -> int:
        if self.seed_handoff_length is not None:
            return self.seed_handoff_length
        if self.n < 3:
            return (1 << self.n) - 1
        return 5 << (self.n - 3)

    @property
    def complete_length(self) -> int:
        return (1 << self.n) - (0 if self.mode == "cyclic" else 1)


@dataclass
class HuntResult:
    found: Optional[TransitionSequence]
    best_partial_length: int
    attempts: int
    elapsed: float
    rng_seed: int
    winning_seed: Optional[int] = None


@dataclass
class CompletionResult:
    found: Optional[TransitionSequence]
    proven_impossible: bool
    nodes: int = 0


def anneal_partial(config: AnnealConfig) -> TransitionSequence:
    """Grow a long Beckett-consistent partial sequence by annealing.

    Every intermediate state is a valid partial code: moves cut a random
    suffix and regrow greedily, so no penalty terms are needed.
    Deterministic given ``config.rng_seed``.
    """
    return _anneal(config).sequence()


def _anneal(config: AnnealConfig) -> SearchState:
    """The annealing of ``anneal_partial``, in a fresh state left at the
    partial it returns."""
    n = config.n
    rng = random.Random(config.rng_seed)
    getrandbits = rng.getrandbits
    target = config.complete_length
    stop_len = config.target_length or target

    current = SearchState(n)
    current.descend(rng, target, restricted_growth=False)
    best = list(current.seq)

    temperature = INITIAL_TEMPERATURE
    while temperature > TEMPERATURE_FLOOR and len(best) < stop_len:
        for _ in range(STEPS_PER_TEMPERATURE):
            cur_len = len(current.seq)
            if cur_len >= target:
                break
            # the cut is rng.randint(1, m), drawn inline as Random draws it
            m = min(MAX_BACKTRACK_CUT, max(cur_len, 1))
            bits = m.bit_length()
            r = getrandbits(bits)
            while r >= m:
                r = getrandbits(bits)
            keep = max(0, cur_len - 1 - r)
            suffix = current.seq[keep:]
            current.truncate(keep)
            current.descend(rng, target, restricted_growth=False)
            new_len = len(current.seq)
            if new_len < cur_len and rng.random() >= math.exp(
                (new_len - cur_len) / temperature
            ):
                # rejected: restore the suffix that was cut
                current.truncate(keep)
                for p in suffix:
                    current.push(p)
            if len(current.seq) > len(best):
                best = list(current.seq)
                if len(best) >= stop_len:
                    break
        temperature *= COOLING_FACTOR
    if current.seq != best:
        # the schedule ran out after accepting a move away from the best
        current = SearchState.from_prefix(n, TransitionSequence(n, tuple(best)))
    return current


def complete_backtrack(
    prefix: TransitionSequence,
    mode: str = "cyclic",
    budget: Optional[int] = None,
) -> CompletionResult:
    """Exhaustive lexicographic DFS over extensions of ``prefix``.

    No restricted-growth pruning: the prefix already fixes the labeling.
    The walk's degree prune for ``mode`` cuts only subtrees that hold no
    completion.  Returns the first completion in lexicographic order, or
    reports whether absence was proven or merely budgeted out.
    """
    if mode not in ("cyclic", "open"):
        raise ValueError(f"bad mode {mode!r}")
    try:
        state = SearchState.from_prefix(prefix.n, prefix)
    except ValueError:
        # the prefix itself revisits a word or breaks the queue discipline
        return CompletionResult(found=None, proven_impossible=True)
    return _complete(state, mode, budget)


def _complete(state: SearchState, mode: str, budget: Optional[int]) -> CompletionResult:
    """The walk of ``complete_backtrack``, from ``state`` as it stands."""
    target = (1 << state.n) - (0 if mode == "cyclic" else 1)
    result = CompletionResult(found=None, proven_impossible=False)
    for depth in state.walk(target, restricted_growth=False, prune=mode):
        result.nodes += 1
        if budget is not None and result.nodes > budget:
            return result
        if depth == target:  # every word is visited from depth 2**n - 1 on
            result.found = state.sequence()
            return result
    result.proven_impossible = True
    return result


def hunt(config: AnnealConfig) -> HuntResult:
    """Anneal, truncate to the handoff length, complete by backtracking.

    The completion starts from the annealer's own state, cut back to the
    handoff length, with no replay of the prefix.

    Restarts use seeds derived from ``config.rng_seed``; the result
    records the seed of the winning attempt.
    """
    start = time.monotonic()
    best_partial = 0
    base = config.rng_seed
    for attempt in range(config.restarts):
        seed = base * 1_000_003 + attempt
        attempt_config = replace(
            config,
            rng_seed=seed,
            target_length=config.target_length or config.handoff,
        )
        state = _anneal(attempt_config)
        best_partial = max(best_partial, len(state.seq))
        if len(state.seq) == config.complete_length:
            found = state.sequence()  # the annealer itself finished
        else:
            state.truncate(config.handoff)
            found = _complete(state, config.mode, config.completion_budget).found
        if found is not None:
            return HuntResult(
                found=found,
                best_partial_length=max(best_partial, len(found)),
                attempts=attempt + 1,
                elapsed=time.monotonic() - start,
                rng_seed=base,
                winning_seed=seed,
            )
    return HuntResult(
        found=None,
        best_partial_length=best_partial,
        attempts=config.restarts,
        elapsed=time.monotonic() - start,
        rng_seed=base,
    )
