"""Stochastic hunting for large-n codes: anneal long partials, then backtrack.

Simulated annealing grows long Beckett-consistent partial sequences
(energy is minus the length; a move cuts a random suffix and regrows
randomly until stuck).  Promising prefixes seed a deterministic
backtracking completion, which starts from the annealer's own state cut
back to the prefix, with no replay of it.  A whole hunt attempt (the
annealing, the cut and the degree-pruned completion) runs in a small C
kernel, ``_anneal.c``, built on first use, or in Python where it cannot be
built; both make the same draws and walk the same nodes.
"""

from __future__ import annotations

import functools
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .core import MAX_BITS, TransitionSequence
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

    def __post_init__(self):
        if not 1 <= self.n <= MAX_BITS:
            raise ValueError(f"n={self.n} outside [1, {MAX_BITS}]")
        if self.mode not in ("cyclic", "open"):
            raise ValueError(f"bad mode {self.mode!r}")
        if not isinstance(self.rng_seed, int):
            # random.Random would hash it; the compiled kernel takes ints only
            raise ValueError(f"rng_seed={self.rng_seed!r} is not an int")
        if self.restarts < 1:
            raise ValueError(f"restarts={self.restarts} below 1")
        budget = self.completion_budget
        if budget is not None and budget < 1:
            # a complete partial is the completion's first node: budget 0 would drop it
            raise ValueError(f"completion_budget={budget} below 1")
        length = self.seed_handoff_length
        if length is not None and not 0 <= length <= self.complete_length:
            raise ValueError(f"seed_handoff_length={length} outside [0, {self.complete_length}]")

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
    return _anneal(config, config.rng_seed, config.complete_length).sequence()


def _anneal(config: AnnealConfig, seed: int, stop_len: int) -> SearchState:
    """The annealing of ``anneal_partial`` from ``seed``, in a fresh state
    left at the partial it returns.  The schedule stops early once a
    partial of ``stop_len`` symbols is seen; ``stop_len`` is at most the
    code length, so no move starts from a complete code.

    Runs in the compiled kernel (``_anneal.c``) with the completion off, or
    in ``_anneal_py`` when the kernel cannot be built or loaded."""
    kernel = _kernel()
    if kernel is None:
        return _anneal_py(config, seed, stop_len)
    got, out, _, _ = kernel(config.n, seed, config.complete_length, stop_len, 0, -1)
    return _replay(config.n, out[:got])


def _attempt(config: AnnealConfig, seed: int) -> tuple[int, CompletionResult]:
    """One ``hunt`` attempt: the annealed partial's length, and the completion
    from the annealer's own state, cut back to the handoff unless it is a code
    (the walk's first node then).  Runs in the compiled kernel, or as
    ``_anneal_py``, ``truncate`` and ``_complete``."""
    stop_len = config.handoff or config.complete_length  # 0 anneals the full schedule
    kernel = _kernel()
    if kernel is None:
        state = _anneal_py(config, seed, stop_len)
        got = len(state.seq)
        if got < config.complete_length:
            state.truncate(config.handoff)
        return got, _complete(state, config.mode, config.completion_budget)
    got, out, nodes, outcome = kernel(config.n, seed, config.complete_length, stop_len,
                                      config.handoff, config.completion_budget or 0)
    found = _replay(config.n, out).sequence() if outcome > 0 else None
    return got, CompletionResult(found, outcome < 0, nodes)


def _replay(n: int, symbols: bytes) -> SearchState:
    try:
        return SearchState.from_prefix(n, symbols)
    except ValueError as e:
        raise RuntimeError("the attempt kernel returned an illegal sequence") from e


def _anneal_py(config: AnnealConfig, seed: int, stop_len: int) -> SearchState:
    """``_anneal`` in Python: the reference the kernel follows."""
    n = config.n
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    target = config.complete_length

    current = SearchState(n)
    current.descend(rng, target, restricted_growth=False)
    best = list(current.seq)

    temperature = INITIAL_TEMPERATURE
    while temperature > TEMPERATURE_FLOOR and len(best) < stop_len:
        for _ in range(STEPS_PER_TEMPERATURE):
            cur_len = len(current.seq)
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
        current = SearchState.from_prefix(n, best)
    return current


_KERNEL_SOURCE = os.path.join(os.path.dirname(__file__), "_anneal.c")
_CC = ("cc", "-O2", "-shared", "-fPIC")  # no -ffast-math: exp must be libm's, as math.exp is


@functools.cache
def _kernel() -> Optional[Callable[[int, int, int, int, int, int], tuple[int, bytes, int, int]]]:
    """The compiled attempt as ``run(n, seed, length, stop_len, handoff, budget)``
    for a code of ``length`` symbols: the best partial's length, the best partial
    or the code found, and the completion's node count and outcome (1 found, 0
    out of budget, -1 none below); a ``budget`` of 0 is no limit, -1 no completion.
    None if the kernel cannot be built.  Tried once; ctypes is imported only here."""
    if os.name != "posix":
        return None
    try:
        import ctypes

        library = ctypes.CDLL(_build())
    except (ImportError, OSError):
        return None
    fn = library.bg_attempt
    c_int, c_double, c_longlong = ctypes.c_int, ctypes.c_double, ctypes.c_longlong
    fn.argtypes = (c_int, ctypes.c_char_p, c_int, c_int, c_int, c_int, c_longlong, c_double,
                   c_double, c_int, c_double, c_int, ctypes.c_char_p, ctypes.POINTER(c_longlong))
    fn.restype = c_int

    def run(n, seed, length, stop_len, handoff, budget):
        # random.Random(seed) keys its generator by the 32-bit words of abs(seed)
        words = max(abs(seed).bit_length() + 31 >> 5, 1)
        out, done = ctypes.create_string_buffer(length), (c_longlong * 2)()
        got = fn(n, abs(seed).to_bytes(4 * words, "little"), words, length, stop_len, handoff,
                 min(budget, 1 << 62), INITIAL_TEMPERATURE, COOLING_FACTOR,
                 STEPS_PER_TEMPERATURE, TEMPERATURE_FLOOR, MAX_BACKTRACK_CUT, out, done)
        if got < 0:
            raise MemoryError("the attempt kernel could not allocate its state")
        return got, out.raw, done[0], done[1]

    return run


def _build() -> str:
    """Path of the kernel library, compiled on first use into the user's
    cache directory, named by a CRC of its source and compile command.
    Raises OSError if it cannot be built."""
    import tempfile
    import zlib

    with open(_KERNEL_SOURCE, "rb") as f:
        crc = zlib.crc32(f.read() + " ".join(_CC).encode())
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                         "beckettgray")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    st = os.stat(cache)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        # another user could plant the library that gets loaded
        raise PermissionError(f"{cache} is not private to this user")
    path = os.path.join(cache, f"_anneal-{crc:08x}.so")
    if not os.path.exists(path):
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            # posix_spawn, not subprocess, whose import alone would add 0.6 MB
            # to the caller's peak memory; cc's messages go to /dev/null
            quiet = [(os.POSIX_SPAWN_OPEN, out, os.devnull, os.O_WRONLY, 0) for out in (1, 2)]
            pid = os.posix_spawnp(_CC[0], [*_CC, "-o", tmp, _KERNEL_SOURCE, "-lm"], os.environ,
                                  file_actions=quiet)
            if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                raise OSError(f"{_CC[0]} could not build {_KERNEL_SOURCE}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


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
    """Anneal, truncate to the handoff length, complete by backtracking: one
    ``_attempt`` per restart until one finds a code.  Attempt ``k`` anneals from
    the seed ``config.rng_seed * 1_000_003 + k``, recorded if it wins.
    """
    start = time.monotonic()
    best_partial = 0
    base = config.rng_seed
    for attempt in range(config.restarts):
        seed = base * 1_000_003 + attempt
        got, completion = _attempt(config, seed)
        best_partial = max(best_partial, got)
        if (found := completion.found) is not None:
            break
    return HuntResult(
        found=found,
        best_partial_length=best_partial if found is None else config.complete_length,
        attempts=attempt + 1,
        elapsed=time.monotonic() - start,
        rng_seed=base,
        winning_seed=None if found is None else seed,
    )
