"""Stochastic hunting for large-n codes: anneal long partials, then backtrack.

Simulated annealing grows long Beckett-consistent partial sequences
(energy is minus the length; a move cuts a random suffix and regrows
randomly until stuck).  Promising prefixes seed a deterministic
backtracking completion, which starts from the annealer's own state cut
back to the prefix, with no replay of it.  ``hunt`` and ``anneal_partial``
call a batch of whole attempts (each the annealing, the cut and the
degree-pruned completion) through ``_kernel()``: a small C kernel,
``_anneal.c``, built on first use, or its Python twin ``_hunt_py`` where it
cannot be built.  Both take the same arguments, make the same draws and walk
the same nodes.
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
_CHUNK = 4096  # attempts per kernel call: about 0.15 s at n = 7, so Ctrl-C stays prompt


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
        for name, value in vars(self).items():  # the compiled kernel takes ints only
            if name != "mode" and not isinstance(value, int) and (
                    value is not None or name in ("n", "restarts", "rng_seed")):
                raise ValueError(f"{name}={value!r} is not an int")
        if not 1 <= self.n <= MAX_BITS:
            raise ValueError(f"n={self.n} outside [1, {MAX_BITS}]")
        if self.mode not in ("cyclic", "open"):
            raise ValueError(f"bad mode {self.mode!r}")
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
    Deterministic given ``config.rng_seed``.  The hunt attempt with the code
    length for handoff and one node of budget: that node is the partial.
    """
    length = config.complete_length
    _, got, out, _, _ = _kernel()(config.n, config.rng_seed, 1, length, length, 1)
    return _replay(config.n, out[:got]).sequence()


def _replay(n: int, symbols: bytes) -> SearchState:
    try:
        return SearchState.from_prefix(n, symbols)
    except ValueError as e:
        raise RuntimeError("the hunt kernel returned an illegal sequence") from e


def _hunt_py(n: int, first: int, count: int, length: int, handoff: int,
             budget: int) -> tuple[int, int, bytes, int, int]:
    """``_kernel()``'s batch in Python, the reference the compiled one follows: per
    seed, ``_anneal_py``, a cut back to ``handoff`` unless it is a code, ``_complete``."""
    longest = nodes = 0
    for seed in range(first, first + count):
        state = _anneal_py(n, seed, length, handoff or length)
        got, best = len(state.seq), bytes(state.seq).ljust(length, b"\0")
        longest = max(longest, got)
        if got < length:
            state.truncate(handoff)
        result = _complete(state, "cyclic" if length >> n else "open", budget or None)
        nodes += result.nodes
        if result.found is not None:
            return seed - first + 1, longest, bytes(result.found.symbols), nodes, 1
    return seed - first + 1, longest, best, nodes, -1 if result.proven_impossible else 0


def _anneal_py(n: int, seed: int, length: int, stop_len: int) -> SearchState:
    """Anneal from ``seed`` towards a code of ``length`` symbols, in a fresh state
    left at the best partial, stopping early at a partial of ``stop_len`` <=
    ``length`` symbols, so no move starts from a complete code."""
    rng = random.Random(seed)
    getrandbits = rng.getrandbits

    current = SearchState(n)
    current.descend(rng, length, restricted_growth=False)
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
            current.descend(rng, length, restricted_growth=False)
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
def _kernel() -> Callable[[int, int, int, int, int, int], tuple[int, int, bytes, int, int]]:
    """Hunt attempts as ``run(n, first, count, length, handoff, budget)`` for a
    code of ``length`` symbols (cyclic if 2**n), from the seeds ``first, first +
    1, ...``, until ``count`` >= 1 are made or one finds a code.  Each anneals
    until a partial of ``handoff or length`` symbols, cuts the best back to
    ``handoff`` unless it is a code, and completes it under ``budget`` nodes (0:
    no limit).  Returns the attempts made, the longest best partial, the code
    found or else the last best partial zero-padded to ``length`` bytes, the
    nodes summed and the last outcome (1 found, 0 out of budget, -1 none
    below).  The compiled ``bg_hunt``, or its twin ``_hunt_py`` if that cannot
    be built.  Tried once; ctypes is imported only here."""
    if os.name != "posix":
        return _hunt_py
    try:
        import ctypes

        library = ctypes.CDLL(_build())
    except (ImportError, OSError):
        return _hunt_py
    fn = library.bg_hunt
    c_int, c_double, c_longlong = ctypes.c_int, ctypes.c_double, ctypes.c_longlong
    fn.argtypes = (c_int, c_int, ctypes.c_char_p, c_int, c_int, c_int, c_int, c_longlong,
                   c_double, c_double, c_int, c_double, c_int, ctypes.c_char_p,
                   ctypes.POINTER(c_longlong))
    fn.restype = c_int

    def run(n, first, count, length, handoff, budget):
        # random.Random(seed) keys its generator by the 32-bit words of abs(seed)
        words = max(abs(first).bit_length() + 31 >> 5, 1)
        out, done = ctypes.create_string_buffer(length), (c_longlong * 3)()
        made = fn(n, first < 0, abs(first).to_bytes(4 * words, "little"), words, count, length,
                  handoff, min(budget, 1 << 62), INITIAL_TEMPERATURE, COOLING_FACTOR,
                  STEPS_PER_TEMPERATURE, TEMPERATURE_FLOOR, MAX_BACKTRACK_CUT, out, done)
        if made < 0:
            raise MemoryError("the hunt kernel could not allocate its state")
        return made, done[0], out.raw, done[1], done[2]

    return run


def _build() -> str:
    """Path of the kernel library, compiled on first use into the user's
    cache directory, named by a CRC of its source and compile command.
    Raises OSError if it cannot be built."""
    import tempfile
    import zlib

    with open(_KERNEL_SOURCE, "rb") as f:
        crc = zlib.crc32(f.read() + " ".join(_CC).encode())
    cache = os.environ.get("XDG_CACHE_HOME", "")  # a relative one is invalid: ignored
    cache = os.path.join(cache if os.path.isabs(cache) else os.path.expanduser("~/.cache"),
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
    if budget is not None and (not isinstance(budget, int) or budget < 1):
        # as AnnealConfig's completion_budget: 0 would drop a complete prefix
        raise ValueError(f"budget={budget!r} is not an int >= 1")
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
    attempt per restart until one finds a code, run by ``_kernel()`` in
    batches of at most ``_CHUNK``.  Attempt ``k`` anneals from the seed
    ``config.rng_seed * 1_000_003 + k``, recorded if it wins.
    """
    start = time.monotonic()
    run, n, first, best_partial = _kernel(), config.n, config.rng_seed * 1_000_003, 0
    args = config.complete_length, config.handoff, config.completion_budget or 0
    for done in range(0, config.restarts, _CHUNK):
        made, got, out, _, outcome = run(n, first + done, min(_CHUNK, config.restarts - done),
                                         *args)
        best_partial = max(best_partial, got)
        if outcome > 0:
            break
    found = _replay(n, out).sequence() if outcome > 0 else None
    return HuntResult(
        found=found,
        best_partial_length=best_partial if found is None else config.complete_length,
        attempts=done + made,
        elapsed=time.monotonic() - start,
        rng_seed=config.rng_seed,
        winning_seed=None if found is None else first + done + made - 1,
    )
