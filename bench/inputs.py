"""Benchmark inputs: the reference code list and the seeded ``verify`` inputs.

``python3 bench/inputs.py`` makes ``bench/data/codes.txt`` anew from the
reference enumeration (about a second).  ``load_codes`` reads it back and
checks it against the paper's counts and the reference checker before
any workload uses it.
"""

from __future__ import annotations

import random
from pathlib import Path

import reference

CODES_FILE = Path(__file__).resolve().parent / "data" / "codes.txt"
MAX_N = 5

# The paper's counts: cyclic codes, and open codes without a one-flip
# closure ("strict"); at n = 5 also all open codes.
PAPER_CYCLIC = {1: 1, 2: 1, 3: 0, 4: 0, 5: 8}
PAPER_STRICT_OPEN = {1: 0, 2: 0, 3: 1, 4: 4, 5: 116}
PAPER_OPEN_N5 = 132
# Sizes of the restricted-growth search tree, frozen in the ROADMAP.
TREE_SIZES = {1: 3, 2: 5, 3: 14, 4: 263, 5: 537_326}

# Short large-n inputs: Beckett-consistent partials and one-symbol mutants.
# Lengths and the mutated position are fixed, so that every seed gives the
# same amount of work.
PARTIAL_BITS = range(16, 21)
PARTIAL_LENGTHS = (256, 512, 768, 1024)


def write_codes(path: Path = CODES_FILE) -> None:
    lines = [
        "# Least Beckett-Gray codes for n <= 5, one class per line, made by the",
        "# reference enumeration in bench/reference.py.  Remake with",
        "#   python3 bench/inputs.py",
        "# 'tree' lines give the size of the restricted-growth search tree.",
    ]
    for n in range(1, MAX_N + 1):
        codes, nodes = reference.enumerate_codes(n)
        lines.append(f"tree n={n} nodes={nodes}")
        for mode in ("cyclic", "open"):
            lines.append(f"n={n} mode={mode}")
            lines.extend("".join(map(str, c)) for c in codes[mode])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


class CodeList:
    """The checked contents of the code file."""

    def __init__(self, codes: dict, tree_sizes: dict):
        self.codes = codes  # (n, mode) -> list of symbol tuples
        self.tree_sizes = tree_sizes

    def counts(self, n: int) -> tuple[int, int, int]:
        """(cyclic, open, strict open) at ``n``."""
        opens = self.codes[n, "open"]
        strict = sum(not reference.closable(c) for c in opens)
        return len(self.codes[n, "cyclic"]), len(opens), strict


def load_codes(path: Path = CODES_FILE) -> CodeList:
    codes: dict = {}
    tree_sizes: dict = {}
    key = None
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("tree "):
            fields = dict(f.split("=") for f in line.split()[1:])
            tree_sizes[int(fields["n"])] = int(fields["nodes"])
        elif line.startswith("n="):
            fields = dict(f.split("=") for f in line.split())
            key = (int(fields["n"]), fields["mode"])
            codes[key] = []
        else:
            codes[key].append(tuple(int(c) for c in line))
    listed = CodeList(codes, tree_sizes)
    problems = []
    if tree_sizes != TREE_SIZES:
        problems.append(f"tree sizes {tree_sizes} != {TREE_SIZES}")
    for n in range(1, MAX_N + 1):
        cyclic, opens, strict = listed.counts(n)
        if (cyclic, strict) != (PAPER_CYCLIC[n], PAPER_STRICT_OPEN[n]):
            problems.append(f"n={n}: {cyclic} cyclic, {strict} strict open")
        for mode in ("cyclic", "open"):
            for c in codes[n, mode]:
                if reference.beckett_kind(n, c)[0] != f"{mode}-beckett":
                    problems.append(f"n={n}: {mode} code {c} is not one")
                elif reference.least_image(n, c) != c:
                    problems.append(f"n={n}: {c} is not least in its class")
    if listed.counts(5)[1] != PAPER_OPEN_N5:
        problems.append(f"n=5: {listed.counts(5)[1]} open codes")
    if problems:
        raise ValueError(f"{path} fails its checks: " + "; ".join(problems))
    return listed


def _permutation(rng: random.Random, n: int) -> list[int]:
    rho = list(range(n))
    rng.shuffle(rho)
    return rho


def code_images(rng: random.Random, sources: list) -> list:
    """Two images per source code: relabeled, and reversed then relabeled.

    ``sources`` holds (n, symbols) pairs.  Returns (source index, image)
    pairs.  A reversed open code is often not a code at all; it still goes
    in, as an input the classifiers must reject correctly.
    """
    images = []
    for i, (n, symbols) in enumerate(sources):
        for seq in (symbols, symbols[::-1]):
            rho = _permutation(rng, n)
            images.append((i, tuple(rho[s] for s in seq)))
    return images


def random_partial(rng: random.Random, n: int, length: int) -> tuple:
    """A Beckett-consistent partial of ``length`` symbols grown by random flips.

    A uniformly random walk fills the queue and soon gets stuck, so the
    walk dequeues whenever the queue holds more than half the positions and
    starts afresh if it still gets stuck.
    """
    while True:
        seen = {0}
        word = 0
        queue: list[int] = []
        seq = []
        while len(seq) < length:
            moves = [p for p in range(n) if not word >> p & 1 and word | 1 << p not in seen]
            if queue and word ^ (1 << queue[0]) not in seen:
                if len(queue) > n // 2:
                    moves = []
                moves.append(queue[0])
            if not moves:
                break
            p = rng.choice(moves)
            if word >> p & 1:
                queue.pop(0)
            else:
                queue.append(p)
            word ^= 1 << p
            seen.add(word)
            seq.append(p)
        if len(seq) == length:
            return tuple(seq)


def mutant(rng: random.Random, n: int, partial: tuple) -> tuple:
    """``partial`` with one symbol, three quarters in, changed so it breaks a rule."""
    k = len(partial) * 3 // 4
    while True:
        s = rng.randrange(n - 1)
        s += s >= partial[k]
        seq = partial[:k] + (s,) + partial[k + 1:]
        if reference.beckett_kind(n, seq)[0] in ("not-gray", "not-beckett"):
            return seq


def short_inputs(rng: random.Random) -> list:
    """(n, symbols) pairs: partials and mutants at n = 16..20."""
    out = []
    for n in PARTIAL_BITS:
        for length in PARTIAL_LENGTHS:
            partial = random_partial(rng, n, length)
            out.append((n, partial))
            out.append((n, mutant(rng, n, partial)))
    return out


if __name__ == "__main__":
    write_codes()
    listed = load_codes()
    print(f"wrote {CODES_FILE}: n=5 counts {listed.counts(5)}")
