"""Machine-readable copies of the known published Beckett-Gray codes."""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

from .beckett import BeckettKind, classify_beckett
from .canonical import canonicalize
from .core import TransitionSequence, read_sequence_file


@dataclass(frozen=True)
class FixtureEntry:
    label: str
    n: int
    mode: str  # open | cyclic
    seq: TransitionSequence
    # False for published codes whose reversal relabels to something smaller
    expected_least: bool = True


@dataclass(frozen=True)
class FixtureCheck:
    label: str
    classified: str
    expected: str
    canonical: bool
    expected_least: bool

    @property
    def passed(self) -> bool:
        return self.classified == self.expected and self.canonical == self.expected_least


def load_fixtures() -> list[FixtureEntry]:
    text = (
        importlib.resources.files("beckettgray")
        .joinpath("data/published_codes.txt")
        .read_text()
    )
    entries: list[FixtureEntry] = []
    for header, seq in read_sequence_file(text.splitlines()):
        label = header["label"]
        count = sum(1 for e in entries if e.label.startswith(label))
        name = label if count == 0 else f"{label}#{count}"
        least = header.get("least") != "no"
        entries.append(FixtureEntry(name, seq.n, header["mode"], seq, least))
    return entries


def self_check() -> list[FixtureCheck]:
    """Classify and canonicalize every fixture; each must match its label."""
    checks = []
    for entry in load_fixtures():
        expected = (
            BeckettKind.CYCLIC.value if entry.mode == "cyclic" else BeckettKind.OPEN.value
        )
        classified = classify_beckett(entry.seq).kind.value
        canonical = canonicalize(entry.seq).symbols == entry.seq.symbols
        checks.append(
            FixtureCheck(entry.label, classified, expected, canonical, entry.expected_least)
        )
    return checks
