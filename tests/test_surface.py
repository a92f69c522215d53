"""The public surface: the package's ``__all__``, every CLI option and
the fields of the two config classes.

Simplifications must keep all three as they are; a change here is an API
or CLI change and should be made on purpose.  Also: bad config input
raises ``ValueError``, and no function in the package calls itself.
"""

import argparse
import ast
import dataclasses
from pathlib import Path

import pytest

import beckettgray
from beckettgray import cli
from beckettgray.anneal import AnnealConfig, complete_backtrack
from beckettgray.core import TransitionSequence, parse_symbols
from beckettgray.estimate import estimate_tree_size
from beckettgray.search import (
    EnumerationReport, SearchConfig, count_shallow_nodes, split_prefixes, split_tree,
)

FULL_5 = parse_symbols(5, "01020132010432104342132340412304")

PUBLIC_NAMES = [
    "AnnealConfig", "BeckettClassification", "BeckettKind", "BeckettViolation",
    "BeckettViolationError", "CompletionResult", "EnumerationReport", "EstimateReport",
    "GrayClassification", "GrayKind", "HuntResult", "IsomorphismWitness", "SearchConfig",
    "TransitionSequence", "TwoStackState", "WordPath", "anneal_partial", "apply_transitions",
    "are_isomorphic_beckett", "brgc", "canonicalize", "classify_beckett", "classify_gray",
    "complete_backtrack", "enumerate_beckett", "enumerate_gray_cycles_small",
    "estimate_tree_size", "exact_tree_size", "hunt", "is_two_stack_realizable",
    "load_fixtures", "queue_trace", "relabel_first_occurrence", "reverse_seq", "self_check",
    "self_reverse_witness", "split_prefixes", "transitions_of", "two_stack_trace",
]

CLI_OPTIONS = {
    "verify": ["-h", "--help", "-n", "--trace", "--json"],
    "canonicalize": ["-h", "--help", "-n", "--witness"],
    "enumerate": ["-h", "--help", "-n", "--mode", "--prefix", "--jobs", "--depth", "--out",
                  "--count-only", "--node-limit", "--time-limit", "--json"],
    "estimate": ["-h", "--help", "-n", "--mode", "--samples", "--seed", "--json"],
    "hunt": ["-h", "--help", "-n", "--mode", "--seed", "--restarts", "--budget", "--handoff",
             "--out"],
    "brgc": ["-h", "--help", "-n", "--trace"],
    "selfcheck": ["-h", "--help"],
}

CONFIG_FIELDS = {
    SearchConfig: ["n", "mode", "prefix", "node_limit", "time_limit", "emit"],
    AnnealConfig: ["n", "mode", "seed_handoff_length", "completion_budget", "restarts",
                   "rng_seed"],
}


def test_public_names():
    assert sorted(beckettgray.__all__) == PUBLIC_NAMES


def test_cli_options():
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    assert {name: [s for a in p._actions for s in a.option_strings]
            for name, p in sub.choices.items()} == CLI_OPTIONS


def test_config_fields():
    assert {cls: [f.name for f in dataclasses.fields(cls)] for cls in CONFIG_FIELDS} == (
        CONFIG_FIELDS)


@pytest.mark.parametrize("make", [
    lambda: AnnealConfig(n=4, mode="both"),
    lambda: complete_backtrack(TransitionSequence(3, ()), "both"),
    lambda: SearchConfig(3, mode="x"),
    lambda: SearchConfig(3, emit="x"),
    lambda: SearchConfig(3, prefix=TransitionSequence(4, ())),
    lambda: EnumerationReport(3, "both").merge(EnumerationReport(4, "both")),
    # the ranges the CLI checks, and a budget that would drop a complete partial
    lambda: SearchConfig(0),
    lambda: SearchConfig(40),
    lambda: SearchConfig(3, node_limit=-1),
    lambda: SearchConfig(3, time_limit=-1.0),
    lambda: SearchConfig(3, time_limit=float("nan")),
    lambda: AnnealConfig(n=4, restarts=0),
    lambda: AnnealConfig(n=4, restarts=-1),
    lambda: AnnealConfig(n=4, completion_budget=0),
    # counts that are not ints: a float node limit is never met exactly, and
    # the compiled hunt takes ints only
    lambda: SearchConfig(3.0),
    lambda: SearchConfig(5, node_limit=100.5),
    lambda: AnnealConfig(n=5.0),
    lambda: AnnealConfig(n=5, restarts=2.0),
    lambda: AnnealConfig(n=5, completion_budget=2.5),
    lambda: AnnealConfig(n=5, seed_handoff_length=20.0),
    lambda: estimate_tree_size(SearchConfig(3), 10.5, 1),
    lambda: estimate_tree_size(SearchConfig(3), 10, 1.5),
    # a completion budget as AnnealConfig's: from a complete code, budget 0
    # would report neither the code nor a proof
    lambda: complete_backtrack(FULL_5, "cyclic", 0),
    lambda: complete_backtrack(FULL_5, "cyclic", -1),
    lambda: complete_backtrack(FULL_5, "cyclic", 2.5),
    # a negative split depth would give the root shard, a float one no shard
    lambda: split_prefixes(3, -1),
    lambda: split_tree(3, 2.5),
    lambda: count_shallow_nodes(3, -1),
], ids=["anneal-mode", "complete-mode", "search-mode", "search-emit", "search-prefix-n",
        "merge-n", "search-n0", "search-n40", "search-node-limit-1", "search-time-limit-1",
        "search-time-limit-nan", "anneal-restarts0", "anneal-restarts-1", "anneal-budget0",
        "search-n-float", "search-node-limit-float", "anneal-n-float", "anneal-restarts-float",
        "anneal-budget-float", "anneal-handoff-float", "estimate-samples-float",
        "estimate-seed-float", "complete-budget0", "complete-budget-1", "complete-budget-float",
        "split-depth-1", "split-depth-float", "shallow-depth-1"])
def test_bad_input_is_rejected(make):
    with pytest.raises(ValueError):
        make()


def _self_calls(tree):
    """The name of each function that calls itself by name, or as ``self.``
    or ``cls.`` and its own name."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == fn.name
                    or isinstance(node.func, ast.Attribute) and node.func.attr == fn.name
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("self", "cls")
                ):
                    yield fn.name
                    break


def test_no_recursive_function():
    # the searches are iterative walks: recursion to depth 2**n hit
    # Python's recursion limit from n = 10 on
    found = [f"{path.name}:{name}"
             for path in sorted(Path(beckettgray.__file__).parent.glob("*.py"))
             for name in _self_calls(ast.parse(path.read_text()))]
    assert found == []
