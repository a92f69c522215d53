import math

import pytest

from beckettgray.core import parse_symbols
from beckettgray.estimate import estimate_tree_size, exact_tree_size
from beckettgray.search import SearchConfig

EXACT_TREE_SIZES = {1: 3, 2: 5, 3: 14, 4: 263, 5: 537326}


class TestExactTreeSize:
    @pytest.mark.parametrize("n,expected", sorted(EXACT_TREE_SIZES.items()))
    def test_frozen_regression_values(self, n, expected):
        assert exact_tree_size(SearchConfig(n)) == expected

    def test_five_bit_tree_is_order_two_to_the_nineteen(self):
        assert 18.5 <= math.log2(EXACT_TREE_SIZES[5]) <= 19.5

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            exact_tree_size(SearchConfig(6))


class TestEstimator:
    def test_unbiased_at_small_n(self):
        for n in (3, 4):
            passes = 0
            for seed in (1, 2, 3):
                r = estimate_tree_size(SearchConfig(n), 20_000, seed)
                if abs(r.mean_nodes - EXACT_TREE_SIZES[n]) <= 3 * r.stderr:
                    passes += 1
            assert passes >= 2

    def test_deterministic_given_seed(self):
        a = estimate_tree_size(SearchConfig(4), 500, 42)
        b = estimate_tree_size(SearchConfig(4), 500, 42)
        assert a == b

    @pytest.mark.parametrize("seed,mean,stderr", [
        (0, 601203.252, 115927.41169684884),
        (1, 458476.058, 85314.27307886594),
        (2, 498077.49, 75562.79100921736),
    ])
    def test_random_stream_is_pinned(self, seed, mean, stderr):
        # recorded figures: a change to the draws or the float order shows here
        r = estimate_tree_size(SearchConfig(5), 1000, seed)
        assert (r.mean_nodes, r.stderr) == (mean, stderr)

    def test_report_fields_consistent(self):
        r = estimate_tree_size(SearchConfig(3), 1000, 0)
        assert r.mean_nodes >= 1
        assert r.stderr >= 0
        assert r.log2_mean == pytest.approx(math.log2(r.mean_nodes))

    def test_degenerate_chain_has_zero_stderr(self):
        # beneath this dead-end prefix the tree is a single node
        prefix = parse_symbols(3, "0102101")
        cfg = SearchConfig(3, prefix=prefix)
        r = estimate_tree_size(cfg, 100, 9)
        assert r.stderr == 0.0
        assert r.mean_nodes == exact_tree_size(cfg)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            estimate_tree_size(SearchConfig(3), 0, 0)
