"""The verdict rule of ``benchmarks/e2e_pairs.py`` on fixed pair lists."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e_pairs.py"
_SPEC = importlib.util.spec_from_file_location("e2e_pairs", _PATH)
e2e_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(e2e_pairs)
verdict = e2e_pairs.verdict

BASE = [10.0, 10.2, 9.8, 10.4, 9.6, 10.1, 9.9, 10.3, 9.7, 10.0]


class TestVerdict:
    def test_clear_gain(self):
        change = [b - 1.5 for b in BASE]
        assert verdict("lower", 0.25, BASE, change) == "gain"

    def test_gain_needs_nine_of_ten_wins(self):
        # Eight wins, each by far more than the base's quartile spread.
        change = [b - 1.5 for b in BASE[:8]] + [b + 0.1 for b in BASE[8:]]
        assert verdict("lower", 0.25, BASE, change) == "unresolved"
        change[8] = BASE[8] - 1.5
        assert verdict("lower", 0.25, BASE, change) == "gain"

    def test_gain_needs_medians_apart_by_more_than_the_base_iqr(self):
        # Ten wins of 0.1 each, inside the base's quartile spread (0.35).
        change = [b - 0.1 for b in BASE]
        assert verdict("lower", 0.25, BASE, change) == "unresolved"

    def test_higher_is_better(self):
        change = [b + 1.5 for b in BASE]
        assert verdict("higher", 0.25, BASE, change) == "gain"
        assert verdict("lower", 0.25, BASE, change) == "unresolved"

    @pytest.mark.parametrize("better, factor, expected", [
        ("lower", 1.3, "worse"),
        ("lower", 1.2, "unresolved"),
        ("higher", 0.7, "worse"),
        ("higher", 0.8, "unresolved"),
    ])
    def test_worse_beyond_the_relative_bound(self, better, factor, expected):
        change = [b * factor for b in BASE]
        assert verdict(better, 0.25, BASE, change) == expected

    def test_single_pair(self):
        assert verdict("lower", 0.1, [10.0], [9.0]) == "gain"
        assert verdict("lower", 0.1, [10.0], [10.5]) == "unresolved"
        assert verdict("lower", 0.1, [10.0], [11.5]) == "worse"
