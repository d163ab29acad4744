"""The verdict rule of ``benchmarks/e2e_pairs.py`` on fixed pair lists."""

import importlib.util
import subprocess
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

    @pytest.mark.parametrize("pairs", [4, 9])
    def test_gain_needs_ten_pairs(self, pairs):
        # Every pair won by far more than the base's quartile spread.
        change = [b - 1.5 for b in BASE[:pairs]]
        assert verdict("lower", 0.25, BASE[:pairs], change) == "unresolved"

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
        assert verdict("lower", 0.1, [10.0], [9.0]) == "unresolved"
        assert verdict("lower", 0.1, [10.0], [10.5]) == "unresolved"
        assert verdict("lower", 0.1, [10.0], [11.5]) == "worse"



def files_under(root: Path) -> list:
    return sorted(str(path.relative_to(root)) for path in root.rglob("*") if path.is_file())


class TestSideTrees:
    """Both sides of a pair run from plain directories: the base
    revision's files and a copy of the working tree."""

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        repo = tmp_path / "repo"
        (repo / "pkg").mkdir(parents=True)
        (repo / ".gitignore").write_text("*.log\n")
        (repo / "pkg" / "kept.py").write_text("committed\n")
        (repo / "gone.py").write_text("deleted after commit\n")
        git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run(git[:3] + ["init", "-q"], check=True)
        subprocess.run(git + ["add", "-A"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
        (repo / "pkg" / "kept.py").write_text("edited\n")
        (repo / "gone.py").unlink()
        (repo / "new.py").write_text("untracked\n")
        (repo / "run.log").write_text("ignored\n")
        monkeypatch.setattr(e2e_pairs, "ROOT_DIR", repo)
        return repo

    def test_working_tree_copy_has_tracked_and_untracked_not_ignored_files(
        self, repo, tmp_path
    ):
        dest = tmp_path / "work"
        e2e_pairs.copy_working_tree(dest)
        assert files_under(dest) == [".gitignore", "new.py", "pkg/kept.py"]
        assert (dest / "pkg" / "kept.py").read_text() == "edited\n"

    def test_base_export_has_the_committed_files_only(self, repo, tmp_path):
        dest = tmp_path / "base"
        e2e_pairs.export_revision("HEAD", dest)
        assert files_under(dest) == [".gitignore", "gone.py", "pkg/kept.py"]
        assert (dest / "pkg" / "kept.py").read_text() == "committed\n"


class TestDirectorySwap:
    """The two side directories swap names every two pairs, so neither the
    run order nor the path can stand in for the side."""

    def test_each_side_runs_from_each_name_first_and_second_once_in_four_pairs(self):
        runs = [
            (side, name, position)
            for index in range(4)
            for position, (side, name) in enumerate(e2e_pairs.pair_plan(index))
        ]
        assert sorted(runs) == sorted(
            (side, name, position)
            for side in ("base", "change")
            for name in ("a", "b")
            for position in (0, 1)
        )

    def test_both_sides_never_share_a_name(self):
        for index in range(8):
            plan = e2e_pairs.pair_plan(index)
            assert {side for side, _ in plan} == {"base", "change"}
            assert {name for _, name in plan} == {"a", "b"}

    def test_swap_names_exchanges_the_contents(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "side.txt").write_text(name)
        e2e_pairs.swap_names(tmp_path / "a", tmp_path / "b")
        assert (tmp_path / "a" / "side.txt").read_text() == "b"
        assert (tmp_path / "b" / "side.txt").read_text() == "a"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a", "b"]
