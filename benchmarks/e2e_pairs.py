"""Alternating paired runs of the end-to-end benchmark against a base revision.

Run from the repository root::

    python3 benchmarks/e2e_pairs.py --workload tpch-query --base HEAD \\
        --pairs 10 --seconds 10 --first-seed 1

Each pair runs ``e2ebench/run.py --trace 0`` once on the base revision and
once on the working tree, with its own seed (``--first-seed``, then one more
per pair); the side that runs first alternates from pair to pair.  The base
revision is checked out with ``git worktree add --detach`` into a temporary
directory that is removed on exit.  For every end-to-end metric in
``BENCHMARK.json`` the script prints each pair's values, each side's median
and quartiles, and the number of pairs the working tree wins (is better on,
in the metric's direction).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parents[1]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced e2ebench run in ``tree``; its final JSON line."""
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed in {tree}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(metrics: list, pairs: list) -> None:
    for pair in pairs:
        for side in ("base", "change"):
            result = pair[side]
            print(f"pair {pair['index']} seed {pair['seed']} {side}: "
                  f"{result['failed']} of {result['attempted']} operations failed")
    for spec in metrics:
        name, better = spec["name"], spec["better"]
        print(f"\n{name} ({spec['unit']}, {better} is better)")
        print(f"  {'pair':>4} {'seed':>5} {'first':>6} {'base':>14} {'change':>14} {'delta':>8}")
        base_values, change_values, wins = [], [], 0
        for pair in pairs:
            base = pair["base"]["metrics"][name]["value"]
            change = pair["change"]["metrics"][name]["value"]
            base_values.append(base)
            change_values.append(change)
            wins += change < base if better == "lower" else change > base
            delta = (change - base) / base if base else float("nan")
            print(f"  {pair['index']:>4} {pair['seed']:>5} {pair['first']:>6} "
                  f"{base:>14.6g} {change:>14.6g} {delta:>+8.2%}")
        for side, values in (("base", base_values), ("change", change_values)):
            q1, median, q3 = quartiles(values)
            print(f"  {side:>6} median {median:.6g} (quartiles {q1:.6g}-{q3:.6g}, "
                  f"IQR {q3 - q1:.3g})")
        print(f"  change wins {wins} of {len(pairs)} pairs")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    metrics = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())["end_to_end"]

    scratch = Path(tempfile.mkdtemp(prefix="e2e-pairs-"))
    base_tree = scratch / "base"
    try:
        subprocess.run(["git", "-C", str(ROOT_DIR), "worktree", "add", "--detach",
                        str(base_tree), args.base], check=True)
        pairs = []
        for index in range(args.pairs):
            seed = args.first_seed + index
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            pair = {"index": index + 1, "seed": seed, "first": order[0]}
            for side in order:
                tree = base_tree if side == "base" else ROOT_DIR
                pair[side] = run_once(tree, args.workload, seed, args.seconds)
                print(f"pair {index + 1}/{args.pairs} seed {seed}: {side} done",
                      file=sys.stderr, flush=True)
            pairs.append(pair)
    finally:
        subprocess.run(["git", "-C", str(ROOT_DIR), "worktree", "remove", "--force",
                        str(base_tree)], check=False)
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{args.workload}: base {args.base} vs working tree, {args.pairs} pairs of "
          f"{args.seconds:g} s runs, seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
    report(metrics, pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
