"""Tab. 2: source-code breakdown of the relational query processor.

The paper reports ~5,889 SLOC of C++ for eleven components built on
Pangea's services.  We report the same breakdown for this repository's
Python implementation — the point being that a complete distributed query
processor is a modest amount of code once the storage substrate provides
scan/shuffle/hash services.
"""

import os

from conftest import record_report

import repro.query

COMPONENTS = [
    ("Scan + Pipeline", ["query/pipeline.py"]),
    ("Expressions + operators", ["query/expressions.py", "query/operators.py"]),
    # The scheduler builds and probes both join maps with these kernels.
    ("Broadcast + partitioned hash map", ["query/batch.py"]),
    ("Shuffle service", ["services/shuffle.py"]),
    ("Hash service", ["services/hashsvc.py"]),
    ("QueryScheduling", ["query/scheduler.py"]),
]


def _sloc(path: str) -> int:
    count = 0
    in_docstring = False
    with open(path) as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            if in_docstring:
                if stripped.endswith('"""') or stripped.endswith("'''"):
                    in_docstring = False
                continue
            if stripped.startswith(('"""', "'''")):
                if not (len(stripped) > 3 and stripped.endswith(('"""', "'''"))):
                    in_docstring = True
                continue
            if stripped.startswith("#"):
                continue
            count += 1
    return count


def _collect():
    src_root = os.path.dirname(os.path.dirname(repro.query.__file__))
    rows = []
    total = 0
    for name, files in COMPONENTS:
        sloc = sum(_sloc(os.path.join(src_root, f)) for f in files)
        rows.append((name, sloc))
        total += sloc
    return rows, total


def test_tab2_query_processor_sloc(benchmark):
    rows, total = benchmark.pedantic(_collect, rounds=1, iterations=1)
    lines = [f"{'component':32s} {'SLOC':>6s}"]
    for name, sloc in rows:
        lines.append(f"{name:32s} {sloc:6d}")
    lines.append(f"{'Total':32s} {total:6d}")
    lines.append("")
    lines.append("paper (C++): 5,889 SLOC across eleven components")
    record_report("Tab. 2: query processor source-code breakdown", lines)
    # Python is denser than C++, but the order of magnitude should match
    # the paper's claim of a "modest effort" query processor.
    assert 800 <= total <= 10_000
