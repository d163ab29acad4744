"""The page-image encoder's dtype-code memo changes no encoding.

``_reduce_array`` remembers each builtin dtype's code by object identity.
A dtype with metadata compares and hashes equal to plain ``float64``, and
``>f8`` is a different builtin-looking code, so the memo must never let
one stand in for another, whatever order the process meets them in.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.fs.page_file import encode_image, page_checksum

#: name -> expression building the array in a fresh interpreter.
ARRAYS = {
    "plain": "np.arange(4.0)",
    "metadata": "np.arange(4.0).astype(np.dtype(float, metadata={'unit': 'm'}))",
    "big_endian": "np.arange(4.0).astype('>f8')",
}

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def encodings_in_fresh_process(order: list) -> list:
    """Hex encodings of ``[array]`` for each named array, in ``order``,
    all in one new interpreter."""
    script = (
        "import numpy as np\n"
        "from repro.fs.page_file import encode_image\n"
        f"for expr in {[ARRAYS[name] for name in order]!r}:\n"
        "    print(encode_image([eval(expr)]).hex())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    ).stdout
    return out.split()


@pytest.fixture(scope="module")
def alone() -> dict:
    """Each array's encoding in a process that has encoded nothing else."""
    return {name: encodings_in_fresh_process([name])[0] for name in ARRAYS}


@pytest.mark.parametrize("order", [
    ["plain", "metadata", "big_endian"],
    ["big_endian", "metadata", "plain"],
])
def test_memo_order_does_not_change_any_encoding(order, alone):
    assert encodings_in_fresh_process(order) == [alone[name] for name in order]


def test_this_process_agrees_with_a_fresh_one(alone):
    for name, expr in ARRAYS.items():
        assert encode_image([eval(expr)]).hex() == alone[name]


def checksum(records) -> int:
    return page_checksum(encode_image(records))


def test_metadata_only_change_changes_the_checksum():
    plain = np.arange(4.0)
    checksum([plain])  # memoizes float64's code first
    tagged = plain.astype(np.dtype(float, metadata={"unit": "m"}))
    assert tagged.dtype == plain.dtype and hash(tagged.dtype) == hash(plain.dtype)
    assert checksum([tagged]) != checksum([plain])
    retagged = plain.astype(np.dtype(float, metadata={"unit": "s"}))
    assert checksum([retagged]) != checksum([tagged])
    assert checksum([plain.astype(">f8")]) != checksum([plain])


def test_each_array_writes_its_own_dtype_code():
    """The pickler memoizes by identity: a shared code string would turn
    the second array's code into a memo reference and change the bytes."""
    image = encode_image([np.arange(2.0), np.arange(2.0) + 1, np.arange(3.0)])
    code = b"\x8c\x03<f8"  # SHORT_BINUNICODE '<f8'
    assert image.count(code) == 3
