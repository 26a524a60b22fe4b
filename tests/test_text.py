"""The array row writer of _text against the %-format it replaces.

Every test name holds "serialize", so the python -bb run in
test_robustness.py selects them.
"""

import numpy as np
import pytest

from oracles import percent_rows
from pioucrypt import _text
from pioucrypt.oea import OeaCipher, serialize_oea

INT64 = np.iinfo(np.int64)
BLOCK = _text.BLOCK_VALUES

# every digit count with its edges, both signs, and the ends of int64
INT_EDGES = [0, INT64.min, INT64.max, INT64.min + 1, INT64.max - 1] + [
    sign * (10**k + delta) for k in range(19) for delta in (-1, 0) for sign in (1, -1)
]


def written(rows, tag=b""):
    return b"".join(_text.write_rows(rows, tag))


@pytest.mark.parametrize("columns", [1, 2, 3, len(INT_EDGES)])
def test_serialize_int_edges_match_percent_format(columns):
    values = np.array(INT_EDGES[: len(INT_EDGES) // columns * columns], np.int64).reshape(-1, columns)
    assert written(values) == percent_rows(values)
    assert written(values, b"R") == percent_rows(values, b"R")


def test_serialize_ints_across_the_int64_range_match_percent_format():
    rng = np.random.default_rng(28)
    # magnitudes of every size: a random digit count, then random digits
    sizes = rng.integers(0, 64, 3 * BLOCK)
    values = rng.integers(INT64.min, INT64.max, 3 * BLOCK, endpoint=True) >> sizes
    values = np.concatenate((values, INT_EDGES)).reshape(-1, 1)
    assert written(values) == percent_rows(values)
    assert written(values.reshape(1, -1)) == percent_rows(values.reshape(1, -1))


@pytest.mark.parametrize("rows", [1, BLOCK, BLOCK + 1])
def test_serialize_rows_across_block_edges_match_percent_format(rows):
    rng = np.random.default_rng(rows)
    ints = rng.integers(-(10**12), 10**12, (rows, 2))
    assert written(ints, b"C") == percent_rows(ints, b"C")
    assert written(np.zeros((0, 2), np.int64)) == b""


@pytest.mark.parametrize("count", [0, 1, 2])
def test_serialize_short_int_sections_match_percent_format(count):
    values = np.array(INT_EDGES[1 : 1 + count], np.int64)
    cipher = OeaCipher(b"", b"0" * count + b"1" * count, values, -values, np.empty(0, np.int64))
    lines = serialize_oea(cipher).split(b"\n")
    assert lines[3:] == [b" ".join(b"%d" % v for v in section.tolist()) for section in (values, -values)] + [b"", b""]
