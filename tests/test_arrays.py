"""The sorted-unique helper, and the guard that keeps numpy's hash-based
``unique`` out of ``src/``."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.arrays import sorted_unique

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: numpy set routines that take the hash path on numpy 2 (or wrap one).
HASHED = {"unique", "union1d", "intersect1d", "setdiff1d"}


class TestSortedUnique:
    @given(
        values=st.lists(st.integers(-50, 50), max_size=200),
        dtype=st.sampled_from([np.int16, np.int32, np.int64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_np_unique(self, values, dtype):
        ids = np.asarray(values, dtype=dtype)
        got, want = sorted_unique(ids), np.unique(ids)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_empty_and_all_duplicates(self):
        empty = np.empty(0, dtype=np.int64)
        assert sorted_unique(empty).dtype == np.int64
        assert sorted_unique(empty).size == 0
        assert sorted_unique(np.full(7, 3)).tolist() == [3]

    def test_flattens_and_leaves_input_alone(self):
        ids = np.array([[5, 1], [5, 2]])
        assert sorted_unique(ids).tolist() == [1, 2, 5]
        assert ids.tolist() == [[5, 1], [5, 2]]


def _hashed_calls(path: pathlib.Path, root: pathlib.Path = SRC) -> list[str]:
    """``np.<routine>(...)`` calls in ``path`` that take numpy's hash path:
    any union/intersect/setdiff, and a ``unique`` asked for no
    ``return_*`` output (those take the sort path already)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and node.func.attr in HASHED
        ):
            continue
        if node.func.attr == "unique" and any(
            (kw.arg or "").startswith("return_") for kw in node.keywords
        ):
            continue
        found.append(f"{path.relative_to(root)}:{node.lineno} np.{node.func.attr}")
    return found


def test_no_hashed_unique_in_src():
    offenders = [hit for path in sorted(SRC.rglob("*.py")) for hit in _hashed_calls(path)]
    assert not offenders, (
        "plain np.unique / np.union1d / np.intersect1d / np.setdiff1d take "
        "numpy 2's hash path, measured 20-40x slower than one sort on "
        "placement-sized id arrays (368-488 us against 16 us at 2,400 ids); "
        "use repro.utils.arrays.sorted_unique instead: " + ", ".join(offenders)
    )


def test_guard_sees_a_plain_unique(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b = np.unique(x, return_counts=True)\n"
        "c = np.union1d(x, y)\n"
    )
    assert _hashed_calls(probe, tmp_path) == ["probe.py:2 np.unique", "probe.py:4 np.union1d"]
