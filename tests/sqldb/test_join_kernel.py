"""The executor's whole-array kernels against the per-row Python they replaced.

``_hash_join_pairs`` is checked against the hash join's former dict
build/probe, kept here verbatim as the reference: the same ``(left row,
right row)`` arrays in the same order, and the same governor admissions.
Per-group TEXT MIN/MAX is checked against Python's ``min``/``max``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sqldb import ast_nodes as ast
from repro.sqldb.errors import RowBudgetExceeded
from repro.sqldb.executor import _compute_aggregate, _hash_join_pairs
from repro.sqldb.expr_eval import EvalContext, Params, Vec
from repro.sqldb.types import SqlType

CASES = 600


class RecordingGovernor:
    """Records every admission; refuses one above *limit* pairs."""

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.calls: list[tuple[int, int, str]] = []

    def admit(self, rows: int, est_bytes: int, node_name: str) -> None:
        self.calls.append((rows, est_bytes, node_name))
        if self.limit is not None and rows > self.limit:
            raise RowBudgetExceeded(f"{node_name} would materialize {rows}")


def reference_pairs(left_codes, left_valid, right_codes, right_valid, governor):
    """The hash join's dict build/probe as it was, over 1-D key arrays."""
    table: dict[object, list[int]] = {}
    for i in np.flatnonzero(right_valid):
        table.setdefault(right_codes[i], []).append(int(i))
    left_idx: list[int] = []
    right_idx: list[int] = []
    for i in np.flatnonzero(left_valid):
        bucket = table.get(left_codes[i])
        if not bucket:
            continue
        before = len(left_idx)
        left_idx.extend([int(i)] * len(bucket))
        right_idx.extend(bucket)
        if governor is not None:
            # A skewed key can explode the output quadratically: admit
            # the growth at every 8,192nd pair, however many pairs one
            # key contributes.
            for pairs in range((before | 0x1FFF) + 1, len(left_idx) + 1, 0x2000):
                governor.admit(pairs, 0, "HashJoinNode")
    li = np.array(left_idx, dtype=np.int64)
    ri = np.array(right_idx, dtype=np.int64)
    return li, ri


def as_reference_codes(columns: list[np.ndarray]) -> np.ndarray:
    """One key column as is; a composite key as a 1-D array of tuples."""
    if len(columns) == 1:
        return columns[0]
    codes = np.empty(len(columns[0]), dtype=object)
    codes[:] = list(zip(*columns))
    return codes


# -- seeded key arrays ---------------------------------------------------------


def float_column(rng, n: int, domain: int) -> np.ndarray:
    values = rng.integers(0, domain, n).astype(np.float64)
    pick = rng.random(n)
    values[pick < 0.08] = np.nan
    values[(pick >= 0.08) & (pick < 0.14)] = -0.0
    values[(pick >= 0.14) & (pick < 0.20)] = 0.0
    # Distinct integers above 2**53 collapse onto one float64 value.
    big = (pick >= 0.20) & (pick < 0.26)
    values[big] = (2**53 + rng.integers(0, 3, int(big.sum()))).astype(np.float64)
    return values


def text_column(rng, n: int, domain: int) -> np.ndarray:
    words = np.array(
        ["", "a", "ab", "b", "nan", "0.0", "-0.0", "é", "zz"][: max(domain, 1)],
        dtype=object,
    )
    return words[rng.integers(0, len(words), n)]


def key_side(rng, n: int, kinds: list[str], domain: int, null_rate: float):
    columns = [
        text_column(rng, n, domain) if kind == "text" else float_column(rng, n, domain)
        for kind in kinds
    ]
    valid = rng.random(n) >= null_rate
    return columns, valid


def make_case(seed: int):
    rng = np.random.default_rng(seed)
    shape = seed % 6
    width = 1 if shape < 3 else int(rng.integers(2, 4))
    left_kinds = [str(rng.choice(["float", "text"])) for _ in range(width)]
    right_kinds = list(left_kinds)
    if rng.random() < 0.1:  # a TEXT key against a non-TEXT one
        flip = int(rng.integers(0, width))
        right_kinds[flip] = "text" if left_kinds[flip] == "float" else "float"
    domain = int(rng.integers(1, 9))
    n_left, n_right = (int(v) for v in rng.integers(0, 60, 2))
    if shape == 5:  # one heavily skewed key: thousands of pairs from one value
        domain = 1
        n_left, n_right = (int(v) for v in rng.integers(120, 220, 2))
    if rng.random() < 0.08:
        n_left = 0
    if rng.random() < 0.08:
        n_right = 0
    null_rate = float(rng.choice([0.0, 0.1, 0.5]))
    left = key_side(rng, n_left, left_kinds, domain, null_rate)
    right = key_side(rng, n_right, right_kinds, domain, null_rate)
    limit = int(rng.integers(0x2000, 0x5000)) if rng.random() < 0.4 else None
    return left, right, limit


def run(pairs_fn, left, right, codes_fn, limit):
    """``(pairs or None, refusal message or None, admissions)``."""
    governor = RecordingGovernor(limit)
    try:
        pairs = pairs_fn(
            codes_fn(left[0]), left[1], codes_fn(right[0]), right[1], governor
        )
    except RowBudgetExceeded as exc:
        return None, str(exc), governor.calls
    return pairs, None, governor.calls


class TestHashJoinKernel:
    def test_matches_the_dict_build_probe(self):
        total_pairs = skewed = refused = 0
        for seed in range(CASES):
            left, right, limit = make_case(seed)
            got, got_refusal, got_calls = run(
                _hash_join_pairs, left, right, list, limit
            )
            want, want_refusal, want_calls = run(
                reference_pairs, left, right, as_reference_codes, limit
            )
            assert got_calls == want_calls, seed
            assert got_refusal == want_refusal, seed
            if want is None:
                refused += 1
                continue
            for got_idx, want_idx in zip(got, want):
                assert got_idx.dtype == np.int64, seed
                np.testing.assert_array_equal(got_idx, want_idx, err_msg=str(seed))
            total_pairs += len(want[0])
            skewed += len(want[0]) > 0x2000
        # The seeds reach the cases the kernel must get right.
        assert total_pairs > 100_000
        assert skewed >= 20
        assert refused >= 5

    @pytest.mark.parametrize("n_left", [63, 64, 65, 128])
    def test_admits_every_8192nd_pair(self, n_left):
        # One key value, 128 right rows: n_left * 128 pairs in all.
        left = [np.zeros(n_left)], np.ones(n_left, dtype=bool)
        right = [np.zeros(128)], np.ones(128, dtype=bool)
        got, _, got_calls = run(_hash_join_pairs, left, right, list, None)
        want, _, want_calls = run(
            reference_pairs, left, right, as_reference_codes, None
        )
        total = n_left * 128
        assert [rows for rows, _, _ in got_calls] == list(
            range(0x2000, total + 1, 0x2000)
        )
        assert got_calls == want_calls
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_key_equality_rules(self):
        nan, big = np.nan, float(2**53)
        left = [np.array([nan, -0.0, big, 1.0, 2.0])]
        right = [np.array([0.0, nan, big + 1, 2.0, 1.0])]
        valid = np.array([True, True, True, True, False])
        li, ri = _hash_join_pairs(left, valid, right, np.ones(5, dtype=bool))
        # NaN matches nothing, -0.0 matches 0.0, 2**53 + 1 rounds onto
        # 2**53, and the NULL left row 4 matches nothing.
        assert list(zip(li, ri)) == [(1, 0), (2, 2), (3, 4)]

    def test_text_never_equals_non_text(self):
        text = [np.array(["1.0", "1"], dtype=object)]
        number = [np.array([1.0, 1.0])]
        every = np.ones(2, dtype=bool)
        for left, right in ((text, number), (number, text)):
            li, ri = _hash_join_pairs(left, every, right, every)
            assert len(li) == len(ri) == 0

    def test_pair_order_is_left_then_right_row(self):
        left = [
            np.array(["b", "a", "b"], dtype=object),
            np.array([1.0, 2.0, 1.0]),
        ]
        right = [
            np.array(["b", "a", "b", "b"], dtype=object),
            np.array([1.0, 2.0, 3.0, 1.0]),
        ]
        li, ri = _hash_join_pairs(
            left, np.ones(3, dtype=bool), right, np.ones(4, dtype=bool)
        )
        assert list(zip(li, ri)) == [(0, 0), (0, 3), (1, 1), (2, 0), (2, 3)]


def text_extreme(name: str, data, mask, codes, num_groups):
    call = ast.FunctionCall(name, [ast.ColumnRef("t", None)])
    context = EvalContext(
        {"t": Vec(data, mask, SqlType.TEXT)}, len(data), {}, Params({}, {})
    )
    return _compute_aggregate(call, codes, num_groups, context)


class TestTextMinMax:
    @pytest.mark.parametrize("name", ["min", "max"])
    def test_matches_python_per_group(self, name):
        words = np.array(
            ["", "a", "A", "ab", "b", "ba", "é", "z", "10", "9"], dtype=object
        )
        reduce = min if name == "min" else max
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(0, 40))
            # With few rows, some groups get no row at all.
            num_groups = int(rng.integers(1, 8))
            codes = rng.integers(0, num_groups, n).astype(np.int64)
            data = words[rng.integers(0, len(words), n)]
            mask = rng.random(n) < float(rng.choice([0.0, 0.3, 1.0]))
            data[mask] = None
            got = text_extreme(name, data, mask, codes, num_groups)
            want = []
            for group in range(num_groups):
                members = [
                    str(data[i]) for i in range(n) if codes[i] == group and not mask[i]
                ]
                want.append(reduce(members) if members else None)
            got_values = [
                None if got.mask is not None and got.mask[g] else got.data[g]
                for g in range(num_groups)
            ]
            assert got_values == want, seed
            assert got.sql_type is SqlType.TEXT
            assert (got.mask is None) == all(v is not None for v in want), seed
