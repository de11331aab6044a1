"""Unit + property tests for the t(S) concurrency models."""

import pytest
from hypothesis import given, strategies as st

from repro.core import Operator
from repro.costmodel import (
    MaxConcurrencyModel,
    SaturationConcurrencyModel,
    SumConcurrencyModel,
    TableConcurrencyModel,
)


def ops_of(*specs):
    return [Operator(f"v{i}", cost=c, occupancy=u) for i, (c, u) in enumerate(specs)]


class TestMaxAndSum:
    def test_max(self):
        m = MaxConcurrencyModel()
        assert m.duration(ops_of((2, 1), (3, 1))) == 3
        assert m.duration([]) == 0.0

    def test_sum(self):
        m = SumConcurrencyModel()
        assert m.duration(ops_of((2, 1), (3, 1))) == 5
        assert m.duration([]) == 0.0


class TestSaturation:
    def test_singleton_identity(self):
        m = SaturationConcurrencyModel(0.06)
        (op,) = ops_of((2.5, 0.7))
        assert m.duration([op]) == pytest.approx(2.5)

    def test_two_small_ops_run_at_max(self):
        m = SaturationConcurrencyModel(0.06)
        assert m.duration(ops_of((2, 0.4), (2, 0.4))) == pytest.approx(2.0)

    def test_two_saturating_ops_contend(self):
        m = SaturationConcurrencyModel(0.06)
        # work = 4, excess occupancy = 1 -> 4 * 1.06
        assert m.duration(ops_of((2, 1.0), (2, 1.0))) == pytest.approx(4.24)

    def test_fig1_regimes(self):
        """parallel/sequential ratio: 0.5 for small ops, > 1 for large."""
        m = SaturationConcurrencyModel(0.06)
        small = ops_of((1, 0.3), (1, 0.3))
        large = ops_of((1, 1.0), (1, 1.0))
        assert m.duration(small) / 2.0 == pytest.approx(0.5)
        assert m.duration(large) / 2.0 > 1.0

    def test_stream_overhead(self):
        m = SaturationConcurrencyModel(0.0, stream_overhead=0.1)
        assert m.duration(ops_of((1, 0.2), (1, 0.2))) == pytest.approx(1.1)
        # singletons unaffected
        assert m.duration(ops_of((1, 0.2))) == pytest.approx(1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SaturationConcurrencyModel(-0.1)
        with pytest.raises(ValueError):
            SaturationConcurrencyModel(0.1, stream_overhead=-1)

    @given(
        costs=st.lists(st.floats(0.01, 10, allow_nan=False), min_size=1, max_size=6),
        occs=st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=6, max_size=6),
        lam=st.floats(0, 0.5),
        kappa=st.floats(0, 0.5),
    )
    def test_invariants(self, costs, occs, lam, kappa):
        m = SaturationConcurrencyModel(lam, kappa)
        ops = [
            Operator(f"v{i}", cost=c, occupancy=occs[i]) for i, c in enumerate(costs)
        ]
        d = m.duration(ops)
        # never faster than the longest member
        assert d >= max(c for c in costs) - 1e-12
        # never slower than fully serialized with both penalties applied
        ceiling = sum(costs) * (1 + lam * len(costs)) * (1 + kappa * len(costs))
        assert d <= ceiling + 1e-9


class TestTable:
    def test_hit_and_fallback(self):
        t = TableConcurrencyModel(fallback=MaxConcurrencyModel())
        ops = ops_of((2, 1), (3, 1))
        assert t.duration(ops) == 3.0  # fallback
        t.record(["v0", "v1"], 4.5)
        assert t.duration(ops) == 4.5
        assert len(t) == 1

    def test_order_insensitive_keys(self):
        t = TableConcurrencyModel()
        t.record(["b", "a"], 7.0)
        ops = [Operator("a"), Operator("b")]
        assert t.duration(ops) == 7.0
        assert t.duration(list(reversed(ops))) == 7.0

    def test_negative_duration_rejected(self):
        t = TableConcurrencyModel()
        with pytest.raises(ValueError):
            t.record(["a"], -1.0)

    def test_initial_table(self):
        t = TableConcurrencyModel({frozenset({"a"}): 9.0})
        assert t.duration([Operator("a", cost=1.0)]) == 9.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -3.0], ids=repr)
    def test_initial_table_entries_are_checked(self, bad):
        """The constructor applies :meth:`record`'s check to every entry,
        so no scheduler optimizes a NaN or negative ``t(S)``."""
        table = {frozenset({"a", "b"}): 1.5, frozenset({"c"}): bad}
        with pytest.raises(ValueError, match="finite and non-negative"):
            TableConcurrencyModel(table)

    def test_default_fallback_is_saturation(self):
        t = TableConcurrencyModel()
        (op,) = ops_of((2.0, 1.0))
        assert t.duration([op]) == pytest.approx(2.0)
