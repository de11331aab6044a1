"""Tests for the repro.serve/v1 configuration contract."""

import pytest

from repro.serve import ServeConfig, ServeConfigError, TenantSpec
from repro.serve.config import SERVE_CONFIG_FORMAT


def _tenant(**kwargs):
    defaults = dict(name="t", model="tiny", rate_qps=10.0)
    defaults.update(kwargs)
    return TenantSpec(**defaults)


class TestTenantSpec:
    def test_needs_name_and_some_arrivals(self):
        with pytest.raises(ServeConfigError, match=r"error\[V002\] tenants\[0\]\.name"):
            _tenant(name="")
        with pytest.raises(ServeConfigError, match=r"error\[V003\] tenants\[0\]: .* no requests"):
            _tenant(rate_qps=0.0)
        with pytest.raises(ServeConfigError, match=r"error\[V003\] tenants\[0\]\.rate_qps"):
            _tenant(rate_qps=-1.0)
        with pytest.raises(ServeConfigError, match=r"error\[V003\] tenants\[0\]\.arrivals_ms\[0\]"):
            _tenant(arrivals_ms=(-0.5,))
        with pytest.raises(ServeConfigError, match="deadline"):
            _tenant(deadline_ms=0.0)

    def test_checks_every_field_it_holds(self):
        # a falsy rate that is no number still reaches the checked document
        with pytest.raises(ServeConfigError, match=r"error\[V011\] tenants\[0\]\.rate_qps"):
            _tenant(rate_qps=None, arrivals_ms=(1.0,))

    def test_round_trip(self):
        t = _tenant(arrivals_ms=(1.0, 2.0), priority=2, deadline_ms=40.0)
        assert TenantSpec.from_dict(t.to_dict()) == t


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ServeConfigError, match=r"error\[V002\] tenants: .* non-empty array"):
            ServeConfig(tenants=())
        with pytest.raises(ServeConfigError, match="duplicate tenant"):
            ServeConfig(tenants=(_tenant(), _tenant()))
        with pytest.raises(ServeConfigError, match="gpus_per_query"):
            ServeConfig(tenants=(_tenant(),), num_gpus=2, gpus_per_query=3)
        with pytest.raises(ServeConfigError, match="degraded_gpus"):
            ServeConfig(tenants=(_tenant(),), gpus_per_query=2, degraded_gpus=3)
        with pytest.raises(ServeConfigError, match=r"error\[V005\] algorithm"):
            ServeConfig(tenants=(_tenant(),), algorithm="magic")
        with pytest.raises(ServeConfigError, match="horizon"):
            ServeConfig(tenants=(_tenant(),), horizon_ms=0.0)

    def test_fault_specs_checked_eagerly(self):
        with pytest.raises(ServeConfigError, match=r"error\[V006\] faults\[0\]: unknown fault"):
            ServeConfig(tenants=(_tenant(),), faults=("bogus:1@2",))
        with pytest.raises(ServeConfigError, match=r"error\[V006\] faults\[0\]: F001"):
            # GPU index out of the pool's range
            ServeConfig(tenants=(_tenant(),), num_gpus=2, faults=("fail:5@1",))
        ServeConfig(tenants=(_tenant(),), num_gpus=2, faults=("fail:1@1",))  # ok

    def test_round_trip(self):
        cfg = ServeConfig(
            tenants=(_tenant(), _tenant(name="u", priority=1)),
            num_gpus=3,
            gpus_per_query=2,
            seed=9,
            faults=("fail:1@50", "loss:0.05:jitter"),
        )
        doc = cfg.to_dict()
        assert doc["format"] == SERVE_CONFIG_FORMAT
        assert ServeConfig.from_dict(doc) == cfg

    def test_from_dict_rejects_wrong_format(self):
        with pytest.raises(ServeConfigError, match=r"error\[V001\] format"):
            ServeConfig.from_dict({"format": "repro.cache/v1"})
