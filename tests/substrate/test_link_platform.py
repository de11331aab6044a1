"""Unit tests for link models, platforms and the MPI fabric."""

import pytest

from repro.substrate import (
    LinkModel,
    NVLINK_BRIDGE,
    PCIE_GEN3_X16,
    SimFabric,
    dual_a40,
    dual_v100s,
    nvswitch_platform,
)


class TestLinkModel:
    def test_transfer_time(self):
        link = LinkModel("test", bandwidth_gbs=1.0, latency_ms=0.5)
        # 1 GB/s = 1e6 bytes per ms
        assert link.transfer_time(2_000_000) == pytest.approx(2.5)
        assert link.transfer_time(0) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel("bad", bandwidth_gbs=0)
        with pytest.raises(ValueError):
            LinkModel("bad", bandwidth_gbs=1, latency_ms=-1)
        link = LinkModel("t", bandwidth_gbs=1)
        with pytest.raises(ValueError):
            link.transfer_time(-5)

    def test_nvlink_faster_than_pcie(self):
        nbytes = 10_000_000
        assert NVLINK_BRIDGE.transfer_time(nbytes) < PCIE_GEN3_X16.transfer_time(nbytes)


class TestPlatform:
    def test_presets(self):
        p = dual_a40()
        assert p.num_gpus == 2
        assert "A40" in p.device.name
        assert dual_v100s().link is PCIE_GEN3_X16
        assert nvswitch_platform(8).num_gpus == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            nvswitch_platform(0)

    def test_transfer_time_delegates(self):
        p = dual_a40()
        assert p.transfer_time(1000) == p.link.transfer_time(1000)


class TestSimFabric:
    def test_fifo_serialization_same_direction(self):
        fabric = SimFabric(2, LinkModel("t", bandwidth_gbs=1.0, latency_ms=0.0))
        t1 = fabric.post_send(0.0, 0, 1, duration=2.0, tag="m1")
        t2 = fabric.post_send(0.5, 0, 1, duration=2.0, tag="m2")
        assert t1 == 2.0
        assert t2 == 4.0  # queued behind m1
        assert fabric.records[1].queue_delay == pytest.approx(1.5)

    def test_full_duplex_directions_independent(self):
        fabric = SimFabric(2, LinkModel("t", bandwidth_gbs=1.0))
        fabric.post_send(0.0, 0, 1, duration=5.0)
        back = fabric.post_send(0.0, 1, 0, duration=1.0)
        assert back == pytest.approx(1.0)

    def test_half_duplex_shares_channel(self):
        fabric = SimFabric(2, LinkModel("t", bandwidth_gbs=1.0, full_duplex=False))
        fabric.post_send(0.0, 0, 1, duration=5.0)
        back = fabric.post_send(0.0, 1, 0, duration=1.0)
        assert back == pytest.approx(6.0)

    def test_out_of_order_posts_still_serialize(self):
        fabric = SimFabric(2, NVLINK_BRIDGE)
        first = fabric.post_send(5.0, 0, 1, duration=1.0)
        # an earlier-dated post still queues behind the busy channel
        second = fabric.post_send(1.0, 0, 1, duration=1.0)
        assert first == pytest.approx(6.0)
        assert second == pytest.approx(7.0)

    def test_idealized_fabric_never_queues(self):
        fabric = SimFabric(2, NVLINK_BRIDGE, serialize=False)
        fabric.post_send(0.0, 0, 1, duration=5.0)
        again = fabric.post_send(0.0, 0, 1, duration=1.0)
        assert again == pytest.approx(1.0)

    def test_invalid_pairs(self):
        fabric = SimFabric(2, NVLINK_BRIDGE)
        with pytest.raises(ValueError):
            fabric.post_send(0.0, 0, 0, duration=1.0)
        with pytest.raises(ValueError):
            fabric.post_send(0.0, 0, 5, duration=1.0)
        with pytest.raises(ValueError):
            fabric.post_send(0.0, 0, 1, duration=-1.0)
