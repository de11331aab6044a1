"""Inter-GPU interconnect models (NVLink bridge, NVSwitch, PCIe).

A transfer of ``b`` bytes over a link costs
``latency + b / bandwidth`` milliseconds per direction.  NVLink is full
duplex: opposite directions do not contend; transfers in the same
direction between the same GPU pair are serialized by the engine.

Presets follow the platforms of Section II-B: an NVLink 3 bridge with
112.5 GB/s *bidirectional* bandwidth (56.25 GB/s per direction) for the
A40/A5500 pairs, and PCIe Gen3 x16 (~15.75 GB/s) for the V100S pair.
The fixed latency term models the CUDA-aware-MPI per-message cost the
paper's Fig. 2 exposes at small tensor sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LinkModel", "NVLINK_BRIDGE", "NVSWITCH", "PCIE_GEN3_X16", "LINK_PRESETS"]


@dataclass(frozen=True)
class LinkModel:
    """Point-to-point interconnect between two GPUs."""

    name: str
    bandwidth_gbs: float  # per direction, GB/s
    latency_ms: float = 0.01  # per-message fixed cost (MPI + DMA setup)
    full_duplex: bool = True

    def __post_init__(self) -> None:
        if self.bandwidth_gbs <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.latency_ms < 0:
            raise ValueError("negative link latency")

    @property
    def bytes_per_ms(self) -> float:
        return self.bandwidth_gbs * 1e9 / 1e3

    def transfer_time(self, num_bytes: int) -> float:
        """One-way transfer time for ``num_bytes`` bytes, in ms."""
        if num_bytes < 0:
            raise ValueError("negative transfer size")
        return self.latency_ms + num_bytes / self.bytes_per_ms


NVLINK_BRIDGE = LinkModel(name="NVLink bridge", bandwidth_gbs=56.25)
NVSWITCH = LinkModel(name="NVSwitch", bandwidth_gbs=300.0)
PCIE_GEN3_X16 = LinkModel(name="PCIe Gen3 x16", bandwidth_gbs=15.75, latency_ms=0.02)

LINK_PRESETS: dict[str, LinkModel] = {
    "nvlink": NVLINK_BRIDGE,
    "nvswitch": NVSWITCH,
    "pcie3": PCIE_GEN3_X16,
}
