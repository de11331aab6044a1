"""Simulated CUDA-aware MPI fabric.

The paper's runtime uses one MPI process per GPU and CUDA-aware MPI
point-to-point transfers over NVLink/PCIe.  :class:`SimFabric` models
that transport: each ordered GPU pair ``(src, dst)`` is a FIFO channel —
messages in the same direction serialize, opposite directions share the
channel only when the link is not full duplex.  Each message carries
its duration: the engine posts the graph's edge weight, which
:class:`~repro.substrate.profiler.PlatformProfiler` prices through the
link model (latency + bytes / bandwidth) and the synthetic Section V
workloads carry directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .faults import FaultError, FaultPlan
from .link import LinkModel

__all__ = ["TransferRecord", "SimFabric"]


@dataclass(frozen=True)
class TransferRecord:
    """One completed (simulated) message.

    ``attempts`` counts the posts it took to deliver the message
    (1 = first try; more under an injected :class:`~repro.substrate.
    faults.TransferLoss`).  ``start_time`` is when the *successful*
    attempt started; lost attempts and their backoff windows sit
    between ``post_time`` and ``start_time``.
    """

    src: int
    dst: int
    tag: str
    post_time: float
    start_time: float
    finish_time: float
    num_bytes: int
    attempts: int = 1

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time

    @property
    def queue_delay(self) -> float:
        return self.start_time - self.post_time


class SimFabric:
    """All-to-all fabric of point-to-point FIFO channels.

    Each channel tracks a ``busy_until`` watermark: a message starts at
    ``max(post time, channel free)``, so messages on one channel never
    overlap regardless of the order posts arrive in (the engine may
    post future-dated sends when a host issues chained blocking
    MPI_Sends).  With ``serialize=False`` the fabric is idealized:
    every message starts at its post time (used to cross-validate the
    engine against the analytic evaluator, which does not model
    channel contention).
    """

    def __init__(
        self,
        num_gpus: int,
        link: LinkModel,
        serialize: bool = True,
        faults: FaultPlan | None = None,
    ) -> None:
        if num_gpus < 1:
            raise ValueError("fabric needs at least one GPU")
        self.num_gpus = num_gpus
        self.link = link
        self.serialize = serialize
        # an empty plan is falsy: treat it exactly like "no faults" so
        # fault-free runs stay bit-identical to the pre-fault fabric
        self.faults = faults if faults else None
        self._busy_until: dict[tuple[int, int], float] = {}
        self.records: list[TransferRecord] = []

    def _channel(self, src: int, dst: int) -> tuple[int, int]:
        if not (0 <= src < self.num_gpus and 0 <= dst < self.num_gpus):
            raise ValueError(f"GPU pair ({src}, {dst}) out of range")
        if src == dst:
            raise ValueError("no fabric transfer within one GPU")
        if self.link.full_duplex:
            return (src, dst)
        # half duplex: both directions share one channel
        return (min(src, dst), max(src, dst))

    def post_send(
        self,
        time: float,
        src: int,
        dst: int,
        duration: float,
        *,
        num_bytes: int = 0,
        tag: str = "",
    ) -> float:
        """Post a message of ``duration`` ms at ``time``; returns its
        delivery time.  ``num_bytes`` is recorded, not priced.

        Under an injected :class:`~repro.substrate.faults.TransferLoss`,
        a lost attempt occupies the channel until its timeout, then the
        message is re-posted after an exponentially growing backoff;
        exhausting the retry budget raises :class:`FaultError`.  A
        :class:`~repro.substrate.faults.LinkDegradation` active when the
        successful attempt starts stretches the transfer by the inverse
        of the compound bandwidth factor.
        """
        if duration < 0:
            raise ValueError("negative transfer duration")
        chan = self._channel(src, dst)
        if self.serialize:
            start = max(time, self._busy_until.get(chan, 0.0))
        else:
            start = time  # idealized fabric: unlimited channel capacity
        attempt = 1
        cost = duration
        if self.faults is not None:
            while True:
                loss = self.faults.lost(tag, attempt)
                if loss is None:
                    break
                if attempt > loss.max_retries:
                    raise FaultError(
                        f"transfer {tag!r} ({src}->{dst}) lost {attempt} "
                        f"attempts, exceeding max_retries={loss.max_retries}"
                    )
                detect = start + loss.timeout_ms
                if self.serialize:
                    # the failed attempt held the channel until detection
                    self._busy_until[chan] = max(
                        self._busy_until.get(chan, 0.0), detect
                    )
                start = detect + loss.backoff_delay(self.faults.seed, tag, attempt)
                attempt += 1
            # a degradation stretches the whole message: a duration has
            # no separable latency term to spare
            bw = self.faults.bw_factor(src, dst, start)
            if bw != 1.0:
                cost /= bw
        finish = start + cost
        self._busy_until[chan] = finish
        self.records.append(
            TransferRecord(
                src=src,
                dst=dst,
                tag=tag,
                post_time=time,
                start_time=start,
                finish_time=finish,
                num_bytes=num_bytes,
                attempts=attempt,
            )
        )
        return finish
