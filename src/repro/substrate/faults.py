"""Declarative fault injection for the simulated multi-GPU substrate.

A production serving stack must keep meeting latency targets when the
machine misbehaves: a GPU throttles, a device drops off the bus, an
NVLink lane degrades, or a CUDA-aware-MPI message times out and must be
retried.  This module gives the engine and the fabric a *declarative*
fault model:

* :class:`GpuSlowdown` — from time ``at``, GPU ``gpu`` runs at
  ``factor`` times its profiled speed (``factor < 1`` is a straggler).
* :class:`GpuFailure` — at time ``at``, GPU ``gpu`` fail-stops.  The
  engine halts the run and reports a :class:`FailureEvent`; the repair
  path (:mod:`repro.core.repair`) re-schedules the unfinished subgraph
  onto the survivors.
* :class:`GpuRepair` — at time ``at``, GPU ``gpu`` returns from reset.
  Recovery is a *pool-level* concept: the serving simulator
  (:mod:`repro.serve.simulator`) revives the GPU into its free set,
  while the single-run engine — whose GPU set is fixed for the length
  of one inference — ignores repair specs entirely.
* :class:`LinkDegradation` — from time ``at``, messages on the directed
  link ``src -> dst`` see ``bw_factor`` of the nominal bandwidth.
* :class:`TransferLoss` — messages are lost and retried with timeout +
  exponential backoff (``timeout_ms``, then ``backoff_ms * 2**k``).
  Losses are either deterministic (``tags`` — the named messages lose
  their first attempt) or probabilistic (``prob`` — each attempt is
  lost with probability ``prob``, drawn from a per-message hash of the
  plan seed so a plan replays identically regardless of event order).
  ``jitter=True`` switches the backoff to seeded *full jitter* (a
  uniform draw in ``[0, backoff_ms * 2**k)``) so many messages retrying
  at once do not re-collide in lockstep; the default stays the pure
  deterministic exponential.

A :class:`FaultPlan` bundles specs with a seed and is immutable: the
same plan run twice produces bit-identical traces.  An *empty* plan is
falsy and the engine/fabric skip every fault code path, keeping
fault-free runs bit-identical to the pre-fault engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Union

__all__ = [
    "BACKOFF_CAP_DOUBLINGS",
    "FaultError",
    "FaultSpec",
    "FaultPlan",
    "FailureEvent",
    "GpuSlowdown",
    "GpuFailure",
    "GpuRepair",
    "LinkDegradation",
    "TransferLoss",
    "parse_fault",
]

#: Exponential retry backoff stops doubling after this many doublings —
#: ``backoff_ms * 2**52`` at the default 0.1 ms is already ~14 000
#: years, so an unbounded exponent cannot ever schedule a retry inside
#: a finite horizon; the cap keeps high attempt counts representable
#: and the retry schedule monotone instead of astronomically divergent.
BACKOFF_CAP_DOUBLINGS = 16


class FaultError(RuntimeError):
    """Raised when a fault spec is malformed or a fault is unrecoverable
    (e.g. a transfer exhausted its retry budget)."""


@dataclass(frozen=True)
class GpuSlowdown:
    """From ``at`` on, GPU ``gpu`` runs at ``factor`` × profiled speed."""

    gpu: int
    at: float
    factor: float

    def __post_init__(self) -> None:
        if self.gpu < 0:
            raise FaultError(f"negative GPU index {self.gpu}")
        if self.at < 0:
            raise FaultError(f"negative fault time {self.at}")
        if self.factor <= 0:
            raise FaultError(f"slowdown factor must be positive, got {self.factor}")


@dataclass(frozen=True)
class GpuFailure:
    """At ``at``, GPU ``gpu`` fail-stops (device lost)."""

    gpu: int
    at: float

    def __post_init__(self) -> None:
        if self.gpu < 0:
            raise FaultError(f"negative GPU index {self.gpu}")
        if self.at < 0:
            raise FaultError(f"negative fault time {self.at}")


@dataclass(frozen=True)
class GpuRepair:
    """At ``at``, GPU ``gpu`` returns from reset (pool-level recovery).

    Only pool-aware consumers (the serving simulator's
    :class:`~repro.serve.pool.GpuPool`) act on repairs; the single-run
    engine ignores them — a lease is fixed while one inference runs,
    and elastic re-expansion happens *between* engine runs.
    """

    gpu: int
    at: float

    def __post_init__(self) -> None:
        if self.gpu < 0:
            raise FaultError(f"negative GPU index {self.gpu}")
        if self.at < 0:
            raise FaultError(f"negative fault time {self.at}")


@dataclass(frozen=True)
class LinkDegradation:
    """From ``at`` on, the directed link ``src -> dst`` delivers
    ``bw_factor`` of its nominal bandwidth (messages take ``1/bw_factor``
    times longer).  Multiple degradations on one link compound."""

    src: int
    dst: int
    at: float
    bw_factor: float

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise FaultError(f"negative GPU index in link ({self.src}, {self.dst})")
        if self.src == self.dst:
            raise FaultError("link degradation needs two distinct GPUs")
        if self.at < 0:
            raise FaultError(f"negative fault time {self.at}")
        if self.bw_factor <= 0:
            raise FaultError(f"bandwidth factor must be positive, got {self.bw_factor}")


@dataclass(frozen=True)
class TransferLoss:
    """Message-loss model with retry/timeout/exponential backoff.

    A lost attempt occupies its channel until the sender detects the
    loss (``timeout_ms`` after the attempt started), then the message is
    re-posted after ``backoff_ms * 2**(attempt-1)``.  ``tags`` lose
    their first attempt deterministically; ``prob`` loses any attempt
    with the given probability (seeded per message by the plan).  A
    message that loses more than ``max_retries`` attempts raises
    :class:`FaultError` — the watchdog/diagnostic path, not a hang.

    With ``jitter=True`` the re-post delay becomes seeded *full jitter*:
    a uniform draw in ``[0, backoff_ms * 2**(attempt-1))`` hashed from
    the plan seed, message tag and attempt number — deterministic replay
    per plan, but decorrelated across messages, so a burst of
    simultaneous losses does not retry in lockstep (retry storms in the
    serving simulator would otherwise re-synchronize on the channel).
    """

    prob: float = 0.0
    tags: tuple[str, ...] = ()
    max_retries: int = 8
    timeout_ms: float = 0.5
    backoff_ms: float = 0.1
    jitter: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.prob < 1.0):
            raise FaultError(f"loss probability {self.prob} not in [0, 1)")
        if self.prob == 0.0 and not self.tags:
            raise FaultError("TransferLoss needs a probability or explicit tags")
        if self.max_retries < 1:
            raise FaultError("need at least one retry")
        if self.timeout_ms < 0 or self.backoff_ms < 0:
            raise FaultError("negative timeout/backoff")

    def backoff_delay(self, seed: int, tag: str, attempt: int) -> float:
        """Delay between detecting the loss of attempt #``attempt`` and
        re-posting the message.

        Pure exponential by default; with ``jitter`` the ceiling is
        scaled by a uniform draw seeded on ``(seed, tag, attempt)`` so
        the delay replays identically run after run.  The exponent is
        capped at :data:`BACKOFF_CAP_DOUBLINGS` so pathological attempt
        counts plateau at ``backoff_ms * 2**16`` instead of scheduling
        a retry past every finite horizon.
        """
        ceiling = self.backoff_ms * (2 ** min(attempt - 1, BACKOFF_CAP_DOUBLINGS))
        if not self.jitter:
            return ceiling
        return ceiling * random.Random(f"{seed}:backoff:{tag}:{attempt}").random()


FaultSpec = Union[GpuSlowdown, GpuFailure, GpuRepair, LinkDegradation, TransferLoss]


@dataclass(frozen=True)
class FailureEvent:
    """State of a run at the moment a :class:`GpuFailure` fired.

    The engine models fail-stop with host-side checkpointing: outputs of
    *finished* operators survive the failure (they were staged to host
    memory), while *in-flight* operators — on any GPU — lose their
    progress and must re-execute.  ``finished`` and ``in_flight`` are
    therefore the exact hand-off the repair scheduler needs.
    """

    gpu: int
    time: float
    finished: frozenset[str]
    in_flight: frozenset[str]

    def unfinished(self, names: Iterable[str]) -> list[str]:
        """The operators of ``names`` still needing execution, in order."""
        return [v for v in names if v not in self.finished]


class FaultPlan:
    """An immutable, seeded set of fault specs replayed deterministically.

    Empty plans are falsy; the engine and fabric treat them exactly like
    "no faults" (bit-identical traces).
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        for sp in self.specs:
            if not isinstance(
                sp, (GpuSlowdown, GpuFailure, GpuRepair, LinkDegradation, TransferLoss)
            ):
                raise FaultError(f"unknown fault spec {sp!r}")

    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.specs == other.specs and self.seed == other.seed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan(specs={list(self.specs)!r}, seed={self.seed})"

    # ------------------------------------------------------------------
    # typed views, derived once, on first use: the plan never changes,
    # and the engine, the fabric and serving's per-segment fault
    # projection read them over and over (many per-segment plans are
    # replayed without ever being read).  The accessors hand out fresh
    # lists, so no caller can corrupt the plan.
    # ------------------------------------------------------------------
    @cached_property
    def _slowdowns(self) -> tuple[GpuSlowdown, ...]:
        return tuple(sp for sp in self.specs if isinstance(sp, GpuSlowdown))

    @cached_property
    def _failures(self) -> tuple[GpuFailure, ...]:
        failures = (sp for sp in self.specs if isinstance(sp, GpuFailure))
        return tuple(sorted(failures, key=lambda sp: sp.at))

    @cached_property
    def _repairs(self) -> tuple[GpuRepair, ...]:
        repairs = (sp for sp in self.specs if isinstance(sp, GpuRepair))
        return tuple(sorted(repairs, key=lambda sp: sp.at))

    @cached_property
    def _degradations(self) -> tuple[LinkDegradation, ...]:
        return tuple(sp for sp in self.specs if isinstance(sp, LinkDegradation))

    @cached_property
    def _losses(self) -> tuple[TransferLoss, ...]:
        return tuple(sp for sp in self.specs if isinstance(sp, TransferLoss))

    def slowdowns(self) -> list[GpuSlowdown]:
        return list(self._slowdowns)

    def failures(self) -> list[GpuFailure]:
        """Failures by time (stable: ties keep spec order)."""
        return list(self._failures)

    def first_failure(self) -> GpuFailure | None:
        return self._failures[0] if self._failures else None

    def repairs(self) -> list[GpuRepair]:
        """Repairs by time (stable: ties keep spec order)."""
        return list(self._repairs)

    def degradations(self) -> list[LinkDegradation]:
        return list(self._degradations)

    def losses(self) -> list[TransferLoss]:
        return list(self._losses)

    def out_of_range(self, num_gpus: int) -> Iterator[tuple[int, str]]:
        """``(index, message)`` for each spec naming a GPU outside
        ``[0, num_gpus)``: the GPU of a slowdown, failure or repair, or an
        endpoint of a degraded link (a transfer loss names none)."""
        for i, sp in enumerate(self.specs):
            if isinstance(sp, LinkDegradation):
                if max(sp.src, sp.dst) >= num_gpus:
                    yield i, (
                        f"LinkDegradation targets link {sp.src}->{sp.dst} but the "
                        f"run uses {num_gpus} GPU(s)"
                    )
            elif not isinstance(sp, TransferLoss) and sp.gpu >= num_gpus:
                yield i, (
                    f"{type(sp).__name__} targets GPU {sp.gpu} but the run "
                    f"uses {num_gpus} GPU(s)"
                )

    def validate_for(self, num_gpus: int) -> None:
        """Raise :class:`FaultError` on the first spec :meth:`out_of_range`
        yields."""
        for _, message in self.out_of_range(num_gpus):
            raise FaultError(message)

    # ------------------------------------------------------------------
    # queries used by the fabric
    # ------------------------------------------------------------------
    def bw_factor(self, src: int, dst: int, time: float) -> float:
        """Compound bandwidth factor of the directed link at ``time``."""
        factor = 1.0
        for sp in self._degradations:
            if sp.src == src and sp.dst == dst and time >= sp.at:
                factor *= sp.bw_factor
        return factor

    def lost(self, tag: str, attempt: int) -> TransferLoss | None:
        """Is attempt #``attempt`` (1-based) of message ``tag`` lost?

        Returns the responsible :class:`TransferLoss` (for its retry
        parameters) or ``None``.  Probabilistic draws hash the plan
        seed, the tag and the attempt number, so the verdict does not
        depend on the order the fabric asks in — a plan replays
        identically run after run.
        """
        for sp in self._losses:
            if sp.tags and tag in sp.tags and attempt == 1:
                return sp
            if sp.prob > 0.0:
                draw = random.Random(f"{self.seed}:{tag}:{attempt}").random()
                if draw < sp.prob:
                    return sp
        return None

    # ------------------------------------------------------------------
    # re-anchoring (cascading repair / serving tails)
    # ------------------------------------------------------------------
    def resume_after(self, cut: float, dead: Iterable[int] = ()) -> "FaultPlan":
        """The plan a *tail* run (clock restarted at zero) still faces
        after a fail-stop cut the original run at ``cut``.

        ``dead`` lists GPUs that already fail-stopped; every spec
        targeting them is dropped (they host nothing and carry no
        traffic in the tail).  Surviving specs are re-anchored to the
        tail clock: events at or before the cut re-fire at ``t=0``
        (slowdowns and link degradations are persistent state), later
        events shift left by ``cut``, and failures that already fired
        (``at < cut`` — the engine halts at the first one) disappear.
        :class:`TransferLoss` is time-independent and kept verbatim,
        seed included, so tail replays stay deterministic.
        :class:`GpuRepair` specs are dropped: recovery is pool-level
        bookkeeping and a tail's GPU set is fixed for its duration.
        """
        if cut < 0:
            raise FaultError(f"negative resume cut {cut}")
        gone = frozenset(dead)
        specs: list[FaultSpec] = []
        for sp in self.specs:
            if isinstance(sp, GpuRepair):
                continue
            if isinstance(sp, GpuSlowdown):
                if sp.gpu in gone:
                    continue
                specs.append(replace(sp, at=max(0.0, sp.at - cut)))
            elif isinstance(sp, GpuFailure):
                if sp.gpu in gone or sp.at < cut:
                    continue
                specs.append(replace(sp, at=sp.at - cut))
            elif isinstance(sp, LinkDegradation):
                if sp.src in gone or sp.dst in gone:
                    continue
                specs.append(replace(sp, at=max(0.0, sp.at - cut)))
            else:  # TransferLoss: no clock to shift
                specs.append(sp)
        return FaultPlan(specs, seed=self.seed)

    # ------------------------------------------------------------------
    # parsing (CLI / config files)
    # ------------------------------------------------------------------
    @classmethod
    def from_strings(cls, texts: Iterable[str], seed: int = 0) -> "FaultPlan":
        """Build a plan from compact spec strings (see :func:`parse_fault`)."""
        return cls((parse_fault(t) for t in texts), seed=seed)


def parse_fault(text: str) -> FaultSpec:
    """Parse one compact fault spec string.

    Formats (times in ms, factors as fractions of nominal):

    * ``fail:G@T`` — :class:`GpuFailure` of GPU ``G`` at ``T``
    * ``repair:G@T`` — :class:`GpuRepair` of GPU ``G`` at ``T``
    * ``slow:G@TxF`` — :class:`GpuSlowdown` of GPU ``G`` at ``T`` to factor ``F``
    * ``link:S->D@TxF`` — :class:`LinkDegradation` of ``S -> D`` at ``T`` to ``F``
    * ``loss:P`` — :class:`TransferLoss` with probability ``P``; append
      ``:jitter`` for seeded full-jitter backoff (``loss:P:jitter``)
    """
    kind, _, rest = text.partition(":")
    try:
        if kind == "fail":
            gpu, _, at = rest.partition("@")
            return GpuFailure(gpu=int(gpu), at=float(at))
        if kind == "repair":
            gpu, _, at = rest.partition("@")
            return GpuRepair(gpu=int(gpu), at=float(at))
        if kind == "slow":
            gpu, _, when = rest.partition("@")
            at, _, factor = when.partition("x")
            return GpuSlowdown(gpu=int(gpu), at=float(at), factor=float(factor))
        if kind == "link":
            pair, _, when = rest.partition("@")
            src, _, dst = pair.partition("->")
            at, _, factor = when.partition("x")
            return LinkDegradation(
                src=int(src), dst=int(dst), at=float(at), bw_factor=float(factor)
            )
        if kind == "loss":
            prob, _, mode = rest.partition(":")
            if mode not in ("", "jitter"):
                raise FaultError(
                    f"malformed fault spec {text!r}: unknown loss mode "
                    f"{mode!r} (only ':jitter' is recognized)"
                )
            return TransferLoss(prob=float(prob), jitter=bool(mode))
    except (ValueError, TypeError) as exc:
        raise FaultError(f"malformed fault spec {text!r}: {exc}") from exc
    raise FaultError(
        f"unknown fault kind {kind!r} in {text!r}; expected fail:G@T, "
        "repair:G@T, slow:G@TxF, link:S->D@TxF or loss:P[:jitter]"
    )
