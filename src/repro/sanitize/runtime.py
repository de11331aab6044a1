"""The engine's happens-before check (``HIOS_SANITIZE=1``).

With ``HIOS_SANITIZE=1`` (any value other than ``0/false/off/no``; the
test suite turns it on by default) or ``EngineConfig(sanitize=True)``,
:meth:`~repro.substrate.engine.MultiGpuEngine.run` checks each run
against one compiled happens-before graph:

* before the event loop, :func:`sanitizer_for` compiles the graph and
  runs the static deadlock detector, so a cyclic-wait schedule fails
  with a witness cycle **before** the run state exists — the stall
  watchdog never gets a chance to fire;
* after the run, :func:`check_run` checks the trace the engine wrote
  with :func:`~repro.sanitize.vclock.check_engine_trace`, the check
  ``repro sanitize`` runs, and raises :class:`SanitizeViolation` for
  the earliest violation with a causal chain.  The structural layer is
  on for a fail-stop partial trace too: the engine cut it itself, so
  every event it holds happened under this schedule.

The compiled graph is memoized per ``(graph, schedule, model)`` behind
cheap mutation fingerprints (``OpGraph.version`` and the append-only
``Schedule.num_stages``), so repeated inference of the same placement —
the serving steady state, and every benchmark loop — compiles it once.
"""

from __future__ import annotations

import os
import weakref
from typing import TYPE_CHECKING

from ..core.graph import OpGraph
from ..core.schedule import Schedule
from ..substrate.engine import EngineError
from .detectors import find_deadlock
from .hbgraph import EDGE_KINDS, ExecModel, HbGraph, build_hb_graph
from .vclock import check_engine_trace, event_times

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..substrate.engine import EngineConfig, ExecutionTrace

__all__ = [
    "SANITIZE_ENV_VAR",
    "SanitizeViolation",
    "check_run",
    "sanitize_enabled",
    "sanitizer_for",
]

SANITIZE_ENV_VAR = "HIOS_SANITIZE"
_FALSY = {"", "0", "false", "off", "no"}


class SanitizeViolation(EngineError):
    """An engine run contradicted the happens-before model (or the
    model itself is a wait cycle).  Subclasses :class:`EngineError` so
    existing failure handling keeps working."""


def sanitize_enabled() -> bool:
    """Whether ``HIOS_SANITIZE`` asks for sanitizing."""
    return os.environ.get(SANITIZE_ENV_VAR, "").strip().lower() not in _FALSY


def sanitizer_for(
    graph: OpGraph, schedule: Schedule, config: "EngineConfig"
) -> HbGraph | None:
    """The engine's entry point: the memoized happens-before graph,
    proven deadlock-free, when ``config.sanitize`` (or, when that is
    ``None``, the environment) asks for sanitizing, else ``None``.

    Raises :class:`SanitizeViolation` with a witness cycle when the
    schedule deadlocks.
    """
    want = config.sanitize
    if want is None:
        want = sanitize_enabled()
    if not want:
        return None
    return _hb_for(graph, schedule, ExecModel.from_engine_config(config))


# id(schedule) -> [(schedule weakref, graph weakref, graph version,
# schedule stage count, model, HB graph), ...]; keyed by id because
# Schedule defines ``__eq__`` without ``__hash__`` — the stored
# weakrefs guard against id reuse and evict the slot when the schedule
# dies.  The fingerprints invalidate on any mutation (OpGraph bumps
# ``version``, Schedule construction is append-only so ``num_stages``
# only grows).
_Entry = tuple[
    "weakref.ref[Schedule]",
    "weakref.ref[OpGraph]",
    int,
    int,
    ExecModel,
    HbGraph,
]
_HB_CACHE: dict[int, list[_Entry]] = {}
_HB_CACHE_WIDTH = 4  # (graph, model) pairs per schedule worth remembering


def _hb_for(graph: OpGraph, schedule: Schedule, model: ExecModel) -> HbGraph:
    key = id(schedule)
    entries = _HB_CACHE.get(key)
    if entries is not None:
        for sref, gref, gver, nstages, cached_model, hb in entries:
            if (
                sref() is schedule
                and gref() is graph
                and gver == graph.version
                and nstages == schedule.num_stages
                and cached_model == model
            ):
                return hb
    hb = build_hb_graph(graph, schedule, model)
    cycle = find_deadlock(hb)
    if cycle is not None:
        raise SanitizeViolation(
            "sanitizer: schedule deadlocks before any kernel runs; "
            + cycle.describe()
        )
    if entries is None or any(e[0]() is not schedule for e in entries):
        entries = _HB_CACHE[key] = []  # fresh slot (or id was reused)
    entries.append(
        (
            weakref.ref(schedule, lambda _r, key=key: _HB_CACHE.pop(key, None)),
            weakref.ref(graph),
            graph.version,
            schedule.num_stages,
            model,
            hb,
        )
    )
    del entries[:-_HB_CACHE_WIDTH]
    return hb


def check_run(
    graph: OpGraph,
    schedule: Schedule,
    trace: "ExecutionTrace",
    hb: HbGraph,
    *,
    eps: float = 1e-6,
) -> None:
    """Raise :class:`SanitizeViolation` for the earliest happens-before
    violation in the trace of one engine run of ``schedule`` on
    ``graph`` (by destination time, then event index), with a causal
    chain; ``hb`` is the graph :func:`sanitizer_for` returned."""
    violations = check_engine_trace(
        graph, schedule, trace, eps=eps, structural=True, hb=hb
    )
    if not violations:
        return
    unknown = hb.num_events  # requirement ends the schedule does not place
    first = min(violations, key=lambda v: (v.t_dst, hb.index.get(v.dst, unknown)))
    lines = [
        f"sanitizer: happens-before violation: {first.describe()}",
        "causal chain (most recent first):",
    ]
    idx = hb.index.get(first.dst)
    if idx is not None:
        at = event_times(hb, trace)
        lines.append(f"  {hb.label(idx)} at t={first.t_dst:.6g}")
        for _ in range(8):
            # the latest predecessor that happened: how the run got here
            best: tuple[float, int, str] | None = None
            for src, kind in hb.in_edges(idx):
                ts = at[src]
                if ts is not None and (best is None or ts > best[0]):
                    best = (ts, src, kind)
            if best is None:
                break
            ts, idx, kind = best
            lines.append(f"  {hb.label(idx)} at t={ts:.6g}  [{EDGE_KINDS[kind]}]")
    raise SanitizeViolation("\n".join(lines))
