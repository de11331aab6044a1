"""Chrome/Perfetto ``trace_event`` export for engine traces.

``chrome://tracing`` and https://ui.perfetto.dev open the emitted JSON
directly: one track per GPU for kernels, one per link direction for
transfers, flow arrows from each transfer slice to the kernel it feeds,
and — for partial fault traces — the failure instant marked as a global
instant event with the in-flight operators in its args.  Times are
exported in microseconds as the format requires (engine times are
milliseconds).

Traces are duck-typed (``op_launch`` / ``op_start`` / ``op_finish``
dicts, ``latency``, ``transfers``, optional ``failure``), so anything
satisfying the :class:`~repro.substrate.engine.ExecutionTrace` shape —
including documents round-tripped through ``repro.trace/v1`` — exports
without importing the substrate.

In-flight operators of a partial trace (a start but no finish) are cut
at the trace latency and tagged ``"unfinished": true`` so the doomed
kernels stay visible on the timeline instead of being dropped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from ..formats import CHROME_TRACE_FORMAT

__all__ = [
    "CHROME_TRACE_FORMAT",
    "trace_to_events",
    "chrome_trace_document",
    "save_chrome_trace",
]

_MS_TO_US = 1000.0


def trace_to_events(
    trace: Any, op_gpu: Mapping[str, int], process_name: str = "hios"
) -> list[dict[str, Any]]:
    """Build the trace-event list for one execution trace.

    ``op_gpu`` maps operators to their GPU (``schedule.gpu_of``).
    Kernels become complete events (``ph: "X"``) on ``tid = gpu``;
    transfers land on per-direction rows after the GPU rows, each tied
    to its consumer kernel by a flow pair (``ph: "s"`` / ``ph: "f"``);
    a failure is marked by a global instant event (``ph: "i"``).
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": process_name},
        }
    ]
    gpus = sorted(set(op_gpu.values()))
    for g in gpus:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": g,
                "args": {"name": f"GPU {g}"},
            }
        )
    failure = getattr(trace, "failure", None)
    cut = trace.latency
    for op, start in trace.op_start.items():
        finish = trace.op_finish.get(op)
        args: dict[str, Any] = {"launch_ms": trace.op_launch.get(op)}
        if finish is None:
            # in-flight at the failure instant (or a malformed trace):
            # cut the slice at the trace end so it stays visible
            finish = max(cut, start)
            args["unfinished"] = True
        events.append(
            {
                "name": op,
                "cat": "kernel",
                "ph": "X",
                "pid": 0,
                "tid": op_gpu[op],
                "ts": start * _MS_TO_US,
                "dur": max(0.0, finish - start) * _MS_TO_US,
                "args": args,
            }
        )
    # transfers: one synthetic row per (src, dst) direction
    lanes: dict[tuple[int, int], int] = {}
    next_tid = (max(gpus) + 1) if gpus else 1
    flow_id = 0
    for rec in trace.transfers:
        lane = (rec.src, rec.dst)
        if lane not in lanes:
            lanes[lane] = next_tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": next_tid,
                    "args": {"name": f"link {rec.src}->{rec.dst}"},
                }
            )
            next_tid += 1
        events.append(
            {
                "name": rec.tag or "transfer",
                "cat": "transfer",
                "ph": "X",
                "pid": 0,
                "tid": lanes[lane],
                "ts": rec.start_time * _MS_TO_US,
                "dur": rec.duration * _MS_TO_US,
                "args": {
                    "bytes": rec.num_bytes,
                    "queue_delay_ms": rec.queue_delay,
                },
            }
        )
        # flow arrow from the transfer slice to the kernel it feeds
        consumer = _consumer_of(rec.tag)
        if consumer is not None and consumer in trace.op_start:
            flow_id += 1
            events.append(
                {
                    "name": rec.tag,
                    "cat": "flow",
                    "ph": "s",
                    "id": flow_id,
                    "pid": 0,
                    "tid": lanes[lane],
                    "ts": rec.start_time * _MS_TO_US,
                }
            )
            events.append(
                {
                    "name": rec.tag,
                    "cat": "flow",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "pid": 0,
                    "tid": op_gpu.get(consumer, lanes[lane]),
                    "ts": max(rec.finish_time, trace.op_start[consumer])
                    * _MS_TO_US,
                }
            )
    if failure is not None:
        events.append(
            {
                "name": f"GPU {failure.gpu} fail-stop",
                "cat": "failure",
                "ph": "i",
                "s": "g",  # global scope: draws across every track
                "pid": 0,
                "tid": failure.gpu,
                "ts": failure.time * _MS_TO_US,
                "args": {
                    "gpu": failure.gpu,
                    "in_flight": sorted(failure.in_flight),
                    "finished": len(failure.finished),
                },
            }
        )
    return events


def _consumer_of(tag: str | None) -> str | None:
    """The consumer operator encoded in a ``"u->v"`` transfer tag."""
    if not tag or "->" not in tag:
        return None
    return tag.rsplit("->", 1)[1] or None


def chrome_trace_document(
    trace: Any, op_gpu: Mapping[str, int], process_name: str = "hios"
) -> dict[str, Any]:
    """The full JSON-object-format trace document.

    ``otherData`` carries the :data:`CHROME_TRACE_FORMAT` marker plus
    summary fields so exported artifacts are self-describing (and
    classifiable by ``repro lint``).
    """
    failure = getattr(trace, "failure", None)
    return {
        "traceEvents": trace_to_events(trace, op_gpu, process_name),
        "displayTimeUnit": "ms",
        "otherData": {
            "format": CHROME_TRACE_FORMAT,
            "latency_ms": trace.latency,
            "num_transfers": len(trace.transfers),
            "completed": failure is None,
        },
    }


def save_chrome_trace(
    trace: Any,
    op_gpu: Mapping[str, int],
    path: str | Path,
    process_name: str = "hios",
) -> None:
    """Write a ``chrome://tracing`` / Perfetto-loadable JSON file."""
    doc = chrome_trace_document(trace, op_gpu, process_name)
    Path(path).write_text(json.dumps(doc))
