"""Computation-graph (de)serialization.

Profiling a model on a platform is the expensive step of HIOS's
pipeline (the paper bills it at 36 measured repetitions per operator
and candidate group), so priced graphs are worth persisting.  The JSON
document stores every :class:`~repro.core.graph.Operator` field plus
the weighted edge list; round-tripping is exact up to float formatting.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from ..formats import GRAPH_FORMAT
from .graph import GraphError, Operator, OpGraph

__all__ = ["graph_to_dict", "graph_from_dict", "save_graph", "load_graph"]


def graph_to_dict(graph: OpGraph) -> dict[str, object]:
    """Serializable document for a (typically cost-annotated) graph."""
    return {
        "format": GRAPH_FORMAT,
        "operators": [
            {
                "name": op.name,
                "cost": op.cost,
                "occupancy": op.occupancy,
                "output_bytes": op.output_bytes,
                "kind": op.kind,
                "attrs": dict(op.attrs),
            }
            for op in graph.operators()
        ],
        "edges": [
            {"src": u, "dst": v, "transfer": w} for u, v, w in graph.edges()
        ],
    }


def graph_from_dict(data: Mapping[str, Any]) -> OpGraph:
    """Inverse of :func:`graph_to_dict`; validates structure and DAG-ness."""
    if data.get("format") != GRAPH_FORMAT:
        raise GraphError(f"unsupported graph document format {data.get('format')!r}")
    graph = OpGraph()
    try:
        for entry in data["operators"]:
            graph.add_operator(
                Operator(
                    name=entry["name"],
                    cost=float(entry["cost"]),
                    occupancy=float(entry.get("occupancy", 1.0)),
                    output_bytes=int(entry.get("output_bytes", 0)),
                    kind=entry.get("kind", "op"),
                    attrs=entry.get("attrs", {}),
                )
            )
        for entry in data["edges"]:
            graph.add_edge(entry["src"], entry["dst"], float(entry.get("transfer", 0.0)))
    except GraphError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a missing field, a non-numeric cost, an infinite byte count
        raise GraphError(f"malformed graph document: {exc}") from exc
    graph.validate()
    return graph


def save_graph(graph: OpGraph, path: str | Path, indent: int | None = None) -> None:
    """Write a graph document to ``path`` as JSON."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=indent))


def load_graph(path: str | Path) -> OpGraph:
    """Read a graph document written by :func:`save_graph`."""
    return graph_from_dict(json.loads(Path(path).read_text()))
