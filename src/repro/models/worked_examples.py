"""The paper's Fig. 4 worked example as a constructible graph.

The paper's figures omit the concrete vertex/edge weights, so we pick
weights consistent with every step of the narrative and verify the
narrative itself in the test suite:

* **Fig. 4** (HIOS-LP walk-through): eight operators, nine edges.  The
  first extracted path must be ``v1 v2 v4 v6 v8``; the second *valid*
  path must be ``v3 v5`` — the longer candidate through ``v7`` is
  rejected because its intermediate vertex ``v5`` has an edge to the
  already-mapped ``v6``; the third path is ``v7`` alone.  Both later
  paths map onto GPU 2.
* **Fig. 6** illustrates the HIOS-MR table on the same style of graph;
  :func:`fig4_graph` doubles as its input in the tests.

The graph is also the serving zoo's ``tiny`` model.  The Fig. 5
(Alg. 2) walk-through is a test fixture (``tests/core/worked_examples.py``).
"""

from __future__ import annotations

from ..core.graph import OpGraph

__all__ = ["fig4_graph"]


def fig4_graph() -> OpGraph:
    """The eight-operator computation graph of Fig. 4.

    Edges (e1..e9): v1->v2, v1->v3, v2->v4, v3->v5, v4->v6, v5->v6,
    v5->v7, v6->v8, v7->v8.  All transfer weights are 1 ms; vertex
    weights make ``v1 v2 v4 v6 v8`` the longest path.
    """
    costs = {
        "v1": 2.0,
        "v2": 3.0,
        "v3": 2.0,
        "v4": 3.0,
        "v5": 3.0,
        "v6": 3.0,
        "v7": 2.0,
        "v8": 2.0,
    }
    edges = [
        ("v1", "v2", 1.0),  # e1
        ("v1", "v3", 1.0),  # e2
        ("v2", "v4", 1.0),  # e3
        ("v3", "v5", 1.0),  # e4
        ("v4", "v6", 1.0),  # e5
        ("v5", "v6", 1.0),  # e6
        ("v5", "v7", 1.0),  # e7
        ("v6", "v8", 1.0),  # e8
        ("v7", "v8", 1.0),  # e9
    ]
    return OpGraph.from_edges(costs, edges)
