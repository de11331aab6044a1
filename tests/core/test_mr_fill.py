"""Differential tests for Alg. 3's table fill, ``hios_mr._mr_fill``.

The fill's contract is *bit-identity* with the per-cell reference
:func:`tests.oracles.mr_fill`: the same ``t`` float and the same ``g``
pointer in every cell, so the backtracked mapping is the same.  Both
fills start from the table ``_mr_spatial_mapping`` seeds and are
compared cell by cell on 1 to 12 GPUs (Fig. 7 runs 12), on
homogeneous, uniform non-unit and mixed speeds, with equal operator
costs (ties must keep the smallest state ``k``) and with zero transfer
weights.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro.core import OpGraph, hios_mr
from repro.costmodel import CostProfile

from .. import oracles

_SPEEDS = {
    "none": lambda m: None,
    "uniform": lambda m: (2.0,) * m,
    "mixed": lambda m: tuple(1.0 + 0.5 * (j % 3) for j in range(m)),
}


def _graph(seed: int, n: int, kind: str) -> OpGraph:
    """A random DAG; ``equal-costs`` gives every operator cost 1.0 and
    ``zero-weights`` every edge weight 0.0."""
    rng = random.Random(seed)
    g = OpGraph()
    for i in range(n):
        cost = 1.0 if kind == "equal-costs" else rng.uniform(0.1, 4.0)
        g.add_operator(f"v{i:02d}", cost=cost, occupancy=0.5)
    for v in range(1, n):
        for u in range(max(0, v - 10), v):
            if rng.random() < 0.3:
                w = 0.0 if kind == "zero-weights" else rng.uniform(0.0, 2.0)
                g.add_edge(f"v{u:02d}", f"v{v:02d}", w)
    return g


def _fill_both(profile: CostProfile):
    """``(t, g, t_ref, g_ref)``: the production fill and the oracle run
    on copies of the table Alg. 3 seeds."""
    fills = []

    def both(profile, order, index, speeds, t_tab, g_tab):
        t_ref = [row[:] for row in t_tab]
        g_ref = [row[:] for row in g_tab]
        oracles.mr_fill(profile, order, index, speeds, t_ref, g_ref)
        fill(profile, order, index, speeds, t_tab, g_tab)
        fills.append((t_tab, g_tab, t_ref, g_ref))

    fill = hios_mr._mr_fill
    with mock.patch.object(hios_mr, "_mr_fill", both):
        hios_mr.cached_spatial_mr(profile)
    (tables,) = fills
    return tables


@pytest.mark.parametrize("kind", ["random", "equal-costs", "zero-weights"])
@pytest.mark.parametrize("speeds", sorted(_SPEEDS))
@pytest.mark.parametrize("num_gpus", [1, 2, 3, 4, 8, 12])
def test_fill_matches_the_per_cell_oracle(num_gpus, speeds, kind):
    for seed in range(2):
        graph = _graph(seed, 36, kind)
        profile = CostProfile(
            graph=graph, num_gpus=num_gpus, gpu_speeds=_SPEEDS[speeds](num_gpus)
        )
        t, g, t_ref, g_ref = _fill_both(profile)
        for i in range(len(t)):
            assert t[i] == t_ref[i], (seed, i)  # exact floats
            assert g[i] == g_ref[i], (seed, i)

