"""The shared spatial-mapping seam (``cached_spatial_lp`` /
``cached_spatial_mr``, one ``memo_spatial`` helper).

Alg. 1's LP path mapping and Alg. 3's MR table fill are
window-independent pure functions of the profile, so one computation
can serve every window of ``hios-lp``/``hios-mr``, the ``inter-*``
ablations and ``hios-lp-ls``.  The contract: cache hits are
*bit-identical* to fresh computations, and handed-out copies cannot
poison the cache.
"""

from __future__ import annotations

import pytest

from repro.core import schedule_graph
from repro.core.api import ALGORITHMS, algorithm_options
from repro.core.hios_lp import cached_spatial_lp
from repro.core.hios_mr import cached_spatial_mr
from repro.models import random_dag_profile


@pytest.fixture(scope="module")
def profile():
    return random_dag_profile(seed=3, num_gpus=4, num_ops=50, num_layers=8)


def identical(a, b):
    assert a.latency == b.latency  # float == : bit-identical
    assert a.schedule.to_dict() == b.schedule.to_dict()


class TestSharedAcrossAlgorithms:
    def test_lp_family_shares_one_mapping(self, profile):
        cache: dict = {}
        for window in (2, 3, 4):
            fresh = schedule_graph(profile, "hios-lp", window=window)
            shared = schedule_graph(
                profile, "hios-lp", window=window, spatial_cache=cache
            )
            identical(fresh, shared)
        identical(
            schedule_graph(profile, "inter-lp"),
            schedule_graph(profile, "inter-lp", spatial_cache=cache),
        )
        identical(
            schedule_graph(profile, "hios-lp-ls"),
            schedule_graph(profile, "hios-lp-ls", spatial_cache=cache),
        )
        assert "lp" in cache

    def test_mr_family_shares_one_mapping(self, profile):
        cache: dict = {}
        for window in (2, 3, 4):
            fresh = schedule_graph(profile, "hios-mr", window=window)
            shared = schedule_graph(
                profile, "hios-mr", window=window, spatial_cache=cache
            )
            identical(fresh, shared)
        identical(
            schedule_graph(profile, "inter-mr"),
            schedule_graph(profile, "inter-mr", spatial_cache=cache),
        )
        assert "mr" in cache


class TestCacheMechanics:
    def test_lp_hit_equals_miss_and_copies_are_safe(self, profile):
        cache: dict = {}
        a1, o1, s1 = cached_spatial_lp(profile, spatial_cache=cache)
        a2, o2, s2 = cached_spatial_lp(profile, spatial_cache=cache)
        assert (a2, o2, s2) == (a1, o1, s1)
        assert s1["paths"] > 0
        # mutating a handed-out copy must not poison later hits
        a2["poison"] = 99
        o2.append("poison")
        s2["poison"] = 99
        assert cached_spatial_lp(profile, spatial_cache=cache) == (a1, o1, s1)

    def test_mr_hit_equals_miss_and_copies_are_safe(self, profile):
        cache: dict = {}
        a1, o1, s1 = cached_spatial_mr(profile, spatial_cache=cache)
        a2, o2, s2 = cached_spatial_mr(profile, spatial_cache=cache)
        assert (a2, o2, s2) == (a1, o1, s1) and s1 == {}
        a2["poison"] = 99
        o2.append("poison")
        s2["poison"] = 99
        assert cached_spatial_mr(profile, spatial_cache=cache) == (a1, o1, s1)

    def test_no_cache_argument_still_works(self, profile):
        a, o, p = cached_spatial_lp(profile)
        cache: dict = {}
        b, q, r = cached_spatial_lp(profile, spatial_cache=cache)
        assert (a, o, p) == (b, q, r)


def test_registry_matches_signatures():
    """``algorithm_options`` reads each entry's options off the function
    it maps to: every HIOS entry shares its spatial phase, and exactly
    the ones with an Alg. 2 pass take a window."""
    shared = {name for name in ALGORITHMS if "spatial_cache" in algorithm_options(name)}
    windowed = {name for name in ALGORITHMS if "window" in algorithm_options(name)}
    assert shared == {"hios-lp", "hios-mr", "inter-lp", "inter-mr", "hios-lp-ls"}
    assert windowed == {"hios-lp", "hios-mr", "hios-lp-ls"}
    assert algorithm_options("hios-lp-ls") == {"window", "max_rounds", "spatial_cache"}
    assert algorithm_options("sequential") == {"gpu"}
