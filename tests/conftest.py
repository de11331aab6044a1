"""Global test configuration.

Turns on the ``HIOS_DEBUG_LINT`` post-emit hook for the whole suite:
every schedule any scheduler emits during the tests is checked against
the error-severity lint rules, so a regression in any algorithm's
output feasibility fails loudly at the point of emission.  Tests that
need the hook off (e.g. to assert the opt-out) override the variable
locally with ``monkeypatch``.

Also turns on ``HIOS_SANITIZE``: every engine run in the suite checks
the trace it wrote against the happens-before model
(:mod:`repro.sanitize.runtime`), so an engine change that breaks an
ordering guarantee — or a scheduler emitting a racy schedule — raises
with a causal chain from the earliest event that contradicts the
model.
Tests exercising the legacy dynamic diagnostics (stall watchdog,
deadlock stall report) opt out per-run with ``sanitize=False``.
"""

import os

import pytest

os.environ.setdefault("HIOS_DEBUG_LINT", "1")
os.environ.setdefault("HIOS_SANITIZE", "1")


@pytest.fixture
def graph_lints(monkeypatch):
    """The graphs ``OpGraph.validate`` lints during a test, in order."""
    from repro.lint import api

    linted = []
    lint_graph = api.lint_graph

    def counting(graph, **kwargs):
        linted.append(graph)
        return lint_graph(graph, **kwargs)

    monkeypatch.setattr(api, "lint_graph", counting)
    return linted
