"""One hypothesis suite over the format table (``repro.formats.FORMATS``).

Every row is fuzzed from real seed documents, so a format added to the
table without a seed here fails :func:`test_every_format_has_a_seed`.
A mutation sets one field to a hostile JSON value, deletes one field,
or truncates the JSON text.  Two tests draw them:

* :func:`test_every_field_takes_every_hostile_value` sets each field
  position of each seed (one representative per list-element shape) to
  every hostile value and deletes it, so a crash tied to one field and
  one value is found on every run;
* :func:`test_random_mutations` draws fields at any depth and any
  index, and truncations, with hypothesis.

For each mutated document:

* the row's parser returns or raises only its typed error;
* ``repro lint FILE`` exits 0, 1 or 2, and an exit 2 prints one
  ``error:`` line (an exception escaping ``main`` fails the test);
* a graph, schedule or trace mutation also goes through every command
  that reads it (``validate``, ``sanitize``, ``trace export|report|diff``)
  with the other seed documents intact;
* a schedule-cache mutation is a hit or a miss of
  ``ScheduleCache.get_schedule``, never an exception;
* a result-cache mutation is a hit of ``ResultCache.get`` only when
  ``repro lint`` passes it;
* a serve-config mutation that keeps its marker makes ``repro lint``
  exit 1 exactly when the parser rejects it (a document that lost its
  marker is one lint cannot classify, and exits 2), and one ``repro
  lint`` rejects goes through ``serve --config``, which must exit 2
  before any simulation starts.  A config that lint and the parser
  pass is not run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from pathlib import Path
from pkgutil import resolve_name
from typing import Any, Iterator

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import cli
from repro.cli import main
from repro.core import Schedule
from repro.core.result import ScheduleResult
from repro.formats import FORMATS, Format, classify
from repro.serve import run_scenario, scenario_config
from repro.sweep import ResultCache, ScheduleCache

ARTIFACTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results" / "lint"
GRAPH = ARTIFACTS / "graph_inception_299.json"
SCHEDULE = ARTIFACTS / "schedule_inception_299_hios-lp.json"
TRACE = ARTIFACTS / "trace_inception_299_hios-lp.json"

#: ``1e400`` has no Python value that dumps as itself (it parses to
#: infinity), so it is spelled as a placeholder and substituted
BIG_FLOAT = "__1e400__"
#: ``10**400`` is an integer no float can hold
HOSTILE = [float("inf"), float("nan"), BIG_FLOAT, -1, 2.5, "x", True, None, [], {}, 10**30, 10**400]
DELETE = object()
KEY = "ab" * 32
#: the key the committed result-cache entry is stored under
RESULT_KEY = json.loads((ARTIFACTS / "cache_entry.json").read_text())["key"]


def _load(path: Path) -> dict[str, Any]:
    return json.loads(path.read_text())


def _schedcache_entry(tmp: Path) -> dict[str, Any]:
    cache = ScheduleCache(tmp)
    schedule = Schedule.from_dict(_load(SCHEDULE))
    cache.put_schedule(KEY, ScheduleResult("hios-lp", schedule, 1.0, 0.1))
    return _load(cache.path_for(KEY))


def _serve_report() -> dict[str, Any]:
    result = run_scenario("steady-state")
    doc = result.report.to_dict()
    doc["requests"] = [r.to_dict() for r in result.records]
    return doc


@pytest.fixture(scope="module")
def seeds(tmp_path_factory) -> dict[str, list[dict[str, Any]]]:
    """Seed documents by format kind."""
    return {
        "graph": [_load(GRAPH)],
        "trace": [_load(TRACE)],
        "cache entry": [_load(ARTIFACTS / "cache_entry.json")],
        "schedule-cache entry": [_schedcache_entry(tmp_path_factory.mktemp("seed"))],
        "serve config": [scenario_config("steady-state").to_dict()],
        "serve report": [_serve_report()],
        "hb report": [_load(ARTIFACTS / "hbreport_inception_299_hios-lp.json")],
        "Chrome trace_event": [_load(ARTIFACTS / "chrometrace_inception_299_hios-lp.json")],
        "schedule": [_load(SCHEDULE), _load(ARTIFACTS / "schedule_inception_299_hios-mr.json")],
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module", autouse=True)
def one_parser():
    """Build the CLI's argument parser once: ``main`` runs thousands of
    times here, and building the parser costs more than most runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_parser", functools.cache(cli.build_parser))
        yield


def test_every_format_has_a_seed(seeds):
    assert set(seeds) == {fmt.kind for fmt in FORMATS}
    for fmt in FORMATS:
        for doc in seeds[fmt.kind]:
            assert classify(doc) is fmt


def _shape(value: Any) -> Any:
    return tuple(sorted(value)) if isinstance(value, dict) else type(value).__name__


def field_positions(node: Any, path: tuple = ()) -> Iterator[tuple]:
    """A path to every field position below ``node``: every key of an
    object, but only the first of one with more than 64 (keyed by data,
    such as operator names), and the first element of each shape in an
    array."""
    if isinstance(node, dict):
        keys = list(node) if len(node) <= 64 else list(node)[:1]
    elif isinstance(node, list):
        firsts: dict[Any, int] = {}
        for i, item in enumerate(node):
            firsts.setdefault(_shape(item), i)
        keys = list(firsts.values())
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from field_positions(node[key], path + (key,))


def mutate(doc: dict[str, Any], path: tuple, value: Any) -> str:
    """``doc`` as JSON text with the field at ``path`` set to ``value``
    (or deleted)."""
    doc = json.loads(json.dumps(doc))  # a private copy
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).replace(json.dumps(BIG_FLOAT), "1e400")


def _run(argv: list[str]) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    text = out.getvalue()
    assert code in (0, 1, 2), (argv, code, text)
    assert "Traceback" not in text
    if code == 2 and text.startswith("error:"):
        assert len(text.strip().splitlines()) == 1, text
    return code


def check(fmt: Format, text: str, workdir: Path) -> None:
    """Every assertion of the module docstring, for one mutated document."""
    path = workdir / "doc.json"
    path.write_text(text)
    kept = rejected = False  # lint still reads it as ``fmt``; the parser rejects it
    try:
        data = json.loads(text)
    except ValueError:
        pass  # a truncated document reaches no parser
    else:
        kept = classify(data) is fmt
        if fmt.parser is not None and fmt.error is not None:
            try:
                resolve_name(fmt.parser)(data)
            except resolve_name(fmt.error):
                rejected = True
    code = _run(["lint", str(path)])
    docs = {"graph": str(GRAPH), "schedule": str(SCHEDULE), "trace": str(TRACE)}
    if fmt.kind in docs:
        docs[fmt.kind] = str(path)
        graph, schedule, trace = docs.values()
        if fmt.kind != "trace":
            _run(["validate", graph, schedule])
        _run(["sanitize", graph, schedule, trace])
        if fmt.kind != "graph":
            out = str(workdir / "chrome.json")
            _run(["trace", "export", trace, "--schedule", schedule, "-o", out])
            _run(["trace", "report", trace, "--schedule", schedule])
        if fmt.kind == "trace":
            _run(["trace", "diff", trace, str(TRACE)])
    elif fmt.kind == "schedule-cache entry":
        cache = ScheduleCache(workdir / "cache")
        entry = cache.path_for(KEY)
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_text(text)
        got = cache.get_schedule(KEY)
        assert got is None or isinstance(got[0], Schedule)
    elif fmt.kind == "cache entry":
        cache = ResultCache(workdir / "results")
        entry = cache.path_for(RESULT_KEY)
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_text(text)
        assert cache.get(RESULT_KEY) is None or code == 0, text  # no hit lint rejects
    elif fmt.kind == "serve config":
        assert not kept or (code == 1) == rejected, text  # lint rejects what the parser does
        if code != 0:
            assert _run(["serve", "--config", str(path)]) == 2


ROWS = pytest.mark.parametrize("fmt", FORMATS, ids=[fmt.kind for fmt in FORMATS])


@ROWS
def test_every_field_takes_every_hostile_value(fmt, seeds, workdir):
    for doc in seeds[fmt.kind]:
        for path in field_positions(doc):
            for value in [DELETE, *HOSTILE]:
                check(fmt, mutate(doc, path, value), workdir)


@st.composite
def mutated_text(draw: st.DrawFn, doc: dict[str, Any]) -> str:
    """``doc`` with one field at a random depth set or deleted, or its
    JSON text truncated."""
    text = json.dumps(doc)
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text) - 1))]
    path: tuple = ()
    node: Any = doc
    while isinstance(node, (dict, list)) and node and (not path or draw(st.booleans())):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
    return mutate(doc, path, draw(st.sampled_from([DELETE, *HOSTILE]))) if path else text


@ROWS
def test_random_mutations(fmt, seeds, workdir):
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,  # tier-1 draws the same documents every run
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def fuzz(data: st.DataObject) -> None:
        doc = data.draw(st.sampled_from(seeds[fmt.kind]))
        check(fmt, data.draw(mutated_text(doc)), workdir)

    fuzz()
