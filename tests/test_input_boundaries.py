"""Malformed graph, schedule, trace and serve-config documents fail with
a typed error at the library boundary, and as an exit code with one
``error:`` line (never a traceback) through ``repro lint``,
``repro validate``, ``repro trace`` and ``repro serve --config``.  Every
public entry point that takes a graph or a schedule raises its typed
error on an invalid one, whatever the graph's recorded validity,
non-finite cost-model and engine knobs are rejected where they are set,
the CLI's numeric flags are range-checked by its parser, and ``repro
report`` rejects a claimed figure artifact that is not a figure document."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import OpGraph, Schedule, ScheduleError, Stage
from repro.core.evaluator import evaluate_schedule
from repro.core.fasteval import soa_latency
from repro.core.graph import GraphError
from repro.core.graphio import graph_from_dict, graph_to_dict
from repro.core.intra_gpu import parallelize
from repro.costmodel.concurrency import SaturationConcurrencyModel, TableConcurrencyModel
from repro.costmodel.profile import CostProfile
from repro.substrate import EngineConfig, EngineError, ExecutionTrace, MultiGpuEngine


def _graph_doc() -> dict:
    g = OpGraph()
    for name in "abc":
        g.add_operator(name, cost=1.0)
    g.add_edge("a", "b", 0.2)
    return graph_to_dict(g)


SCHEDULE_DOC = {
    "num_gpus": 2,
    "gpus": [
        {"gpu": 0, "stages": [["a"], ["b"]]},
        {"gpu": 1, "stages": [["c"]]},
    ],
}

#: JSON values that are not integers, though ``int()`` takes or chokes on them
NOT_INTEGERS = [float("inf"), float("nan"), 2.5, "2", True]


def _bad_schedule(field: str, value: object) -> dict:
    doc = copy.deepcopy(SCHEDULE_DOC)
    if field == "num_gpus":
        doc["num_gpus"] = value
    else:
        doc["gpus"][1]["gpu"] = value
    return doc


def _write(tmp_path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))  # Infinity / NaN as JavaScript literals
    return str(path)


def _run(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)  # an escaping exception fails the test
    out = capsys.readouterr()
    text = out.out + out.err
    assert "Traceback" not in text
    return code, text


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("field", ["num_gpus", "gpu"])
def test_non_integer_gpu_fields_are_typed_failures(tmp_path, capsys, field, value):
    doc = _bad_schedule(field, value)
    with pytest.raises(ScheduleError):
        Schedule.from_dict(json.loads(json.dumps(doc)))

    graph = _write(tmp_path, "g.json", _graph_doc())
    sched = _write(tmp_path, "s.json", doc)
    code, text = _run(capsys, ["lint", graph, sched])
    # S004 owns the GPU count; a non-integer 'gpu' entry is S005's finding
    # (S004 skips it rather than reading it as some integer)
    assert code == 1
    assert ("S004" if field == "num_gpus" else "S005") in text

    code, text = _run(capsys, ["validate", graph, sched])
    assert code == 2
    assert text.startswith("error: malformed schedule document")


@pytest.mark.parametrize(
    "field, value", [("cost", "fast"), ("output_bytes", float("inf"))]
)
def test_malformed_graph_is_a_typed_failure(tmp_path, capsys, field, value):
    doc = _graph_doc()
    doc["operators"][0][field] = value
    with pytest.raises(GraphError, match="malformed graph document"):
        graph_from_dict(json.loads(json.dumps(doc)))

    graph = _write(tmp_path, "g.json", doc)
    sched = _write(tmp_path, "s.json", SCHEDULE_DOC)
    code, text = _run(capsys, ["lint", graph, sched])
    assert code == 2 and text.startswith("error: malformed graph document")

    code, text = _run(capsys, ["validate", graph, sched])
    assert code == 2 and text.startswith("error: malformed graph document")


def test_valid_documents_still_validate(tmp_path, capsys):
    graph = _write(tmp_path, "g.json", _graph_doc())
    sched = _write(tmp_path, "s.json", SCHEDULE_DOC)
    code, text = _run(capsys, ["validate", graph, sched])
    assert code == 0 and text.startswith("OK:")


#: A one-operator partial trace; ``failure.gpu`` is filled in as raw JSON
TRACE_TEMPLATE = json.dumps(
    {
        "format": "repro.trace/v1",
        "latency": 1.0,
        "op_launch": {"a": 0.0},
        "op_start": {"a": 0.0},
        "op_finish": {},
        "transfers": [],
        "gpu_busy": {"0": 1.0},
        "failure": {"gpu": "GPU", "time": 1.0, "finished": [], "in_flight": ["a"]},
    }
)

#: ``failure.gpu`` values that are not JSON integers, as raw JSON text
#: (``1e400`` parses to infinity), plus a document that is no object
BAD_TRACES = {
    raw: TRACE_TEMPLATE.replace('"GPU"', raw)
    for raw in ("Infinity", "1e400", "NaN", "2.5", '"2"', "true")
}
BAD_TRACES["top-level array"] = "[1, 2]"


@pytest.mark.parametrize("text", list(BAD_TRACES.values()), ids=list(BAD_TRACES))
def test_malformed_trace_is_a_typed_failure(tmp_path, capsys, text):
    with pytest.raises(EngineError, match="malformed trace document"):
        ExecutionTrace.from_dict(json.loads(text))

    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = tmp_path / "good.json"
    good.write_text(TRACE_TEMPLATE.replace('"GPU"', "1"))
    for argv in (["lint", str(bad)], ["trace", "diff", str(bad), str(good)]):
        code, out = _run(capsys, argv)
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out



#: claimed figure artifacts that are not figure documents, as raw JSON text
BAD_FIGURES = {
    "not-a-figure": '{"gate": 1}',
    "truncated": "[1,2",
    "scalar-series": json.dumps(
        {"figure": "fig1", "title": "t", "x_label": "x", "y_label": "y", "x": [64], "series": 5}
    ),
}


@pytest.mark.parametrize("text", BAD_FIGURES.values(), ids=BAD_FIGURES.keys())
def test_report_on_a_malformed_figure_is_a_typed_failure(tmp_path, capsys, text):
    (tmp_path / "fig1.json").write_text(text)
    code, out = _run(capsys, ["report", "--results", str(tmp_path)])
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "fig1.json" in lines[0], out


def test_malformed_trace_names_its_cause_once(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"format": "repro.trace/v1", "latency": "soon"})
    code, out = _run(capsys, ["trace", "diff", bad, bad])
    assert code == 2
    assert out.strip().splitlines() == [
        f"error: malformed trace document {bad}: could not convert string to float: 'soon'"
    ]


@pytest.fixture
def transfer_trace(tmp_path) -> tuple[dict, str]:
    """A two-GPU trace with one transfer, and its schedule's path."""
    from repro.substrate import MultiGpuEngine

    g = OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.5)])
    s = Schedule(2)
    s.append_op(0, "a")
    s.append_op(1, "b")
    doc = MultiGpuEngine().run(g, s).to_dict()
    assert len(doc["transfers"]) == 1
    return doc, _write(tmp_path, "s.json", s.to_dict())


#: transfer fields of the wrong JSON type, as raw JSON text
BAD_TRANSFERS = [
    ("src", "[]"), ("dst", "true"), ("num_bytes", "2.5"), ("attempts", '"2"'),
    ("tag", "7"), ("post_time", '"x"'), ("start_time", "true"), ("finish_time", "null"),
]


@pytest.mark.parametrize("field, raw", BAD_TRANSFERS)
def test_malformed_transfer_is_a_typed_failure(tmp_path, capsys, transfer_trace, field, raw):
    doc, sched = transfer_trace
    doc["transfers"][0][field] = "@"
    text = json.dumps(doc).replace('"@"', raw)
    with pytest.raises(EngineError, match=f"transfer {field} is"):
        ExecutionTrace.from_dict(json.loads(text))

    trace = tmp_path / "t.json"
    trace.write_text(text)
    for argv in (
        ["lint", str(trace)],
        ["trace", "export", str(trace), "--schedule", sched],
        ["trace", "report", str(trace), "--schedule", sched],
    ):
        code, out = _run(capsys, argv)
        assert code == 2
        assert out.strip().splitlines() == [out.strip()] and out.startswith(
            f"error: malformed trace document {trace}: transfer {field} is"
        )


#: serve-config fields the parser rejects on their JSON type alone
BAD_SERVE_FIELDS = [
    (("window",), '"x"'), (("queue_capacity",), '"x"'), (("overload_queue",), '"x"'),
    (("max_retries",), '"x"'), (("retry_backoff_ms",), '"x"'),
    (("tenants", 0, "priority"), "null"), (("tenants", 0, "priority"), "Infinity"),
    (("tenants", 0, "priority"), "NaN"), (("seed",), '"x"'), (("elastic",), '"yes"'),
]


@pytest.mark.parametrize("path, raw", BAD_SERVE_FIELDS, ids=repr)
def test_malformed_serve_config_is_a_typed_failure(tmp_path, capsys, path, raw):
    from repro.serve import ServeConfig, ServeConfigError, scenario_config

    doc = scenario_config("steady-state").to_dict()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@"
    text = json.dumps(doc).replace('"@"', raw)
    with pytest.raises(ServeConfigError, match=f"{path[-1]} is"):
        ServeConfig.from_dict(json.loads(text))

    config = tmp_path / "serve.json"
    config.write_text(text)
    code, out = _run(capsys, ["lint", str(config)])
    assert code == 1 and f"error[V011] {config}:" in out
    code, out = _run(capsys, ["serve", "--config", str(config)])
    assert code == 2 and "error[V011]" in out


#: serve-config values of the right JSON type the parser rejects; an
#: integer beyond the float range is no number
SERVE_REJECTS = [
    ("window", 0), ("max_retries", -1), ("horizon_ms", 10**400),
    ("tenants.0.rate_qps", 10**400), ("tenants.0.arrivals_ms", [10**400]),
]


@pytest.mark.parametrize("field, value", SERVE_REJECTS, ids=[f for f, _ in SERVE_REJECTS])
def test_lint_rejects_every_serve_config_the_parser_rejects(tmp_path, capsys, field, value):
    from repro.serve import ServeConfig, ServeConfigError, scenario_config

    doc = scenario_config("steady-state").to_dict()
    *parents, key = field.split(".")
    parent = doc
    for part in parents:
        parent = parent[int(part)] if part.isdigit() else parent[part]
    parent[key] = value
    with pytest.raises(ServeConfigError):
        ServeConfig.from_dict(doc)
    config = _write(tmp_path, "serve.json", doc)
    code, out = _run(capsys, ["lint", config])
    assert code == 1 and "error[V0" in out
    assert _run(capsys, ["serve", "--config", config])[0] == 2


#: serve-config values ``repro lint`` rejects: non-finite times and rates,
#: a pool over V004's bound, a non-finite backoff and a fault spec F004
#: rejects
LINT_REJECTS = [
    ("horizon_ms", float("inf")), ("horizon_ms", float("nan")),
    ("tenants.0.rate_qps", float("inf")), ("tenants.0.rate_qps", float("nan")),
    ("tenants.0.deadline_ms", float("nan")), ("num_gpus", 10**12),
    ("retry_backoff_ms", float("nan")), ("faults", ["fail:1@nan"]),
]


@pytest.mark.parametrize(
    "field, value", LINT_REJECTS, ids=[f"{f}={v!r}" for f, v in LINT_REJECTS]
)
def test_the_parser_rejects_every_serve_config_lint_rejects(tmp_path, capsys, field, value):
    from dataclasses import replace

    from repro.serve import ServeConfig, ServeConfigError, scenario_config

    config = scenario_config("steady-state")
    doc = config.to_dict()
    *parents, key = field.split(".")
    parent = doc
    for part in parents:
        parent = parent[int(part)] if part.isdigit() else parent[part]
    parent[key] = value
    with pytest.raises(ServeConfigError):
        ServeConfig.from_dict(doc)
    with pytest.raises(ServeConfigError):  # construction, through dataclasses.replace
        if parents:
            replace(config.tenants[0], **{key: value})
        else:
            replace(config, **{key: tuple(value) if isinstance(value, list) else value})
    config_path = _write(tmp_path, "serve.json", doc)
    code, out = _run(capsys, ["lint", config_path])
    assert code == 1 and "error[V0" in out
    assert _run(capsys, ["serve", "--config", config_path])[0] == 2


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_serve_rejects_a_non_finite_horizon(capsys, horizon):
    code, out = _run(capsys, ["serve", "--scenario", "steady-state", "--horizon", horizon])
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "[V004] horizon_ms" in out


LINT_ARTIFACTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results" / "lint"


@pytest.mark.parametrize(
    "name, path, rule",
    [
        ("chrometrace_inception_299_hios-lp.json", ("traceEvents", -1, "ts"), "T103"),
        ("cache_entry.json", ("payload", "latency"), "C005"),
    ],
    ids=["chrome-ts", "cache-latency"],
)
def test_integers_beyond_the_float_range_are_findings(tmp_path, capsys, name, path, rule):
    doc = json.loads((LINT_ARTIFACTS / name).read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = 10**400
    code, out = _run(capsys, ["lint", _write(tmp_path, name, doc)])
    assert code == 1 and f"error[{rule}]" in out


@pytest.mark.parametrize("num_gpus", [10**12, 10**30], ids=["1e12", "1e30"])
def test_num_gpus_is_bounded_by_the_listed_gpus(tmp_path, capsys, num_gpus):
    doc = dict(SCHEDULE_DOC, num_gpus=num_gpus)
    graph = _write(tmp_path, "g.json", _graph_doc())
    sched = _write(tmp_path, "s.json", doc)
    code, text = _run(capsys, ["lint", graph, sched])
    assert code == 1 and f"error[S004] {sched}: schedule declares {num_gpus} GPUs" in text

    code, text = _run(capsys, ["validate", graph, sched])
    assert code == 2 and text.startswith("error: malformed schedule document")

    from repro.core.result import ScheduleResult
    from repro.sweep import ScheduleCache

    cache = ScheduleCache(tmp_path / "cache")
    key = "cd" * 32
    cache.put_schedule(key, ScheduleResult("hios-lp", Schedule.from_dict(SCHEDULE_DOC), 1.0))
    entry = json.loads(cache.path_for(key).read_text())
    entry["payload"]["schedule"]["num_gpus"] = num_gpus
    cache.path_for(key).write_text(json.dumps(entry))
    assert cache.get_schedule(key) is None
    assert cache.misses == 1 and not cache.path_for(key).exists()


def _chain(cyclic: bool = False, recorded: bool = False) -> OpGraph:
    """``a -> b -> c``; ``recorded`` validates it before ``cyclic`` closes
    the loop, so the entry point sees a graph whose record went stale."""
    g = OpGraph.from_edges({"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b", 0.1), ("b", "c", 0.1)])
    if recorded:
        g.validate()
    if cyclic:
        g.add_edge("c", "a")
    return g


@pytest.fixture(params=["0", "1"], ids=["debug-lint-off", "debug-lint-on"])
def debug_lint(request, monkeypatch):
    monkeypatch.setenv("HIOS_DEBUG_LINT", request.param)


@pytest.mark.parametrize("recorded", [False, True], ids=["fresh", "validated-then-cyclic"])
@pytest.mark.parametrize("entry", [CostProfile, lambda g: graph_from_dict(graph_to_dict(g))],
                         ids=["CostProfile", "graph_from_dict"])
def test_entry_points_reject_a_cyclic_graph(debug_lint, entry, recorded):
    with pytest.raises(GraphError, match="cycle"):
        entry(_chain(cyclic=True, recorded=recorded))


SCHEDULE_ENTRY_POINTS = {
    "Schedule.validate": lambda p, s: s.validate(p.graph),
    "MultiGpuEngine.run": lambda p, s: MultiGpuEngine(EngineConfig()).run(p.graph, s),
    "soa_latency": lambda p, s: soa_latency(p, s, validate=True),
    "evaluate_schedule": evaluate_schedule,
    "parallelize": parallelize,
}
BAD_SCHEDULES = {
    "dependent-ops-share-a-stage": [Stage(0, ("a",)), Stage(1, ("b", "c"))],
    "op-missing": [Stage(0, ("a",)), Stage(1, ("b",))],
}


@pytest.mark.parametrize("stages", BAD_SCHEDULES.values(), ids=BAD_SCHEDULES.keys())
@pytest.mark.parametrize(
    "entry", SCHEDULE_ENTRY_POINTS.values(), ids=SCHEDULE_ENTRY_POINTS.keys()
)
def test_entry_points_reject_an_infeasible_schedule(debug_lint, entry, stages):
    profile = CostProfile(_chain())  # a recorded-valid graph
    with pytest.raises(ScheduleError):
        entry(profile, Schedule(2, stages))


NON_FINITE_KNOBS = {
    "CostProfile.gpu_speeds": lambda v: CostProfile(_chain(), gpu_speeds=(1.0, v)),
    "Saturation.contention_penalty": lambda v: SaturationConcurrencyModel(v),
    "Saturation.stream_overhead": lambda v: SaturationConcurrencyModel(0.06, v),
    "Table.record": lambda v: TableConcurrencyModel().record(["a"], v),
    "Table.__init__": lambda v: TableConcurrencyModel({frozenset({"a"}): v}),
    "EngineConfig.launch_overhead_ms": lambda v: EngineConfig(launch_overhead_ms=v),
    "EngineConfig.contention_penalty": lambda v: EngineConfig(contention_penalty=v),
    "EngineConfig.stream_overhead": lambda v: EngineConfig(stream_overhead=v),
    "EngineConfig.watchdog_horizon_ms": lambda v: EngineConfig(watchdog_horizon_ms=v),
    "EngineConfig.gpu_speeds": lambda v: EngineConfig(gpu_speeds=(1.0, v)),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "-1"])
@pytest.mark.parametrize("build", NON_FINITE_KNOBS.values(), ids=NON_FINITE_KNOBS.keys())
def test_cost_and_engine_knobs_must_be_finite(build, value):
    """A NaN passes a ``< 0`` check: a NaN speed made hios-lp report a
    0.0 ms latency, and a NaN engine knob kept ``MultiGpuEngine.run``
    from returning."""
    with pytest.raises(ValueError, match="finite|positive"):
        build(value)


@pytest.mark.parametrize("watchdog", ["nan", "inf", "-1"])
def test_faults_rejects_a_watchdog_it_cannot_use(capsys, watchdog):
    argv = ["faults", "--gpus", "2", "--algorithms", "sequential", "--watchdog", watchdog]
    code, out = _run(capsys, argv)
    lines = out.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: --watchdog ")


_L = str(LINT_ARTIFACTS)
_SANITIZE = [
    f"{_L}/graph_inception_299.json",
    f"{_L}/schedule_inception_299_hios-lp.json",
    f"{_L}/trace_inception_299_hios-lp.json",
]
_DIFF = ["trace", "diff", *[f"{_L}/trace_inception_299_hios-lp.json"] * 2]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["schedule", "--gpus", "0"], "--gpus"),
        (["compare", "--gpus", "0"], "--gpus"),
        (["faults", "--gpus", "0"], "--gpus"),
        (["schedule", "--window", "0"], "--window"),
        (["schedule", "--size", "0"], "--size"),
        (["schedule", "--size", "74"], "--size"),  # Inception-v3 needs >= 75
        (["compare", "--model", "resnet50", "--size", "32"], "--size"),
        (["run", "fig1", "--instances", "0"], "--instances"),
        (["run", "fig1", "--jobs", "-1"], "--jobs"),
        (["faults", "--max-repairs", "-1"], "--max-repairs"),
        (["sanitize", *_SANITIZE, "--max-streams", "-2"], "--max-streams"),
        (["sanitize", *_SANITIZE, "--eps", "nan"], "--eps"),
        (["sanitize", *_SANITIZE, "--eps", "inf"], "--eps"),
        ([*_DIFF, "--eps", "nan"], "--eps"),
        ([*_DIFF, "--eps", "-1"], "--eps"),
    ],
)
def test_numeric_flags_are_range_checked(capsys, argv, flag):
    """Counts are >= 1 (or >= 0 where 0 means none or unbounded) and
    tolerances finite and >= 0: a NaN ``--eps`` made every timestamp
    check pass, and a zero count ended in a traceback."""
    code, out = _run(capsys, argv)
    lines = out.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag} ")
