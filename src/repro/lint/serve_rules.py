"""Serving rules (``V0xx``): config and report document hygiene.

Serving scenarios are committed as JSON next to the benchmark baselines
they produced, and CI replays them bit-for-bit — so a malformed config
is not a runtime inconvenience, it silently changes what the regression
gate is comparing.  V001–V008 check the raw ``repro.serve/v1`` config
*before* :class:`repro.serve.config.ServeConfig` ever constructs: the
format marker, tenant shape and arrival processes, pool/lease
arithmetic, registered algorithms, parseable fault specs within pool
range, and policy-knob sanity (an unreachable overload threshold, a
zero-retry config facing injected GPU failures).  V011 checks every
scalar field's JSON type, read off the dataclass annotations
:meth:`ServeConfig.from_dict <repro.serve.config.ServeConfig.from_dict>`
reads, and the bounds it enforces that V001–V006 leave out, so
``repro lint`` rejects every config the parser rejects.

V009–V010 check emitted ``repro.servereport/v1`` documents (``repro
serve --json``): the lifecycle counters must satisfy their conservation
identities (every arrival is admitted or shed, every admitted request
reaches exactly one terminal status), and when the per-request records
are embedded (``--requests``) the aggregate counters — completions,
batched followers, repair rounds, displacements, elastic resizes —
must equal what the records add up to.

The pack works on the plain mapping — V011 imports the config
dataclasses for their annotations only — so ``repro lint`` can check
foreign documents without executing scenario code.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..core.api import ALGORITHMS
from ..formats import SERVE_CONFIG_FORMAT, SERVE_REPORT_FORMAT, finite, type_errors
from .diagnostics import Severity
from .framework import Finding, LintContext, rule

__all__: list[str] = []


def _int(value: Any) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


@rule(
    "V001",
    severity=Severity.ERROR,
    pack="serve",
    title="serving config must carry the serve format marker",
    requires=("serve_doc",),
    hint=f"the simulator only accepts documents with format "
    f"{SERVE_CONFIG_FORMAT!r}",
)
def check_format(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.serve_doc
    assert doc is not None
    fmt = doc.get("format")
    if fmt != SERVE_CONFIG_FORMAT:
        yield Finding(
            f"format is {fmt!r}, expected {SERVE_CONFIG_FORMAT!r}",
            location="format",
        )


@rule(
    "V002",
    severity=Severity.ERROR,
    pack="serve",
    title="tenants must be a non-empty list with unique names",
    requires=("serve_doc",),
    hint="every tenant entry is a mapping with at least 'name' and "
    "'model'; duplicate names would merge two arrival streams",
)
def check_tenants(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.serve_doc
    assert doc is not None
    tenants = doc.get("tenants")
    if not isinstance(tenants, list) or not tenants:
        yield Finding(
            f"tenants is {type(tenants).__name__ if tenants is not None else None}"
            ", expected a non-empty array",
            location="tenants",
        )
        return
    seen: set[str] = set()
    for i, t in enumerate(tenants):
        if not isinstance(t, Mapping):
            yield Finding(
                f"tenants[{i}] is {type(t).__name__}, expected a mapping",
                location=f"tenants[{i}]",
            )
            continue
        name = t.get("name")
        if not isinstance(name, str) or not name:
            yield Finding(
                f"tenants[{i}].name is {name!r}, expected a non-empty string",
                location=f"tenants[{i}].name",
            )
        elif name in seen:
            yield Finding(
                f"duplicate tenant name {name!r}",
                location=f"tenants[{i}].name",
            )
        else:
            seen.add(name)
        model = t.get("model")
        if not isinstance(model, str) or not model:
            yield Finding(
                f"tenants[{i}].model is {model!r}, expected a model name",
                location=f"tenants[{i}].model",
            )


@rule(
    "V003",
    severity=Severity.ERROR,
    pack="serve",
    title="tenant arrival processes must be well-formed",
    requires=("serve_doc",),
    hint="each tenant needs rate_qps > 0 and/or explicit arrivals_ms; "
    "times are non-negative finite milliseconds, deadlines positive",
)
def check_arrivals(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.serve_doc
    assert doc is not None
    tenants = doc.get("tenants")
    if not isinstance(tenants, list):
        return
    for i, t in enumerate(tenants):
        if not isinstance(t, Mapping):
            continue
        rate = finite(t.get("rate_qps", 0.0))
        if rate is None or rate < 0:
            yield Finding(
                f"tenants[{i}].rate_qps is {t.get('rate_qps')!r}, expected a "
                "non-negative finite number",
                location=f"tenants[{i}].rate_qps",
            )
            rate = 0.0
        arrivals = t.get("arrivals_ms", [])
        if not isinstance(arrivals, list):
            yield Finding(
                f"tenants[{i}].arrivals_ms is {type(arrivals).__name__}, "
                "expected an array of times",
                location=f"tenants[{i}].arrivals_ms",
            )
            arrivals = []
        else:
            for j, at in enumerate(arrivals):
                v = finite(at)
                if v is None or v < 0:
                    yield Finding(
                        f"tenants[{i}].arrivals_ms[{j}] is {at!r}, expected a "
                        "non-negative finite time",
                        location=f"tenants[{i}].arrivals_ms[{j}]",
                    )
        if rate == 0.0 and not arrivals:
            yield Finding(
                f"tenants[{i}] generates no requests (rate_qps 0 and no "
                "arrivals_ms)",
                location=f"tenants[{i}]",
            )
        deadline = finite(t.get("deadline_ms", 1000.0))
        if deadline is None or deadline <= 0:
            yield Finding(
                f"tenants[{i}].deadline_ms is {t.get('deadline_ms')!r}, "
                "expected a positive finite number",
                location=f"tenants[{i}].deadline_ms",
            )


@rule(
    "V004",
    severity=Severity.ERROR,
    pack="serve",
    title="pool and lease sizes must be consistent",
    requires=("serve_doc",),
    hint="1 <= degraded_gpus <= gpus_per_query <= num_gpus, and the "
    "horizon must be a positive finite duration",
)
def check_pool(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.serve_doc
    assert doc is not None
    num_gpus = _int(doc.get("num_gpus", 4))
    if num_gpus is None or num_gpus < 1:
        yield Finding(
            f"num_gpus is {doc.get('num_gpus')!r}, expected a positive integer",
            location="num_gpus",
        )
        return
    per_query = _int(doc.get("gpus_per_query", 2))
    if per_query is None or not (1 <= per_query <= num_gpus):
        yield Finding(
            f"gpus_per_query is {doc.get('gpus_per_query')!r}, expected an "
            f"integer in [1, {num_gpus}]",
            location="gpus_per_query",
        )
        per_query = num_gpus
    degraded = _int(doc.get("degraded_gpus", 1))
    if degraded is None or not (1 <= degraded <= per_query):
        yield Finding(
            f"degraded_gpus is {doc.get('degraded_gpus')!r}, expected an "
            f"integer in [1, {per_query}]",
            location="degraded_gpus",
        )
    horizon = finite(doc.get("horizon_ms", 1000.0))
    if horizon is None or horizon <= 0:
        yield Finding(
            f"horizon_ms is {doc.get('horizon_ms')!r}, expected a positive "
            "finite duration",
            location="horizon_ms",
        )
    max_batch = _int(doc.get("max_batch", 1))
    if max_batch is None or max_batch < 1:
        yield Finding(
            f"max_batch is {doc.get('max_batch')!r}, expected a positive "
            "integer (1 disables batching)",
            location="max_batch",
        )


@rule(
    "V005",
    severity=Severity.ERROR,
    pack="serve",
    title="scheduling algorithms must be registered",
    requires=("serve_doc",),
    hint=f"known algorithms: {', '.join(sorted(ALGORITHMS))}",
)
def check_algorithms(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.serve_doc
    assert doc is not None
    for field in ("algorithm", "degraded_algorithm"):
        alg = doc.get(field)
        if alg is not None and (not isinstance(alg, str) or alg not in ALGORITHMS):
            yield Finding(
                f"{field} is {alg!r}, not a registered algorithm",
                location=field,
            )


@rule(
    "V006",
    severity=Severity.ERROR,
    pack="serve",
    title="fault specs must parse and target pool GPUs",
    requires=("serve_doc",),
    hint="faults use the compact spec strings (fail:G@T, repair:G@T, "
    "slow:G@TxF, link:S->D@TxF, loss:P[:jitter]) with GPU indices "
    "inside the pool",
)
def check_faults(ctx: LintContext) -> Iterator[Finding]:
    from ..substrate.faults import FaultError, FaultPlan

    doc = ctx.serve_doc
    assert doc is not None
    faults = doc.get("faults", [])
    if not isinstance(faults, list):
        yield Finding(
            f"faults is {type(faults).__name__}, expected an array of spec "
            "strings",
            location="faults",
        )
        return
    num_gpus = _int(doc.get("num_gpus", 4))
    for i, spec in enumerate(faults):
        if not isinstance(spec, str):
            yield Finding(
                f"faults[{i}] is {spec!r}, expected a spec string",
                location=f"faults[{i}]",
            )
            continue
        try:
            plan = FaultPlan.from_strings([spec])
            if num_gpus is not None and num_gpus >= 1:
                plan.validate_for(num_gpus)
        except FaultError as exc:
            yield Finding(str(exc), location=f"faults[{i}]")


@rule(
    "V007",
    severity=Severity.WARNING,
    pack="serve",
    title="overload threshold should be reachable",
    requires=("serve_doc",),
    hint="with overload_queue >= queue_capacity the queue sheds before "
    "degradation can ever engage; degraded knobs are then dead config",
)
def check_overload_reachable(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.serve_doc
    assert doc is not None
    capacity = _int(doc.get("queue_capacity", 16))
    overload = _int(doc.get("overload_queue", 8))
    if capacity is None or overload is None:
        return  # V011 reports the type
    if overload >= capacity:
        yield Finding(
            f"overload_queue {overload} >= queue_capacity {capacity}: "
            "degradation can never engage before admission sheds",
            location="overload_queue",
        )


@rule(
    "V008",
    severity=Severity.WARNING,
    pack="serve",
    title="retry budget should cover injected GPU failures",
    requires=("serve_doc",),
    hint="a query displaced by a GPU failure needs max_retries >= 1 to "
    "be re-admitted; with 0 it fails outright",
)
def check_retry_budget(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.serve_doc
    assert doc is not None
    retries = _int(doc.get("max_retries", 2))  # V011 reports a bad one
    backoff = finite(doc.get("retry_backoff_ms", 5.0))
    if backoff is None or backoff < 0:
        yield Finding(
            f"retry_backoff_ms is {doc.get('retry_backoff_ms')!r}, expected "
            "a non-negative finite number",
            location="retry_backoff_ms",
        )
    faults = doc.get("faults", [])
    has_failures = isinstance(faults, list) and any(
        isinstance(s, str) and s.startswith("fail:") for s in faults
    )
    if retries == 0 and has_failures:
        yield Finding(
            "max_retries is 0 while the fault plan injects GPU failures: "
            "displaced queries will fail instead of being re-admitted",
            location="max_retries",
        )


#: Bounds the config constructor enforces that V004 does not cover:
#: field -> smallest value it takes.
_MINIMUMS = {
    "window": 1, "queue_capacity": 1, "overload_queue": 0, "max_retries": 0,
    "retry_backoff_ms": 0,
}


@rule(
    "V011",
    severity=Severity.ERROR,
    pack="serve",
    title="config fields must have the types and bounds the parser takes",
    requires=("serve_doc",),
    hint="each scalar field of ServeConfig and TenantSpec takes the JSON "
    "type of its annotation (an integer counts as a number when a float "
    "can hold it, a bool only as a boolean); window and queue_capacity "
    "are >= 1, overload_queue, max_retries and retry_backoff_ms >= 0",
)
def check_field_types(ctx: LintContext) -> Iterator[Finding]:
    from ..serve.config import ServeConfig, TenantSpec  # annotations only

    doc = ctx.serve_doc
    assert doc is not None
    for name, expected in type_errors(ServeConfig, doc):
        yield Finding(f"{name} is {doc.get(name)!r}, expected {expected}", location=name)
    tenants = doc.get("tenants")
    for i, t in enumerate(tenants if isinstance(tenants, list) else []):
        if isinstance(t, Mapping):
            for name, expected in type_errors(TenantSpec, t):
                yield Finding(
                    f"tenants[{i}].{name} is {t.get(name)!r}, expected {expected}",
                    location=f"tenants[{i}].{name}",
                )
    for name, least in _MINIMUMS.items():
        value = doc.get(name, least)
        if isinstance(value, (int, float)) and not isinstance(value, bool) and value < least:
            yield Finding(f"{name} is {value!r}, expected >= {least}", location=name)


#: Counter fields every ``repro.servereport/v1`` document must carry as
#: non-negative integers.
_REPORT_COUNTERS = (
    "arrivals",
    "admitted",
    "completed",
    "shed_queue_full",
    "shed_deadline",
    "failed",
    "deadline_misses",
    "retries",
    "displaced",
    "repairs",
    "degraded_dispatches",
    "revived",
    "batched",
    "elastic_grows",
    "elastic_shrinks",
)


@rule(
    "V009",
    severity=Severity.ERROR,
    pack="serve",
    title="report counters must satisfy their conservation identities",
    requires=("serve_report_doc",),
    hint="arrivals == admitted + shed_queue_full and admitted == "
    "completed + shed_deadline + failed: every request reaches exactly "
    "one terminal status; a report violating this was not produced by "
    "the simulator",
)
def check_report_counters(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.serve_report_doc
    assert doc is not None
    fmt = doc.get("format")
    if fmt != SERVE_REPORT_FORMAT:
        yield Finding(
            f"format is {fmt!r}, expected {SERVE_REPORT_FORMAT!r}",
            location="format",
        )
        return
    counts: dict[str, int] = {}
    bad = False
    for key in _REPORT_COUNTERS:
        v = _int(doc.get(key))
        if v is None or v < 0:
            yield Finding(
                f"{key} is {doc.get(key)!r}, expected a non-negative integer",
                location=key,
            )
            bad = True
        else:
            counts[key] = v
    if bad:
        return
    if counts["arrivals"] != counts["admitted"] + counts["shed_queue_full"]:
        yield Finding(
            f"arrivals {counts['arrivals']} != admitted {counts['admitted']} "
            f"+ shed_queue_full {counts['shed_queue_full']}",
            location="arrivals",
        )
    terminal = counts["completed"] + counts["shed_deadline"] + counts["failed"]
    if counts["admitted"] != terminal:
        yield Finding(
            f"admitted {counts['admitted']} != completed {counts['completed']} "
            f"+ shed_deadline {counts['shed_deadline']} "
            f"+ failed {counts['failed']}",
            location="admitted",
        )
    if counts["deadline_misses"] > counts["completed"]:
        yield Finding(
            f"deadline_misses {counts['deadline_misses']} exceeds "
            f"completed {counts['completed']}",
            location="deadline_misses",
        )


@rule(
    "V010",
    severity=Severity.ERROR,
    pack="serve",
    title="embedded request records must add up to the report counters",
    requires=("serve_report_doc",),
    hint="with --requests the per-request records are the ground truth: "
    "completions, batched followers, repair rounds, displacements and "
    "elastic resizes summed over records must equal the aggregate "
    "counters",
)
def check_report_records(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.serve_report_doc
    assert doc is not None
    if doc.get("format") != SERVE_REPORT_FORMAT:
        return  # V009 already flags the format
    requests = doc.get("requests")
    if requests is None:
        return  # records not embedded; nothing to cross-check
    if not isinstance(requests, list):
        yield Finding(
            f"requests is {type(requests).__name__}, expected an array of "
            "request records",
            location="requests",
        )
        return
    records = [r for r in requests if isinstance(r, Mapping)]
    for i, r in enumerate(requests):
        if not isinstance(r, Mapping):
            yield Finding(
                f"requests[{i}] is {type(r).__name__}, expected a mapping",
                location=f"requests[{i}]",
            )
    derived = {
        "arrivals": len(records),
        "completed": sum(1 for r in records if r.get("status") == "completed"),
        "shed_queue_full": sum(
            1 for r in records if r.get("status") == "shed-queue"
        ),
        "shed_deadline": sum(
            1 for r in records if r.get("status") == "shed-deadline"
        ),
        "failed": sum(1 for r in records if r.get("status") == "failed"),
        "deadline_misses": sum(
            1
            for r in records
            if r.get("status") == "completed" and r.get("deadline_met") is False
        ),
        "batched": sum(1 for r in records if r.get("batched_with")),
        "repairs": sum(
            v for r in records if (v := _int(r.get("repairs", 0))) is not None
        ),
        "displaced": sum(
            v for r in records if (v := _int(r.get("displaced", 0))) is not None
        ),
    }
    for key, want in derived.items():
        have = _int(doc.get(key))
        if have is not None and have != want:
            yield Finding(
                f"{key} is {have} but the embedded records add up to {want}",
                location=key,
            )
    resizes = sum(
        v for r in records if (v := _int(r.get("resizes", 0))) is not None
    )
    grows, shrinks = _int(doc.get("elastic_grows")), _int(doc.get("elastic_shrinks"))
    if grows is not None and shrinks is not None and grows + shrinks != resizes:
        yield Finding(
            f"elastic_grows {grows} + elastic_shrinks {shrinks} != "
            f"sum of per-record resizes {resizes}",
            location="elastic_grows",
        )
