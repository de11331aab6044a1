"""Schedule rules (``S0xx``): feasibility and quality of a schedule.

Two groups share the pack:

* **document rules** (``schedule_doc`` subject) check a raw JSON
  schedule document *before* a :class:`Schedule` is even constructed —
  duplicate placements, bad GPU indices, malformed stages.  They are
  the machine-checkable JSON contract between any scheduler and any
  engine; :meth:`Schedule.from_dict` rejects documents these flag.
* **object rules** (``graph`` + ``schedule`` subjects) check a built
  schedule against its graph: the Alg. 1/3 placement-completeness and
  Alg. 2 stage invariants (every op exactly once, independent stages,
  acyclic stage graph, window bound), plus quality findings (idle GPUs,
  degenerate singleton stages, cross-GPU critical-path edges).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from ..core.priority import critical_path
from .diagnostics import Severity
from .framework import Finding, LintContext, rule

__all__: list[str] = []


# ----------------------------------------------------------------------
# document helpers
# ----------------------------------------------------------------------
def _doc_int(value: object) -> int | None:
    """``value`` if it is a JSON integer, else ``None`` — also for a
    bool, a float (``2.5``, ``Infinity``, ``NaN``) or a numeric string,
    which ``int()`` would accept, truncate or fail on."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


def _doc_entries(doc: Mapping[str, Any]) -> list[Mapping[str, Any]]:
    gpus = doc.get("gpus")
    if not isinstance(gpus, Sequence) or isinstance(gpus, (str, bytes)):
        return []
    return [e for e in gpus if isinstance(e, Mapping)]


def _entry_stages(entry: Mapping[str, Any]) -> list[Any]:
    stages = entry.get("stages")
    if not isinstance(stages, Sequence) or isinstance(stages, (str, bytes)):
        return []
    return list(stages)


@rule(
    "S001",
    severity=Severity.ERROR,
    pack="schedule",
    title="every graph operator must be placed",
    requires=("graph", "schedule"),
    hint="Alg. 1/3 must assign every operator to a GPU; re-run the "
    "spatial mapping over the full graph",
)
def check_all_placed(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.graph is not None and ctx.schedule is not None
    missing = [v for v in ctx.graph.names if v not in ctx.schedule]
    if missing:
        shown = ", ".join(repr(v) for v in missing[:5])
        if len(missing) > 5:
            shown += f", ... ({len(missing) - 5} more)"
        yield Finding(
            f"{len(missing)} operator(s) not scheduled: {shown}",
            location=f"op:{missing[0]}",
        )


@rule(
    "S002",
    severity=Severity.ERROR,
    pack="schedule",
    title="schedule must only reference graph operators",
    requires=("graph", "schedule"),
    hint="the schedule was produced for a different graph, or operator "
    "names were renamed after scheduling",
)
def check_known_ops(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.graph is not None and ctx.schedule is not None
    for op in ctx.schedule.operators():
        if op not in ctx.graph:
            yield Finding(
                f"schedule references unknown operator {op!r}",
                location=f"op:{op}",
            )


@rule(
    "S003",
    severity=Severity.ERROR,
    pack="schedule",
    title="each operator placed exactly once (document)",
    requires=("schedule_doc",),
    hint="remove the duplicate placement; an operator runs on exactly "
    "one GPU in exactly one stage",
)
def check_doc_duplicates(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.schedule_doc is not None
    seen: dict[str, str] = {}  # op name -> first location
    for ei, entry in enumerate(_doc_entries(ctx.schedule_doc)):
        gpu = entry.get("gpu", ei)
        for si, stage in enumerate(_entry_stages(entry)):
            if not isinstance(stage, Sequence) or isinstance(stage, (str, bytes)):
                continue  # S005's problem
            for op in stage:
                if not isinstance(op, str):
                    continue  # S005's problem
                where = f"gpu:{gpu}/stage:{si}"
                if op in seen:
                    yield Finding(
                        f"operator {op!r} placed twice: {seen[op]} and {where}",
                        location=f"op:{op}",
                    )
                else:
                    seen[op] = where


@rule(
    "S004",
    severity=Severity.ERROR,
    pack="schedule",
    title="GPU count and indices must be valid (document)",
    requires=("schedule_doc",),
    hint="GPU indices must be unique integers in [0, num_gpus), and "
    "'gpus' lists every declared GPU (an idle one with no stages)",
)
def check_doc_gpus(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.schedule_doc
    assert doc is not None
    num_gpus = _doc_int(doc.get("num_gpus"))
    if num_gpus is None:
        yield Finding("schedule document has no integer 'num_gpus' field")
        return
    if num_gpus < 1:
        yield Finding(f"schedule declares {num_gpus} GPUs; need at least one")
        return
    listed = doc.get("gpus")
    if isinstance(listed, (list, tuple)) and num_gpus > len(listed):
        # the bound on what building the schedule allocates
        yield Finding(f"schedule declares {num_gpus} GPUs but lists {len(listed)}")
    seen: set[int] = set()
    for ei, entry in enumerate(_doc_entries(doc)):
        gpu = _doc_int(entry.get("gpu"))
        if gpu is None:
            continue  # missing/malformed 'gpu' key is S005's problem
        if not (0 <= gpu < num_gpus):
            yield Finding(
                f"entry {ei} places stages on GPU {gpu} but the schedule "
                f"declares {num_gpus} GPU(s)",
                location=f"gpu:{gpu}",
            )
        elif gpu in seen:
            yield Finding(
                f"duplicate entry for GPU {gpu}: stage order across split "
                "entries is ambiguous",
                location=f"gpu:{gpu}",
            )
        seen.add(gpu)


@rule(
    "S005",
    severity=Severity.ERROR,
    pack="schedule",
    title="stages must be well-formed (document)",
    requires=("schedule_doc",),
    hint="each 'gpus' entry needs an integer 'gpu' and a list of "
    "non-empty stages of operator-name strings",
)
def check_doc_stages(ctx: LintContext) -> Iterator[Finding]:
    doc = ctx.schedule_doc
    assert doc is not None
    gpus = doc.get("gpus")
    if not isinstance(gpus, Sequence) or isinstance(gpus, (str, bytes)):
        yield Finding("schedule document has no 'gpus' list")
        return
    for ei, raw_entry in enumerate(gpus):
        if not isinstance(raw_entry, Mapping):
            yield Finding(f"entry {ei} of 'gpus' is not an object")
            continue
        raw_gpu = raw_entry.get("gpu")
        if not isinstance(raw_gpu, int) or isinstance(raw_gpu, bool):
            yield Finding(f"entry {ei} of 'gpus' has no integer 'gpu' field")
        where = f"gpu:{raw_gpu if isinstance(raw_gpu, int) else ei}"
        stages = raw_entry.get("stages")
        if not isinstance(stages, Sequence) or isinstance(stages, (str, bytes)):
            yield Finding(f"entry {ei} of 'gpus' has no 'stages' list", location=where)
            continue
        for si, stage in enumerate(stages):
            loc = f"{where}/stage:{si}"
            if not isinstance(stage, Sequence) or isinstance(stage, (str, bytes)):
                yield Finding(
                    f"stage {si} of entry {ei} is not a list of operator names",
                    location=loc,
                )
                continue
            if len(stage) == 0:
                yield Finding(f"stage {si} of entry {ei} is empty", location=loc)
            for op in stage:
                if not isinstance(op, str):
                    yield Finding(
                        f"stage {si} of entry {ei} holds a non-string "
                        f"operator name {op!r}",
                        location=loc,
                    )


@rule(
    "S006",
    severity=Severity.ERROR,
    pack="schedule",
    title="operators within a stage must be independent",
    requires=("graph", "schedule"),
    hint="Alg. 2 may only group operators with no directed path "
    "between them; split the stage",
)
def check_stage_independence(ctx: LintContext) -> Iterator[Finding]:
    graph, schedule = ctx.graph, ctx.schedule
    assert graph is not None and schedule is not None
    for st in schedule.all_stages():
        placed = [op for op in st.ops if op in graph]
        if len(placed) < 2:
            continue
        group = set(placed)
        reported: set[tuple[str, str]] = set()
        for op in placed:
            for other in sorted(graph.descendants(op) & group):
                if (op, other) not in reported:
                    reported.add((op, other))
                    yield Finding(
                        f"stage {st.ops} on GPU {st.gpu} contains dependent "
                        f"operators: {op!r} precedes {other!r}",
                        location=f"gpu:{st.gpu}/op:{op}",
                    )


@rule(
    "S007",
    severity=Severity.ERROR,
    pack="schedule",
    title="intra-GPU stage order must respect dependencies",
    requires=("graph", "schedule"),
    hint="reorder the GPU's stage list so producers come before "
    "consumers (a topological order always exists)",
)
def check_intra_gpu_order(ctx: LintContext) -> Iterator[Finding]:
    graph, schedule = ctx.graph, ctx.schedule
    assert graph is not None and schedule is not None
    for u, v, _w in graph.edges():
        if u not in schedule or v not in schedule:
            continue
        if schedule.gpu_of(u) != schedule.gpu_of(v):
            continue
        iu, iv = schedule.stage_index_of(u), schedule.stage_index_of(v)
        if iu > iv:
            yield Finding(
                f"operator {u!r} must precede {v!r} on GPU "
                f"{schedule.gpu_of(u)} but is scheduled in a later stage "
                f"({iu} > {iv})",
                location=f"edge:{u}->{v}",
            )


@rule(
    "S008",
    severity=Severity.ERROR,
    pack="schedule",
    title="stage graph must be acyclic",
    requires=("graph", "schedule"),
    hint="the schedule deadlocks: two GPUs each wait for a stage of the "
    "other; move one of the offending operators",
)
def check_stage_graph_acyclic(ctx: LintContext) -> Iterator[Finding]:
    graph, schedule = ctx.graph, ctx.schedule
    assert graph is not None and schedule is not None
    stages = schedule.all_stages()
    index = {id(st): i for i, st in enumerate(stages)}
    op_stage = {op: index[id(st)] for st in stages for op in st.ops}
    succ: list[set[int]] = [set() for _ in stages]
    for gpu in range(schedule.num_gpus):
        chain = schedule.stages_on(gpu)
        for a, b in zip(chain, chain[1:]):
            succ[index[id(a)]].add(index[id(b)])
    for u, v, _w in graph.edges():
        if u not in op_stage or v not in op_stage:
            continue
        su, sv = op_stage[u], op_stage[v]
        if su != sv:  # same-stage dependence is S006's finding
            succ[su].add(sv)
    indeg = [0] * len(stages)
    for s in range(len(stages)):
        for t in succ[s]:
            indeg[t] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    seen = 0
    while ready:
        x = ready.pop()
        seen += 1
        for t in succ[x]:
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    if seen != len(stages):
        stuck = [i for i, d in enumerate(indeg) if d > 0]
        involved = sorted({stages[i].gpu for i in stuck})
        yield Finding(
            f"stage graph contains a cycle through {len(stuck)} stage(s) on "
            f"GPU(s) {involved}: no legal execution order exists "
            "(deadlocked schedule)",
            location=f"gpu:{involved[0]}" if involved else None,
        )


@rule(
    "S009",
    severity=Severity.WARNING,
    pack="schedule",
    title="stage width must respect the window bound",
    requires=("schedule",),
    hint="Alg. 2 groups at most w operators per stage (one CUDA stream "
    "each); wider stages oversubscribe the device",
)
def check_window(ctx: LintContext) -> Iterator[Finding]:
    schedule = ctx.schedule
    assert schedule is not None
    if ctx.window is None or ctx.window <= 0:
        return
    for gpu in range(schedule.num_gpus):
        for si, st in enumerate(schedule.stages_on(gpu)):
            if len(st) > ctx.window:
                yield Finding(
                    f"stage {si} on GPU {gpu} holds {len(st)} operators, "
                    f"exceeding the window bound w={ctx.window}",
                    location=f"gpu:{gpu}/stage:{si}",
                )


@rule(
    "S010",
    severity=Severity.WARNING,
    pack="schedule",
    title="no idle GPUs",
    requires=("schedule",),
    hint="an idle GPU is paid-for capacity doing nothing; lower "
    "num_gpus or rebalance the placement",
)
def check_idle_gpus(ctx: LintContext) -> Iterator[Finding]:
    schedule = ctx.schedule
    assert schedule is not None
    if schedule.num_gpus <= 1:
        return
    used = set(schedule.used_gpus())
    for gpu in range(schedule.num_gpus):
        if gpu not in used:
            yield Finding(
                f"GPU {gpu} hosts no operators (idle)", location=f"gpu:{gpu}"
            )


@rule(
    "S011",
    severity=Severity.INFO,
    pack="schedule",
    title="mergeable singleton stages",
    requires=("graph", "schedule"),
    hint="consecutive singleton stages of independent operators could "
    "share a stage and overlap (Alg. 2 would group them)",
)
def check_singleton_stages(ctx: LintContext) -> Iterator[Finding]:
    graph, schedule = ctx.graph, ctx.schedule
    assert graph is not None and schedule is not None
    for gpu in range(schedule.num_gpus):
        chain = schedule.stages_on(gpu)
        pairs = 0
        example: tuple[str, str] | None = None
        for a, b in zip(chain, chain[1:]):
            if len(a) != 1 or len(b) != 1:
                continue
            ua, ub = a.ops[0], b.ops[0]
            if ua in graph and ub in graph and graph.independent((ua, ub)):
                pairs += 1
                if example is None:
                    example = (ua, ub)
        if pairs and example is not None:
            yield Finding(
                f"GPU {gpu} runs {pairs} pair(s) of independent operators in "
                f"consecutive singleton stages (e.g. {example[0]!r} then "
                f"{example[1]!r})",
                location=f"gpu:{gpu}",
            )


@rule(
    "S012",
    severity=Severity.WARNING,
    pack="schedule",
    title="critical path should stay on one GPU",
    requires=("graph", "schedule"),
    hint="HIOS-LP's whole point: co-locate longest-path operators so "
    "the critical path pays no transfer time",
)
def check_critical_path_crossings(ctx: LintContext) -> Iterator[Finding]:
    graph, schedule = ctx.graph, ctx.schedule
    assert graph is not None and schedule is not None
    if not graph.is_dag():
        return  # G001's problem
    path = critical_path(graph, include_transfers=True)
    crossings: list[tuple[str, str]] = []
    for u, v in zip(path, path[1:]):
        if u in schedule and v in schedule and schedule.gpu_of(u) != schedule.gpu_of(v):
            crossings.append((u, v))
    if crossings:
        shown = ", ".join(f"{u}->{v}" for u, v in crossings[:4])
        if len(crossings) > 4:
            shown += f", ... ({len(crossings) - 4} more)"
        yield Finding(
            f"{len(crossings)} of {max(len(path) - 1, 0)} critical-path "
            f"edge(s) cross GPUs: {shown}",
            location=f"edge:{crossings[0][0]}->{crossings[0][1]}",
        )
