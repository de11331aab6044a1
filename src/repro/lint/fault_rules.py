"""Fault-plan rules (``F0xx``): sanity of declarative fault plans.

A :class:`~repro.substrate.faults.FaultPlan` is validated structurally
at construction, but whole-plan properties — indices vs. the run's GPU
count, events that can never fire, contradictory spec combinations,
retry budgets that a loss probability will realistically exhaust — only
make sense against context.  These rules catch the "why did my fault
do nothing?" class of experiment bugs before a run burns time.
"""

from __future__ import annotations

import math
from typing import Iterator

from ..substrate.faults import GpuFailure, GpuSlowdown, LinkDegradation, TransferLoss
from .diagnostics import Severity
from .framework import Finding, LintContext, rule

__all__: list[str] = []


@rule(
    "F001",
    severity=Severity.ERROR,
    pack="faults",
    title="fault targets must exist",
    requires=("plan",),
    hint="the spec names a GPU or link endpoint outside [0, num_gpus); "
    "it would raise at run time or silently target nothing",
)
def check_gpu_indices(ctx: LintContext) -> Iterator[Finding]:
    plan = ctx.plan
    assert plan is not None
    num_gpus = ctx.num_gpus
    if num_gpus is None and ctx.schedule is not None:
        num_gpus = ctx.schedule.num_gpus
    if num_gpus is None:
        return
    for i, message in plan.out_of_range(num_gpus):
        yield Finding(message, location=f"spec:{i}")


@rule(
    "F002",
    severity=Severity.WARNING,
    pack="faults",
    title="fault events must fire within the horizon",
    requires=("plan",),
    hint="the event time is at or beyond the run's horizon (expected "
    "makespan); the fault will never be observed",
)
def check_horizon(ctx: LintContext) -> Iterator[Finding]:
    plan = ctx.plan
    assert plan is not None
    if ctx.horizon is None:
        return
    for i, spec in enumerate(plan.specs):
        at = getattr(spec, "at", None)
        if at is not None and at >= ctx.horizon:
            yield Finding(
                f"{type(spec).__name__} fires at t={at} ms but the run "
                f"horizon is {ctx.horizon} ms",
                location=f"spec:{i}",
            )


@rule(
    "F003",
    severity=Severity.WARNING,
    pack="faults",
    title="no contradictory fault specs",
    requires=("plan",),
    hint="faults scheduled on/after a GPU's fail-stop can never be "
    "observed; the engine halts at the first failure",
)
def check_contradictions(ctx: LintContext) -> Iterator[Finding]:
    plan = ctx.plan
    assert plan is not None
    failures = plan.failures()
    if not failures:
        return
    first = failures[0]
    fail_at: dict[int, float] = {}
    for f in failures:
        fail_at.setdefault(f.gpu, f.at)
    for i, spec in enumerate(plan.specs):
        if isinstance(spec, GpuFailure):
            if spec.gpu in fail_at and spec.at > fail_at[spec.gpu]:
                yield Finding(
                    f"GPU {spec.gpu} fail-stops at t={fail_at[spec.gpu]} ms; "
                    f"the second failure at t={spec.at} ms can never fire",
                    location=f"spec:{i}",
                )
            elif spec is not first and spec.at > first.at:
                yield Finding(
                    f"the engine halts at the first fail-stop (GPU "
                    f"{first.gpu}, t={first.at} ms); the failure of GPU "
                    f"{spec.gpu} at t={spec.at} ms is unreachable",
                    location=f"spec:{i}",
                )
        elif isinstance(spec, GpuSlowdown):
            when = fail_at.get(spec.gpu)
            if when is not None and spec.at >= when:
                yield Finding(
                    f"GpuSlowdown of GPU {spec.gpu} at t={spec.at} ms is "
                    f"unreachable: the GPU fail-stops at t={when} ms",
                    location=f"spec:{i}",
                )
        elif isinstance(spec, LinkDegradation):
            for g in (spec.src, spec.dst):
                when = fail_at.get(g)
                if when is not None and spec.at >= when:
                    yield Finding(
                        f"LinkDegradation of link {spec.src}->{spec.dst} at "
                        f"t={spec.at} ms is unreachable: GPU {g} fail-stops "
                        f"at t={when} ms",
                        location=f"spec:{i}",
                    )
                    break


@rule(
    "F004",
    severity=Severity.ERROR,
    pack="faults",
    title="fault parameters must be finite",
    requires=("plan",),
    hint="NaN/inf event times or factors pass construction-time range "
    "checks but corrupt the event queue",
)
def check_finite_params(ctx: LintContext) -> Iterator[Finding]:
    plan = ctx.plan
    assert plan is not None
    fields = ("at", "factor", "bw_factor", "prob", "timeout_ms", "backoff_ms")
    for i, spec in enumerate(plan.specs):
        for name in fields:
            value = getattr(spec, name, None)
            if value is not None and not math.isfinite(value):
                yield Finding(
                    f"{type(spec).__name__}.{name} is {value}",
                    location=f"spec:{i}",
                )


@rule(
    "F005",
    severity=Severity.WARNING,
    pack="faults",
    title="loss probability must leave a survivable retry budget",
    requires=("plan",),
    hint="raise max_retries or lower the loss probability; an "
    "exhausted budget aborts the run with a FaultError",
)
def check_loss_budget(ctx: LintContext) -> Iterator[Finding]:
    plan = ctx.plan
    assert plan is not None
    for i, spec in enumerate(plan.specs):
        if not isinstance(spec, TransferLoss) or spec.prob <= 0.0:
            continue
        p_exhaust = spec.prob ** spec.max_retries
        if p_exhaust > 1e-3:
            yield Finding(
                f"TransferLoss(prob={spec.prob}, max_retries="
                f"{spec.max_retries}) exhausts its retry budget with "
                f"probability {p_exhaust:.2g} per message",
                location=f"spec:{i}",
            )


@rule(
    "F006",
    severity=Severity.INFO,
    pack="faults",
    title="no no-op fault specs",
    requires=("plan",),
    hint="a factor of 1.0 injects nothing; drop the spec or pick a "
    "real degradation factor",
)
def check_noop_specs(ctx: LintContext) -> Iterator[Finding]:
    plan = ctx.plan
    assert plan is not None
    for i, spec in enumerate(plan.specs):
        if isinstance(spec, GpuSlowdown) and spec.factor == 1.0:
            yield Finding(
                f"GpuSlowdown of GPU {spec.gpu} has factor 1.0 (no effect)",
                location=f"spec:{i}",
            )
        elif isinstance(spec, LinkDegradation) and spec.bw_factor == 1.0:
            yield Finding(
                f"LinkDegradation of link {spec.src}->{spec.dst} has "
                "bw_factor 1.0 (no effect)",
                location=f"spec:{i}",
            )
