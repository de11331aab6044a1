"""Platform profiler: measure operator costs on a simulated platform.

HIOS is profile-based: before scheduling, it measures each operator's
solo execution time, candidate concurrent sets, and inter-GPU transfer
times.  :class:`PlatformProfiler` performs those "measurements" against
the analytic device/link models, producing the cost-annotated
:class:`~repro.core.graph.OpGraph` and the
:class:`~repro.costmodel.profile.CostProfile` every scheduler consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.graph import OpGraph
from ..core.schedule import Schedule
from ..costmodel.concurrency import SaturationConcurrencyModel, TableConcurrencyModel
from ..costmodel.profile import CostProfile
from .device import KernelWork
from .engine import EngineConfig, MultiGpuEngine
from .platform import MultiGpuPlatform
from ..models.builder import ModelGraph

__all__ = ["PlatformProfiler"]


@dataclass
class PlatformProfiler:
    """Prices model graphs against one multi-GPU platform.

    ``contention_penalty`` and ``stream_overhead`` are forwarded to the
    concurrency model so the scheduler's analytic ``t(S)`` agrees with
    the engine's contention behaviour; ``max_streams`` bounds stage
    width (the preset ``L`` of Section III-A, 0 = unbounded).
    """

    platform: MultiGpuPlatform
    contention_penalty: float = 0.06
    stream_overhead: float = 0.15
    max_streams: int = 0

    def work_of(self, model: ModelGraph, name: str) -> KernelWork:
        """Kernel footprint of one operator in the model."""
        node = model.node(name)
        flops, rd, wr, blocks = node.spec.work_items(
            model.input_shapes(name), node.output
        )
        return KernelWork(
            flops=flops, bytes_read=rd, bytes_written=wr, blocks=blocks
        )

    def price_graph(self, model: ModelGraph) -> OpGraph:
        """Measure every operator and dependency; returns the priced DAG."""
        costs: dict[str, float] = {}
        occupancies: dict[str, float] = {}
        for node in model.nodes():
            work = self.work_of(model, node.name)
            costs[node.name] = self.platform.kernel_time(work)
            occupancies[node.name] = self.platform.occupancy(work)
        transfers: dict[tuple[str, str], float] = {}
        for node in model.nodes():
            for t in node.inputs:
                if t in model:
                    producer = model.node(t)
                    transfers[(t, node.name)] = self.platform.transfer_time(
                        producer.output.bytes
                    )
        return model.to_op_graph(costs, occupancies, transfers)

    def profile(self, model: ModelGraph, num_gpus: int | None = None) -> CostProfile:
        """Full profile: priced graph + concurrency model + GPU count."""
        return CostProfile(
            graph=self.price_graph(model),
            concurrency=SaturationConcurrencyModel(
                self.contention_penalty, self.stream_overhead
            ),
            num_gpus=num_gpus if num_gpus is not None else self.platform.num_gpus,
            max_streams=self.max_streams,
        )

    def measure_stage_times(
        self,
        graph: OpGraph,
        schedule: Schedule,
        overlap_launch: bool = False,
    ) -> TableConcurrencyModel:
        """Execute ``schedule`` on the engine and record the *measured*
        wall time of every multi-operator stage as a profiled ``t(S)``.

        This is the paper's feedback loop: analytic estimates seed the
        first schedule, real measurements of the concurrent groups it
        chose refine the next one.  Singleton stages are not recorded
        (their solo times are already the graph's vertex weights)."""
        trace = self.engine(overlap_launch=overlap_launch).run(graph, schedule)
        table = TableConcurrencyModel(
            fallback=SaturationConcurrencyModel(
                self.contention_penalty, self.stream_overhead
            )
        )
        for stage in schedule.all_stages():
            if len(stage) < 2:
                continue
            start = min(trace.op_start[op] for op in stage.ops)
            finish = max(trace.op_finish[op] for op in stage.ops)
            table.record(stage.ops, max(0.0, finish - start))
        return table

    def iterative_profile(
        self,
        model: ModelGraph,
        algorithm: str = "hios-lp",
        rounds: int = 2,
        num_gpus: int | None = None,
        **schedule_kwargs: object,
    ):
        """Alternate scheduling and stage measurement ``rounds`` times.

        Returns ``(profile, result)`` — the final cost profile (with
        the measured stage table installed) and the final schedule
        result.  One round is the plain analytic flow; each further
        round re-prices the concurrent groups the previous schedule
        actually formed."""
        from ..core.api import schedule_graph  # local import avoids a cycle

        if rounds < 1:
            raise ValueError("need at least one round")
        profile = self.profile(model, num_gpus=num_gpus)
        result = schedule_graph(profile, algorithm, **schedule_kwargs)
        for _ in range(rounds - 1):
            table = self.measure_stage_times(profile.graph, result.schedule)
            profile = CostProfile(
                graph=profile.graph,
                concurrency=table,
                num_gpus=profile.num_gpus,
                max_streams=profile.max_streams,
                send_blocking=profile.send_blocking,
            )
            result = schedule_graph(profile, algorithm, **schedule_kwargs)
        return profile, result

    def engine(self, overlap_launch: bool = False) -> MultiGpuEngine:
        """An engine configured consistently with this profiler."""
        return MultiGpuEngine(
            EngineConfig(
                launch_overhead_ms=self.platform.device.launch_overhead_ms,
                launch_included_in_cost=True,
                contention_penalty=self.contention_penalty,
                stream_overhead=self.stream_overhead,
                overlap_launch=overlap_launch,
                max_streams=self.max_streams,
                link=self.platform.link,
            )
        )
