"""The basic client–server workload (Fig 6) and its simulation driver.

C sedentary clients share S1 movable servers.  Each client loops
forever: wait t_m, pick a server uniformly, open a move-block (move →
N invocations spaced t_i → end).  "Concurrency and the rate of
conflicting move-policies between different clients is incremented
through two parameters: in incrementing the number of clients [C] or in
decrementing the time between the move-blocks inside each client t_m"
(§4.1) — exactly the two sweeps of Figs 8 and 12.

:class:`WorkloadRunner` is the shared chunked-execution driver: it runs
the simulation in time slices, polling the §4.1 stopping rule between
slices, and produces a :class:`WorkloadResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.metrics import MetricsCollector
from repro.core.moveblock import MoveBlock
from repro.core.policies.base import MigrationPolicy
from repro.core.policies.registry import make_policy
from repro.network.latency import NormalizedExponentialLatency
from repro.network.topology import make_topology
from repro.runtime.locator import make_locator
from repro.runtime.objects import DistributedObject
from repro.runtime.system import DistributedSystem
from repro.sim.stopping import StoppingConfig
from repro.sim.trace import NULL_TRACER, Tracer
from repro.workload.generator import BlockTimingGenerator
from repro.workload.params import SimulationParameters


@dataclass
class WorkloadResult:
    """Outcome of one simulated cell.

    ``series`` values are what the figure harness plots; ``raw`` keeps
    the full metric summary for EXPERIMENTS.md.
    """

    params: SimulationParameters
    mean_communication_time_per_call: float
    mean_call_duration: float
    mean_migration_time_per_call: float
    simulated_time: float
    raw: Dict = field(default_factory=dict)


class WorkloadRunner:
    """Chunked simulation driver with the paper's stopping rule."""

    #: Simulated time per chunk between stopping-rule polls.
    CHUNK = 2_000.0
    #: Absolute ceiling on simulated time (secondary safety net; the
    #: primary bound is the stopping config's max_observations).
    MAX_TIME = 5_000_000.0

    def __init__(self, workload: "ClientServerWorkload"):
        self.workload = workload

    def run(self) -> WorkloadResult:
        """Drive the workload in chunks until the stopping rule fires."""
        w = self.workload
        env = w.system.env
        w.start()
        while True:
            env.run(until=env.now + self.CHUNK)
            if w.metrics.should_stop():
                break
            if env.now >= self.MAX_TIME:
                break
        w.metrics.finalize(w.policy)
        m = w.metrics
        return WorkloadResult(
            params=w.params,
            mean_communication_time_per_call=m.mean_communication_time_per_call,
            mean_call_duration=m.mean_call_duration,
            mean_migration_time_per_call=m.mean_migration_time_per_call,
            simulated_time=env.now,
            raw={
                "metrics": m.summary(),
                "policy": w.policy.stats(),
                "network": {
                    "remote_messages": w.system.network.remote_messages,
                    "local_messages": w.system.network.local_messages,
                },
                "migrations": w.system.migrations.migration_count,
            },
        )


class ClientServerWorkload:
    """Builds and runs the Fig 6 structure for one parameter cell."""

    def __init__(
        self,
        params: SimulationParameters,
        stopping: Optional[StoppingConfig] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        params.validate()
        self.params = params
        self.metrics = MetricsCollector(stopping)
        self.system = self._build_system(params, tracer)
        self.servers = self._place_servers()
        self.clients = self._place_clients()
        self.policy = self._build_policy()
        self._started = False

    # -- construction -----------------------------------------------------------

    def _build_system(
        self, params: SimulationParameters, tracer: Tracer
    ) -> DistributedSystem:
        topology = make_topology(params.topology, params.nodes)
        system = DistributedSystem(
            nodes=params.nodes,
            seed=params.seed,
            migration_duration=params.migration_duration,
            topology=topology,
            latency=NormalizedExponentialLatency(params.mean_message_latency),
            tracer=tracer,
        )
        if params.locator != "immediate":
            locator = make_locator(params.locator, system.env, system.network)
            system.locator = locator
            system.invocations.locator = locator
            system.migrations.locator = locator
        return system

    def _place_servers(self) -> List[DistributedObject]:
        return [
            self.system.create_server(
                node=self.params.server_node(j), name=f"server-{j}"
            )
            for j in range(self.params.servers_layer1)
        ]

    def _place_clients(self) -> List[DistributedObject]:
        return [
            self.system.create_client(
                node=self.params.client_node(i), name=f"client-{i}"
            )
            for i in range(self.params.clients)
        ]

    def _build_policy(self) -> MigrationPolicy:
        return make_policy(self.params.policy, self.system)

    # -- the client behaviour --------------------------------------------------------

    def _pick_server(self, picker) -> DistributedObject:
        """Uniform server choice; override point for subclasses."""
        return picker.choice(self.servers)

    def _block_body(self, client: DistributedObject, block: MoveBlock, plan):
        """Process fragment: the N invocations of one block."""
        env = self.system.env
        invoke = self.system.invocations.invoke
        record_call = block.record_call
        for gap in plan.intercall_times:
            if gap > 0:
                yield env.sleep(gap)
            result = yield from invoke(client.node_id, block.target)
            record_call(result.duration)

    def _make_block(
        self, client: DistributedObject, target: DistributedObject
    ) -> MoveBlock:
        """Create the block; layered subclass attaches the alliance."""
        return MoveBlock(client.node_id, target)

    def client_process(self, index: int):
        """The endless move-block loop of client ``index`` (§4.1)."""
        client = self.clients[index]
        timing = BlockTimingGenerator(
            self.params, self.system.streams.stream(f"client.{index}.timing")
        )
        picker = self.system.streams.stream(f"client.{index}.pick")
        visit = self.params.block_style == "visit"
        while True:
            plan = timing.next_plan()
            if plan.lead_time > 0:
                yield self.system.env.sleep(plan.lead_time)
            target = self._pick_server(picker)
            origin = target.node_id
            block = self._make_block(client, target)
            yield from self.policy.move(block)
            yield from self._block_body(client, block, plan)
            yield from self.policy.end(block)
            if (
                visit
                and block.granted
                and target.node_id != origin
                and not target.is_locked
            ):
                # Call-by-visit (§2.3): "a move and a migrate back".
                # The return transfer is part of the block's migration
                # cost, amortized over its calls like the outbound one.
                t0 = self.system.env.now
                yield from self.system.migrations.migrate([target], origin)
                block.migration_cost += self.system.env.now - t0
            self.metrics.record_block(block)

    # -- execution --------------------------------------------------------------------

    def start(self) -> None:
        """Launch every client's process (idempotent)."""
        if self._started:
            return
        self._started = True
        for i in range(len(self.clients)):
            self.system.env.process(
                self.client_process(i), name=f"client-{i}"
            )

    def run(self) -> WorkloadResult:
        """Simulate until the stopping rule fires; return the metrics."""
        return WorkloadRunner(self).run()


def run_cell(
    params: SimulationParameters,
    stopping: Optional[StoppingConfig] = None,
    tracer: Tracer = NULL_TRACER,
) -> WorkloadResult:
    """Convenience: build and run the right workload for ``params``.

    Dispatches to the layered (Fig 7) workload when S2 > 0.
    """
    if params.is_layered:
        from repro.workload.layered import LayeredWorkload

        return LayeredWorkload(params, stopping=stopping, tracer=tracer).run()
    return ClientServerWorkload(params, stopping=stopping, tracer=tracer).run()
