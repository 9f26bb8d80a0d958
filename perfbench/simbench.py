"""The two sim workloads: a paper-figure cell run end to end.

``sim-attach`` is the Fig 16 cell at C=12 with conventional migration
and unrestricted attachment; ``sim-sharded`` is the Fig 12 hot-spot
cell (D=27, C=25, S1=3, placement) through ``run_sharded_cell`` on 2
shards.  Each run repeats small fixed-size cells (a fixed observation
count, not the §4.1 precision rule, about a quarter second each, so
that the host-speed reference passes between them follow the host) for
the requested wall time.  Cell 0 runs at a
pinned seed whose metrics digest is checked against ``golden.json``;
the other cells' seeds derive from ``--seed``.  The program only ever
sees the generated :class:`~repro.workload.params.SimulationParameters`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List

from estimate import MIN_BEYOND_P99, HostSpeed, tail
from tracing import LayerClock, MoveClock, install_sim

_perf = time.perf_counter

#: Seeds whose digests ``golden.json`` records; cell 0 of a run uses
#: ``PINNED_SEEDS[seed % 3]``.
PINNED_SEEDS = (101, 102, 103)

#: Set-ups timed per cell in the untraced run (see :func:`run_cell`).
SETUP_BATCH = 4

#: Layers the traced sim run attributes self time to, in report order.
SIM_LAYERS = (
    "sim.kernel",
    "runtime.invocation",
    "runtime.migration",
    "core.policies",
    "core.attachment",
    "network",
    "sim.stats",
    "sim.rng",
    "sim.resources",
    "workload",
    "sim.shard",
)


@dataclass(frozen=True)
class SimSpec:
    name: str
    #: Post-warmup observations after which a cell stops (per shard
    #: for the sharded workload).
    observations: int
    shards: int = 1

    def params(self, seed: int):
        from repro.core.attachment import AttachmentMode
        from repro.experiments.figures import FIG12_BASE, FIG16_BASE

        if self.name == "sim-attach":
            return FIG16_BASE.with_overrides(
                clients=12,
                policy="migration",
                attachment_mode=AttachmentMode.UNRESTRICTED,
                use_alliances=False,
                seed=seed,
            )
        # The hot-spot cell (sim-sharded, and the self-test's cells).
        return FIG12_BASE.with_overrides(
            clients=25, policy="placement", seed=seed
        )

    def stopping(self):
        from repro.sim.stopping import StoppingConfig

        # A precision target no cell reaches: the cap alone stops it.
        return StoppingConfig(
            relative_precision=1e-9, max_observations=self.observations
        )


SPECS = {
    "sim-attach": SimSpec("sim-attach", observations=2_000),
    "sim-sharded": SimSpec("sim-sharded", observations=1_500, shards=2),
}


def cell_seeds(seed: int):
    """Cell 0 at a pinned seed, then seeds derived from ``seed``."""
    yield PINNED_SEEDS[seed % len(PINNED_SEEDS)]
    index = 1
    while True:
        yield seed * 1000 + index
        index += 1


def digest(fingerprint: Dict) -> str:
    blob = json.dumps(fingerprint, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Cell:
    """One cell's outcome, as read from what the entry points return."""

    seed: int
    #: Seconds of each set-up of the cell, in order.
    setups: List[float]
    wall_s: float
    calls: int
    migrations: int
    messages: int
    blocks: int
    granted: int
    rejected: int
    #: Kernel events (unsharded only; 0 where not observable).
    events: int
    #: Per call, |Σ per-call observations + costs no call carries −
    #: mean communication time × calls| (see :func:`_identity_error`).
    identity_error: float
    #: Observations in the per-call stream (must equal ``calls``).
    observations: int
    #: The policies' own move counters, bumped when a move is decided;
    #: ``granted``/``rejected`` are counted when a block completes.
    policy_requested: int
    policy_granted: int
    policy_rejected: int
    #: Blocks that can be open at the stop: one per client.
    clients: int
    fingerprint: Dict
    moves: List[float]
    windows: int = 0
    messages_exchanged: int = 0

    @property
    def digest(self) -> str:
        return digest(self.fingerprint)

    def counts(self) -> Dict[str, int]:
        return {
            "calls": self.calls,
            "migrations": self.migrations,
            "messages": self.messages,
            "blocks": self.blocks,
            "events": self.events,
            "windows": self.windows,
        }


def _identity_error(result, collectors) -> float:
    """How far, per call, the §4.2.1 identity misses.

    The collectors' per-call stream holds one observation ``d_i +
    m_b / N_b`` per call; with the migration cost no call carries
    (system-initiated moves, blocks without calls) its sum must equal
    ``mean_communication_time_per_call × calls``, which the result
    builds from the separate call-duration and migration-cost tallies.
    """
    calls = sum(c.call_count for c in collectors)
    if not calls:
        return 0.0
    total = sum(
        c.per_call.mean * c.per_call.count
        + c.system_migration_cost
        + c.unamortized_migration_cost
        for c in collectors
    )
    return abs(total - result.mean_communication_time_per_call * calls) / calls


def _policy_counts(stats) -> Dict[str, int]:
    return {
        key: sum(s[key] for s in stats)
        for key in ("moves_requested", "moves_granted", "moves_rejected")
    }


def run_cell(spec: SimSpec, seed: int, move_clock: MoveClock,
             telemetry=None, backend: str = "inline",
             setup_batch: int = 1) -> Cell:
    """Build and run one cell through the public entry points.

    The cell is set up ``setup_batch`` times in a row, each set-up timed
    on its own, and the last set-up is run (see :mod:`estimate`).

    Sharded cells run on the inline backend unless ``backend`` says
    ``"process"`` (2 worker processes); both give identical results.
    """
    params = spec.params(seed)
    gc.collect()  # no earlier cell's garbage is collected inside the timing
    if spec.shards > 1:
        return _run_sharded(spec, params, move_clock, telemetry, backend,
                            setup_batch)
    from repro.workload.clientserver import ClientServerWorkload
    from repro.workload.layered import LayeredWorkload

    cls = LayeredWorkload if params.is_layered else ClientServerWorkload
    move_clock.take()
    setups = []
    for _ in range(setup_batch):
        t0 = _perf()
        workload = cls(params, stopping=spec.stopping())
        workload.start()
        setups.append(_perf() - t0)
    if setup_batch > 1:
        gc.collect()  # the unused set-ups
    t1 = _perf()
    result = workload.run()
    t2 = _perf()
    raw = result.raw
    m = raw["metrics"]
    events = workload.system.env.scheduled_events
    policy = _policy_counts([raw["policy"]])
    return Cell(
        seed=seed,
        setups=setups,
        wall_s=t2 - t1,
        calls=m["calls"],
        migrations=raw["migrations"],
        messages=sum(raw["network"].values()),
        blocks=m["blocks"],
        granted=m["granted_blocks"],
        rejected=m["rejected_blocks"],
        events=events,
        identity_error=_identity_error(result, [workload.metrics]),
        observations=workload.metrics.per_call.count,
        policy_requested=policy["moves_requested"],
        policy_granted=policy["moves_granted"],
        policy_rejected=policy["moves_rejected"],
        clients=params.clients,
        fingerprint={
            "metrics": m,
            "policy": raw["policy"],
            "network": raw["network"],
            "migrations": raw["migrations"],
            "simulated_time": result.simulated_time,
            "events": events,
        },
        moves=move_clock.take(),
    )


class _SetupOnly(Exception):
    """Stops a sharded cell once its set-up is done."""


class _SyncStamp:
    """Stamps when the window protocol starts: the end of shard set-up.

    With ``setup_only`` set, the protocol is not run at all.
    """

    def __init__(self):
        self.started = 0.0
        self.setup_only = False
        self._clock = LayerClock()

    def install(self) -> None:
        from repro.sim.shard.sync import ConservativeWindowSync

        run = ConservativeWindowSync.run
        stamp = self

        def stamped_run(sync):
            stamp.started = _perf()
            if stamp.setup_only:
                raise _SetupOnly
            return run(sync)

        self._clock.patch(ConservativeWindowSync, "run", stamped_run)

    def restore(self) -> None:
        self._clock.restore()


def _run_sharded(spec, params, move_clock, telemetry, backend,
                 setup_batch) -> Cell:
    from repro.sim.shard.runner import run_sharded_cell
    from repro.telemetry.core import NULL_TELEMETRY

    def run():
        return run_sharded_cell(
            params,
            spec.shards,
            spec.stopping(),
            backend=backend,
            workers=2 if backend == "process" else None,
            telemetry=telemetry if telemetry is not None else NULL_TELEMETRY,
        )

    stamp = _SyncStamp()
    stamp.install()
    setups = []
    try:
        stamp.setup_only = True
        for _ in range(setup_batch - 1):
            t0 = _perf()
            try:
                run()
            except _SetupOnly:
                setups.append(stamp.started - t0)
        stamp.setup_only = False
        t0 = _perf()
        result = run()
        t2 = _perf()
    finally:
        stamp.restore()
    setups.append(stamp.started - t0)
    raw = result.raw
    sync = raw["sync"]
    moves: List[float] = []
    for outcome in result.outcomes:
        moves.extend(outcome.policy_stats.pop(MoveClock.SAMPLES_KEY, ()))
    fingerprint = {
        "means": [
            result.mean_communication_time_per_call,
            result.mean_call_duration,
            result.mean_migration_time_per_call,
        ],
        "simulated_time": result.simulated_time,
        "windows": result.windows,
        "messages_exchanged": sync["messages_exchanged"],
    }
    for key in ("calls", "blocks", "granted_blocks", "rejected_blocks",
                "empty_blocks", "migrations", "network", "remote",
                "per_shard"):
        fingerprint[key] = raw[key]
    collectors = [outcome.metrics for outcome in result.outcomes]
    policy = _policy_counts([o.policy_stats for o in result.outcomes])
    return Cell(
        seed=params.seed,
        setups=setups,
        wall_s=t2 - stamp.started,
        calls=raw["calls"],
        migrations=raw["migrations"],
        messages=raw["network"]["remote_messages"]
        + raw["network"]["local_messages"],
        blocks=raw["blocks"],
        granted=raw["granted_blocks"],
        rejected=raw["rejected_blocks"],
        events=0,
        identity_error=_identity_error(result, collectors),
        observations=sum(c.per_call.count for c in collectors),
        policy_requested=policy["moves_requested"],
        policy_granted=policy["moves_granted"],
        policy_rejected=policy["moves_rejected"],
        clients=params.clients,
        fingerprint=fingerprint,
        moves=moves,
        windows=result.windows,
        messages_exchanged=sync["messages_exchanged"],
    )


# -- the correctness gate ----------------------------------------------------


def check_cell(spec: SimSpec, cell: Cell, golden: Dict) -> List[str]:
    """Every gate violation of one cell (empty when it passes)."""
    failures = []
    where = f"{spec.name} seed {cell.seed}"
    mct = cell.fingerprint.get("metrics", {}).get(
        "mean_communication_time_per_call"
    ) or cell.fingerprint.get("means", [0.0])[0]
    if cell.identity_error > 1e-9 * max(1.0, abs(mct)):
        failures.append(
            f"{where}: §4.2.1 identity off by {cell.identity_error!r} per "
            f"call (per-call observations vs duration + migration)"
        )
    if cell.observations != cell.calls:
        failures.append(
            f"{where}: {cell.observations} per-call observations for "
            f"{cell.calls} calls"
        )
    # granted + rejected == blocks, against the policy's own counters:
    # every completed block was decided, and at the stop at most one
    # block per client is decided but not yet complete.
    open_granted = cell.policy_granted - cell.granted
    open_rejected = cell.policy_rejected - cell.rejected
    undecided = (
        cell.policy_requested - cell.policy_granted - cell.policy_rejected
    )
    if (
        cell.granted + cell.rejected != cell.blocks
        or not 0 <= open_granted <= cell.clients
        or not 0 <= open_rejected <= cell.clients
        or not 0 <= open_granted + open_rejected + undecided <= cell.clients
    ):
        failures.append(
            f"{where}: blocks {cell.blocks} (granted {cell.granted}, "
            f"rejected {cell.rejected}) disagree with the policy's "
            f"requested {cell.policy_requested}, granted "
            f"{cell.policy_granted}, rejected {cell.policy_rejected} "
            f"({cell.clients} clients)"
        )
    if cell.calls <= 0:
        failures.append(f"{spec.name} seed {cell.seed}: no calls completed")
    expected = golden.get(spec.name, {}).get(str(cell.seed))
    if cell.seed in PINNED_SEEDS:
        if expected is None:
            failures.append(
                f"{spec.name} seed {cell.seed}: no golden digest recorded"
            )
        elif expected["digest"] != cell.digest:
            failures.append(
                f"{spec.name} seed {cell.seed}: metrics digest "
                f"{cell.digest[:12]} != golden {expected['digest'][:12]} "
                f"(counts {cell.counts()} vs golden {expected['counts']})"
            )
    return failures


# -- runs --------------------------------------------------------------------


def measure(spec: SimSpec, seed: int, seconds: float, golden: Dict,
            log: Callable[[str], None]) -> Dict:
    """The untraced run: end-to-end metrics plus the gate.

    A host-speed reference pass runs before the first cell and after
    every cell, and each cell's times are stated at the reference speed.
    Rates and set-up are the median of the run's cells, and the move
    percentiles come from the samples of every cell pooled (see
    :mod:`estimate`).  No cell starts that would end past ``seconds``.
    """
    speed = HostSpeed()
    move_clock = MoveClock()
    move_clock.install()
    cells: List[Cell] = []
    scales: List[float] = []
    failures: List[str] = []
    # Compact, so that a run's memory does not grow with its cell count.
    samples = array("d")
    try:
        deadline = _perf() + seconds
        before = speed.sample()
        for cell_seed in cell_seeds(seed):
            cell = run_cell(spec, cell_seed, move_clock,
                            setup_batch=SETUP_BATCH)
            after = speed.sample()
            scale = speed.scale(before, after)
            before = after
            cells.append(cell)
            scales.append(scale)
            failures.extend(check_cell(spec, cell, golden))
            samples.extend(sample * scale for sample in cell.moves)
            log(
                f"  cell seed={cell.seed:<8d} calls={cell.calls:<7d} "
                f"wall={cell.wall_s:.3f}s host scale={scale:.3f} "
                f"fastest setup={min(cell.setups) * 1e3:.2f}ms "
                f"moves={len(cell.moves)} digest={cell.digest[:12]}"
            )
            cell.moves = []
            typical = statistics.median(c.wall_s for c in cells)
            if _perf() + typical >= deadline and len(cells) >= 3:
                break
    finally:
        move_clock.restore()
    p50, p90, p99, beyond = tail(samples or [0.0])
    if beyond < MIN_BEYOND_P99:
        failures.append(
            f"{spec.name}: only {beyond} of {len(samples)} move samples "
            f"lie beyond the p99"
        )
    calls = sum(c.calls for c in cells)
    metrics = {
        "calls_per_s": statistics.median(
            c.calls / (c.wall_s * k) for c, k in zip(cells, scales)
        ),
        "moves_per_s": statistics.median(
            c.migrations / (c.wall_s * k) for c, k in zip(cells, scales)
        ),
        "move_p50_ms": p50 * 1e3,
        "move_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(
            min(c.setups) * k for c, k in zip(cells, scales)
        ),
    }
    windows = sum(c.windows for c in cells)
    notes = [
        f"cells={len(cells)} calls={calls} move samples={len(samples)} "
        f"(beyond p99: {beyond}), move p99 {p99 * 1e3:.4f} ms",
        f"host speed: reference pass median "
        f"{statistics.median(speed.passes) * 1e3:.2f} ms (nominal "
        f"{speed.NOMINAL_S * 1e3:.2f} ms); raw calls_per_s median "
        f"{statistics.median(c.calls / c.wall_s for c in cells):.1f}",
        "counts per call: "
        + ", ".join(
            f"{k}={sum(getattr(c, k) for c in cells) / calls:.4f}"
            for k in ("events", "messages", "migrations")
        )
        + (
            f", windows={windows}, messages/window="
            f"{sum(c.messages_exchanged for c in cells) / max(1, windows):.4f}"
            if spec.shards > 1
            else ""
        ),
    ]
    return {
        "metrics": metrics,
        "attempted": calls,
        "failed": 0,
        "failures": failures,
        "notes": notes,
    }


def traced(spec: SimSpec, seed: int, seconds: float, golden: Dict,
           log: Callable[[str], None]) -> Dict:
    """The traced run: per-layer attribution and tracing overhead.

    Alternates an untraced and a traced cell of the same seed; their
    counts and digests must agree (tracing must not perturb the run).
    """
    move_clock = MoveClock()
    move_clock.install()
    clock = LayerClock()
    failures: List[str] = []
    ratios: List[float] = []
    pairs: List[tuple] = []
    totals = {layer: 0.0 for layer in SIM_LAYERS}
    outer = {layer: 0 for layer in SIM_LAYERS}
    closure_objects = 0.0
    process_wait = process_wall = 0.0
    speedups: List[float] = []
    try:
        deadline = _perf() + seconds
        for index, cell_seed in enumerate(cell_seeds(seed)):
            # Alternate which side of a pair runs first.
            if index % 2 == 0:
                plain = run_cell(spec, cell_seed, move_clock)
            telemetry = None
            if spec.shards > 1:
                from repro.telemetry.core import Telemetry

                telemetry = Telemetry()
            clock.reset()
            install_sim(clock)
            try:
                cell = run_cell(spec, cell_seed, move_clock, telemetry)
            finally:
                clock.restore()
            if index % 2 == 1:
                plain = run_cell(spec, cell_seed, move_clock)
            failures.extend(check_cell(spec, plain, golden))
            failures.extend(check_cell(spec, cell, golden))
            if cell.digest != plain.digest:
                failures.append(
                    f"{spec.name} seed {cell_seed}: traced run diverged "
                    f"from untraced ({cell.counts()} vs {plain.counts()})"
                )
            expected = golden.get(spec.name, {}).get(str(cell_seed))
            if (
                expected is not None
                and expected.get("rng_draws") != clock.calls["sim.rng"]
            ):
                failures.append(
                    f"{spec.name} seed {cell_seed}: {clock.calls['sim.rng']}"
                    f" rng draws, golden {expected.get('rng_draws')}"
                )
            for layer in SIM_LAYERS:
                totals[layer] += clock.self_s.get(layer, 0.0)
                outer[layer] += clock.calls.get(layer, 0)
            closure_objects += clock.tally.get("closure_objects", 0.0)
            if spec.shards > 1:
                # The process backend, for its barrier waits and its
                # speed against the inline backend on the same cell.
                process_telemetry = Telemetry()
                process = run_cell(spec, cell_seed, move_clock,
                                   process_telemetry, backend="process")
                if process.digest != plain.digest:
                    failures.append(
                        f"{spec.name} seed {cell_seed}: process backend "
                        f"diverged from inline ({process.counts()} vs "
                        f"{plain.counts()})"
                    )
                for doc in process_telemetry.metrics.snapshot():
                    if doc["name"] == "shard.barrier.wait_s":
                        process_wait += doc["sum"]
                process_wall += process.wall_s
                speedups.append(
                    (process.calls / process.wall_s)
                    / (plain.calls / plain.wall_s)
                )
            pairs.append((plain, cell))
            ratios.append(cell.wall_s / plain.wall_s)
            log(
                f"  pair seed={cell_seed:<8d} untraced={plain.wall_s:.3f}s "
                f"traced={cell.wall_s:.3f}s ratio={ratios[-1]:.3f}"
            )
            if _perf() >= deadline:
                break
    finally:
        move_clock.restore()
    traced_cells = [cell for _, cell in pairs]
    wall = sum(c.wall_s for c in traced_cells)
    calls = sum(c.calls for c in traced_cells)
    metrics = layer_metrics(traced_cells, totals, outer, closure_objects, wall)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    if speedups:
        metrics["sim.shard.barrier_wait_share"] = process_wait / process_wall
        metrics["sim.shard.process_speedup"] = statistics.median(speedups)
    notes = [f"traced pairs={len(pairs)} traced wall={wall:.3f}s"]
    notes.append("self time by layer (traced wall share, us total):")
    for layer in SIM_LAYERS:
        notes.append(
            f"    {layer:<20s} {totals[layer] / wall:7.2%} "
            f"{totals[layer] * 1e6:12.0f} us  spans={outer[layer]}"
        )
    notes.append(
        f"    {'unattributed':<20s} {metrics['unattributed_share']:7.2%}"
    )
    if speedups:
        notes.append(
            f"process backend: barrier wait "
            f"{metrics['sim.shard.barrier_wait_share']:.2%} of its wall "
            f"after set-up, calls/s x{metrics['sim.shard.process_speedup']:.3f}"
            f" the inline backend's"
        )
    return {
        "metrics": metrics,
        "attempted": calls,
        "failed": 0,
        "failures": failures,
        "notes": notes,
    }


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(cells, totals, outer, closure_objects,
                  wall) -> Dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` for a sim workload.

    Layers a workload does not run (the shard layer on unsharded cells;
    ``Resource``, which nothing in the sim calls) report 0.
    """
    calls = sum(c.calls for c in cells)
    blocks = sum(c.blocks for c in cells)
    migrations = sum(c.migrations for c in cells)
    windows = sum(c.windows for c in cells)
    share = {layer: _per(totals[layer], wall) for layer in SIM_LAYERS}
    m = {
        "sim.kernel.events_per_call": _per(sum(c.events for c in cells),
                                           calls),
        "runtime.invocation.self_us_per_call": _per(
            totals["runtime.invocation"], calls, 1e6),
        "runtime.migration.migrations_per_call": _per(migrations, calls),
        "runtime.migration.self_us_per_migration": _per(
            totals["runtime.migration"], migrations, 1e6),
        "core.attachment.closure_objects_mean": _per(
            closure_objects, outer["core.attachment"]),
        "core.attachment.self_us_per_closure": _per(
            totals["core.attachment"], outer["core.attachment"], 1e6),
        "core.policies.grant_ratio": _per(
            sum(c.granted for c in cells), blocks),
        "core.policies.self_us_per_block": _per(
            totals["core.policies"], blocks, 1e6),
        "network.messages_per_call": _per(
            sum(c.messages for c in cells), calls),
        "network.self_us_per_message": _per(
            totals["network"], outer["network"], 1e6),
        "sim.stats.self_us_per_observation": _per(
            totals["sim.stats"], outer["sim.stats"], 1e6),
        "sim.rng.draws_per_call": _per(outer["sim.rng"], calls),
        "sim.rng.self_us_per_draw": _per(
            totals["sim.rng"], outer["sim.rng"], 1e6),
        "sim.shard.windows": float(windows),
        "sim.shard.messages_per_window": _per(
            sum(c.messages_exchanged for c in cells), windows),
        "sim.shard.us_per_window": _per(
            sum(c.wall_s for c in cells), windows, 1e6),
    }
    for layer in SIM_LAYERS:
        m[f"{layer}.self_share"] = share[layer]
    m["unattributed_share"] = 1.0 - sum(share.values())
    return m


def record_golden(spec: SimSpec) -> Dict[str, Dict]:
    """Golden digests (and rng draw counts) for every pinned seed."""
    move_clock = MoveClock()
    move_clock.install()
    entries = {}
    try:
        for seed in PINNED_SEEDS:
            cell = run_cell(spec, seed, move_clock)
            clock = LayerClock()
            install_sim(clock)
            try:
                traced_cell = run_cell(spec, seed, move_clock)
            finally:
                clock.restore()
            if traced_cell.digest != cell.digest:
                raise RuntimeError(
                    f"{spec.name} seed {seed}: traced run diverged"
                )
            entries[str(seed)] = {
                "digest": cell.digest,
                "counts": cell.counts(),
                "rng_draws": clock.calls["sim.rng"],
            }
    finally:
        move_clock.restore()
    return entries
