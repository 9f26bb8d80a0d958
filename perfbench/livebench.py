"""The live workload: 2 worker processes moving 120 objects.

``NodeSupervisor(config).run()`` is hosted in this process; it spawns
the workers, runs a closed loop (one mover per worker, no think time,
no chaos, central arbitration) until a fixed migration target, drains
and audits.  This process and the workers it spawns run on one vCPU:
spread over the host's two, every hand-off between them woke an idle
vCPU through the hypervisor, and on the tuning host the same runs then
moved between 100 and 550 objects/s within minutes as the host's load
changed; on one vCPU they are both faster and steady (see
:mod:`estimate`).

A thin subclass stamps three instants without adding work to any path:
the first START (end of set-up), the DRAIN (end of the steady phase),
and the drained worker payloads (the per-migration latency samples the
report otherwise reduces to a mean).

The untraced run keeps the arbitration WAL on the supervisor's loop but
without fsync: on the host the bounds were measured on, an fsync'd run's
p99 swung between 3 and 16 ms over minutes with the shared disk, which
no bound of 25% holds.  Each record would be one fsync in production,
so ``live.wal.records_per_move`` is the count a change to the WAL's use
moves; the traced run keeps fsync on and times the appends.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import shutil
import statistics
import time
from typing import Callable, Dict, List, Tuple

from estimate import MIN_BEYOND_P99, HostSpeed, tail
from tracing import LayerClock, install_live

_perf = time.perf_counter

#: Migrations each supervised run must reach before ``MAX_DURATION``.
#: 1100 gives each run about ten polls of the moving phase, and even
#: one run leaves at least 10 latency samples beyond the p99.
TARGET_MIGRATIONS = 1100
MAX_DURATION = 30.0
#: Phases of one migration, as the worker spans name them.
PHASES = ("grant", "transfer", "place", "evict")
#: Envelope kinds the supervisor serves in these workloads.
HANDLED_KINDS = ("heartbeat", "move.request", "place", "end.request",
                 "place.notice")


def _supervisor_class():
    from repro.runtime.live.supervisor import NodeSupervisor

    class StampedSupervisor(NodeSupervisor):
        """Records set-up end, steady-phase end, the migration count at
        each of the supervisor's own polls, and latency samples."""

        started_at = None
        drained_at = None
        latencies: List[float] = []
        polls: List[Tuple[float, int]] = []

        async def _start_workload(self, node_id):
            if self.started_at is None:
                self.started_at = _perf()
                self.polls = []
            await super()._start_workload(node_id)

        async def _poll_migrations(self):
            total = await super()._poll_migrations()
            self.polls.append((_perf(), total))
            return total

        async def _drain(self):
            self.drained_at = _perf()
            return await super()._drain()

        def _report(self, drained, violations, leaked_blocks):
            self.latencies = [
                sample
                for payload in drained.values()
                for sample in payload["stats"].get("transfer_latencies", ())
            ]
            return super()._report(drained, violations, leaked_blocks)

    return StampedSupervisor


@contextlib.contextmanager
def one_cpu():
    """Run this process, and the processes it spawns, on one vCPU."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_once(seed: int, workdir: str, fsync: bool,
             traced: bool = False, clock: LayerClock = None) -> Dict:
    """One supervised run; returns its report plus the stamps."""
    from repro.runtime.live.supervisor import SupervisorConfig
    from repro.runtime.live.wire import SUPERVISOR
    from repro.telemetry.core import NULL_TELEMETRY, Telemetry
    from repro.telemetry.live import process_id_base

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    telemetry_dir = os.path.join(workdir, "telemetry") if traced else None
    config = SupervisorConfig(
        num_nodes=2,
        num_objects=120,
        think_time=0.0,
        target_migrations=TARGET_MIGRATIONS,
        max_duration=MAX_DURATION,
        rng_seed=seed,
        socket_dir=workdir,
        arbitration="central",
        telemetry_dir=telemetry_dir,
        wal_fsync=fsync,
    )
    telemetry = (
        Telemetry(id_base=process_id_base(SUPERVISOR, 0))
        if traced
        else NULL_TELEMETRY
    )
    cls = _supervisor_class()
    if traced:
        clock.reset()
        install_live(clock)
    try:
        t0 = _perf()
        supervisor = cls(config, telemetry=telemetry)
        try:
            report = asyncio.run(supervisor.run())
        except BaseException:
            supervisor.kill_workers()
            raise
        t1 = _perf()
    finally:
        if clock is not None:
            clock.restore()
    # The moving phase: from the first poll that counted a migration to
    # the last poll.  Before it the workers are still starting, after
    # it they wait for the drain; both last a varying share of a poll
    # interval, which no migration rate should include.
    moving = [(t, n) for t, n in supervisor.polls if n > 0]
    run = {
        "seed": seed,
        "report": report,
        "setup_s": supervisor.started_at - t0,
        "steady_s": supervisor.drained_at - supervisor.started_at,
        "moving_s": moving[-1][0] - moving[0][0] if moving else 0.0,
        "moving_n": moving[-1][1] - moving[0][1] if moving else 0,
        "wall_s": t1 - t0,
        "latencies": supervisor.latencies,
    }
    if traced:
        run["phases"] = _phase_durations(telemetry_dir)
    shutil.rmtree(workdir, ignore_errors=True)
    return run


def _phase_durations(telemetry_dir: str) -> Dict[str, List[float]]:
    """Closed ``live.<phase>`` span durations (s) from the worker files."""
    from repro.telemetry.live import TelemetryHub

    durations: Dict[str, List[float]] = {phase: [] for phase in PHASES}
    for proc in TelemetryHub(telemetry_dir).collect()["processes"]:
        for line in proc["spans"].read_text().splitlines():
            if not line.strip():
                continue
            doc = json.loads(line)
            name = doc.get("name", "")
            phase = name[len("live."):]
            if phase in durations and doc.get("end") is not None:
                durations[phase].append(doc["end"] - doc["start"])
    return durations


def check_run(name: str, run: Dict) -> List[str]:
    report = run["report"]
    failures = []
    if report["invariant_violations"]:
        failures.append(
            f"{name} seed {run['seed']}: invariant violations "
            f"{report['invariant_violations']}"
        )
    if report["migrations"] < TARGET_MIGRATIONS:
        failures.append(
            f"{name} seed {run['seed']}: {report['migrations']} migrations, "
            f"target {TARGET_MIGRATIONS}"
        )
    if run["moving_n"] <= 0:
        failures.append(
            f"{name} seed {run['seed']}: no migrations between two polls, "
            f"so no migration rate"
        )
    if run["steady_s"] >= MAX_DURATION:
        failures.append(
            f"{name} seed {run['seed']}: target not reached within "
            f"max_duration ({run['steady_s']:.1f}s)"
        )
    return failures


def _log_run(log, run, label="run") -> None:
    r = run["report"]
    log(
        f"  {label} seed={run['seed']:<8d} migrations={r['migrations']:<5d} "
        f"setup={run['setup_s']:.3f}s steady={run['steady_s']:.3f}s "
        f"moving={run['moving_n']}/{run['moving_s']:.3f}s "
        f"wal records={r['wal']['records_appended']} denied={r['denied']} "
        f"aborted={r['aborted']}"
        + (f" host scale={run['scale']:.3f}" if "scale" in run else "")
    )


def _seeds(seed: int):
    index = 0
    while True:
        yield seed * 1000 + index
        index += 1


def measure(name: str, seed: int, seconds: float, workroot: str,
            log: Callable[[str], None]) -> Dict:
    """The untraced run: end-to-end metrics plus the gate.

    A host-speed reference pass runs before the first supervised run
    and after every run, and each run's times are stated at the
    reference speed.  The migration rate is the runs' migrations over
    their seconds in the moving phase (see :func:`run_once`), the call
    rate that times the run's invocations per migration, set-up the
    median of the runs', and the
    latency percentiles are over every run's samples pooled (see
    :mod:`estimate`).  No supervised run starts that would end past
    ``seconds``.
    """
    speed = HostSpeed()
    runs = []
    failures: List[str] = []
    samples: List[float] = []
    deadline = _perf() + seconds
    with one_cpu():
        before = speed.sample()
        for run_seed in _seeds(seed):
            run = run_once(run_seed, os.path.join(workroot, "live"),
                           fsync=False)
            after = speed.sample()
            run["scale"] = speed.scale(before, after)
            before = after
            runs.append(run)
            failures.extend(check_run(name, run))
            samples.extend(x * run["scale"] for x in run["latencies"])
            _log_run(log, run)
            typical = statistics.median(r["wall_s"] for r in runs)
            if _perf() + typical >= deadline and len(runs) >= 3:
                break
    p50, p90, p99, beyond = tail(samples or [0.0])
    if beyond < MIN_BEYOND_P99:
        failures.append(
            f"{name}: only {beyond} of {len(samples)} latency samples lie "
            f"beyond the p99"
        )
    attempts = sum(run["report"]["attempts"] for run in runs)
    aborted = sum(run["report"]["aborted"] for run in runs)
    moves = sum(r["report"]["migrations"] for r in runs)
    calls_per_move = sum(r["report"]["invocations"] for r in runs) / moves
    moving_n = sum(r["moving_n"] for r in runs)
    moves_per_s = moving_n / sum(r["moving_s"] * r["scale"] for r in runs)
    metrics = {
        "calls_per_s": moves_per_s * calls_per_move,
        "moves_per_s": moves_per_s,
        "move_p50_ms": p50 * 1e3,
        "move_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in runs),
    }
    notes = [
        f"runs={len(runs)} latency samples={len(samples)} (beyond p99: "
        f"{beyond}), move p99 {p99 * 1e3:.4f} ms",
        f"host speed: reference pass median "
        f"{statistics.median(speed.passes) * 1e3:.2f} ms (nominal "
        f"{speed.NOMINAL_S * 1e3:.2f} ms); raw moves_per_s "
        f"{moving_n / sum(r['moving_s'] for r in runs):.1f}",
        "counts per move: wal records="
        f"{sum(r['report']['wal']['records_appended'] for r in runs) / moves:.3f}",
    ]
    return {
        "metrics": metrics,
        "attempted": attempts,
        "failed": aborted,
        "failures": failures,
        "notes": notes,
    }


def traced(name: str, seed: int, seconds: float, workroot: str,
           log: Callable[[str], None]) -> Dict:
    """The traced run: supervisor wrappers plus the worker spans.

    Alternates an untraced and a traced supervised run, on one vCPU as
    the untraced run does; the overhead ratio compares their
    moving-phase seconds per migration.
    """
    with one_cpu():
        return _traced(name, seed, seconds, workroot, log)


def _traced(name: str, seed: int, seconds: float, workroot: str,
            log: Callable[[str], None]) -> Dict:
    clock = LayerClock()
    failures: List[str] = []
    ratios: List[float] = []
    traced_runs = []
    wal_s = wal_n = codec_s = codec_n = 0.0
    handle_s: Dict[str, float] = {kind: 0.0 for kind in HANDLED_KINDS}
    handle_n: Dict[str, float] = {kind: 0.0 for kind in HANDLED_KINDS}
    phases: Dict[str, List[float]] = {phase: [] for phase in PHASES}
    start = _perf()
    workdir = os.path.join(workroot, "live")
    for index, run_seed in enumerate(_seeds(seed)):
        # Alternate which side of a pair runs first.
        if index % 2 == 0:
            plain = run_once(run_seed, workdir, fsync=True)
        run = run_once(run_seed, workdir, fsync=True, traced=True,
                       clock=clock)
        if index % 2 == 1:
            plain = run_once(run_seed, workdir, fsync=True)
        failures.extend(check_run(name, plain))
        failures.extend(check_run(name, run))
        _log_run(log, plain, "untraced")
        _log_run(log, run, "traced  ")
        traced_runs.append(run)
        per_move = run["moving_s"] / run["moving_n"]
        plain_per_move = plain["moving_s"] / plain["moving_n"]
        ratios.append(per_move / plain_per_move)
        wal_s += clock.self_s.get("live.wal", 0.0)
        wal_n += clock.calls.get("live.wal", 0)
        codec_s += clock.self_s.get("live.wire", 0.0)
        codec_n += clock.calls.get("live.wire", 0)
        for kind in HANDLED_KINDS:
            handle_s[kind] += clock.tally.get("handle_s." + kind, 0.0)
            handle_n[kind] += clock.tally.get("handle_n." + kind, 0.0)
        for phase in PHASES:
            phases[phase].extend(run["phases"][phase])
        # Start no pair that would end past ``seconds``.
        elapsed = _perf() - start
        if elapsed * (index + 2) / (index + 1) >= seconds:
            break
    reports = [run["report"] for run in traced_runs]
    moves = sum(r["migrations"] for r in reports)
    attempts = sum(r["attempts"] for r in reports)
    frames = 0
    for r in reports:
        for doc in r.get("metrics", []):
            if doc["name"] in ("live.transport.frames_sent",
                               "live.transport.frames_received"):
                frames += doc["value"]
    wall = sum(run["wall_s"] for run in traced_runs)
    m = {
        "live.wal.records_per_move": sum(
            r["wal"]["records_appended"] for r in reports) / moves,
        "live.wal.append_us": wal_s / wal_n * 1e6 if wal_n else 0.0,
        "live.wal.busy_share": wal_s / wall,
        "live.wire.frames_per_move": frames / moves,
        "live.wire.codec_us_per_frame": (
            codec_s / codec_n * 1e6 if codec_n else 0.0),
        "live.move.migrated_ratio": moves / attempts,
        "live.move.denied_ratio": sum(r["denied"] for r in reports) / attempts,
        "trace.overhead_ratio": statistics.median(ratios),
    }
    for kind in HANDLED_KINDS:
        m[f"live.supervisor.handle_us.{kind}"] = (
            handle_s[kind] / handle_n[kind] * 1e6 if handle_n[kind] else 0.0
        )
    for phase in PHASES:
        m[f"live.phase.{phase}_ms"] = (
            statistics.median(phases[phase]) * 1e3 if phases[phase] else 0.0
        )
    notes = [
        f"traced runs={len(traced_runs)} migrations={moves} frames={frames}",
        "supervisor wall: wal append "
        f"{wal_s / wall:.2%}, envelope codec {codec_s / wall:.2%}, rest "
        f"(event loop, handlers, spawn, drain, audit; unattributed) "
        f"{1.0 - (wal_s + codec_s) / wall:.2%}",
        "handler wall per envelope kind, dispatch to completion (awaits "
        "overlap, so these do not add up): "
        + ", ".join(
            f"{kind} {handle_s[kind] / wall:.2%}" for kind in HANDLED_KINDS
        ),
        "phase spans: "
        + ", ".join(f"{p} n={len(phases[p])}" for p in PHASES),
    ]
    return {
        "metrics": m,
        "attempted": attempts,
        "failed": sum(r["aborted"] for r in reports),
        "failures": failures,
        "notes": notes,
    }
