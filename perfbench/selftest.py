"""Small-size self-test of the benchmark's correctness gate.

Run from the repository root (a few seconds)::

    python3 perfbench/selftest.py

It shows that the gate passes honest results and rejects tampered ones:
a changed metrics digest; a program, broken in memory, whose metrics
miss the §4.2.1 identity or whose block counts disagree with the
policy's; a live audit violation, a missed migration target; that a
failed gate makes ``run.py`` exit 1 with ``"correct": false``; and that
``run.py`` refuses to run, printing no result, without the program's
source next to it.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import livebench  # noqa: E402
import run as runner  # noqa: E402
import simbench  # noqa: E402
from tracing import MoveClock  # noqa: E402

FAILED = []


def expect(label: str, failures, rejected: bool) -> None:
    ok = bool(failures) == rejected
    verdict = "rejected" if failures else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    for failure in failures:
        print(f"       {failure}")
    if not ok:
        FAILED.append(label)


@contextlib.contextmanager
def mutated(cls, name: str, make):
    """Replace ``cls.name`` by ``make(original)`` for the block's span:
    a deliberately broken program, in this process only."""
    original = cls.__dict__[name]
    setattr(cls, name, make(original))
    try:
        yield
    finally:
        setattr(cls, name, original)


def drops_rejected_cost(record_block):
    """A collector that leaves rejected blocks' cost out of the
    migration tally (their calls still carry it in the per-call
    stream)."""

    def broken(self, block):
        record_block(self, block)
        if not block.granted and block.call_count:
            self.total_migration_cost -= block.migration_cost

    return broken


def counts_all_granted(record_block):
    """A collector that books every completed block as granted."""

    def broken(self, block):
        record_block(self, block)
        if not block.granted:
            self.rejected_blocks -= 1
            self.granted_blocks += 1

    return broken


def sim_gate() -> None:
    from repro.analysis.metrics import MetricsCollector

    spec = simbench.SimSpec("sim-hotspot", observations=2_000)
    seed = simbench.PINNED_SEEDS[0]
    clock = MoveClock()
    clock.install()
    try:
        first = simbench.run_cell(spec, seed, clock)
        again = simbench.run_cell(spec, seed, clock)
        with mutated(MetricsCollector, "record_block", drops_rejected_cost):
            lost_cost = simbench.run_cell(spec, seed, clock)
        with mutated(MetricsCollector, "record_block", counts_all_granted):
            all_granted = simbench.run_cell(spec, seed, clock)
    finally:
        clock.restore()
    golden = {spec.name: {str(seed): {"digest": first.digest,
                                      "counts": first.counts()}}}
    expect("honest cell", simbench.check_cell(spec, again, golden), False)

    tampered = dataclasses.replace(again, calls=again.calls + 1)
    tampered.fingerprint = dict(again.fingerprint, events=again.events + 1)
    expect("cell with a changed count (digest)",
           simbench.check_cell(spec, tampered, golden), True)

    wrong = {spec.name: {str(seed): {"digest": "0" * 64,
                                     "counts": first.counts()}}}
    expect("cell against a tampered golden digest",
           simbench.check_cell(spec, again, wrong), True)
    expect("pinned cell with no golden entry",
           simbench.check_cell(spec, again, {}), True)

    # The two checks below judge the program, not the record: each run
    # uses a collector broken in memory, and no golden digest is given
    # so that only the check under test can reject it.
    unpinned = {spec.name: {str(seed): {"digest": lost_cost.digest,
                                        "counts": lost_cost.counts()}}}
    expect("program dropping rejected blocks' cost (§4.2.1 identity)",
           simbench.check_cell(spec, lost_cost, unpinned), True)
    unpinned = {spec.name: {str(seed): {"digest": all_granted.digest,
                                        "counts": all_granted.counts()}}}
    expect("program booking rejected blocks as granted (block counts)",
           simbench.check_cell(spec, all_granted, unpinned), True)


def live_gate() -> None:
    report = {"invariant_violations": [], "migrations":
              livebench.TARGET_MIGRATIONS}
    honest = {"seed": 1, "report": report, "steady_s": 2.0,
              "moving_n": 900}
    expect("honest live run", livebench.check_run("live", honest), False)
    violated = dict(honest, report=dict(
        report, invariant_violations=["obj 7 hosted on nodes [1, 2]"]))
    expect("live run with an audit violation",
           livebench.check_run("live", violated), True)
    short = dict(honest, report=dict(report, migrations=10))
    expect("live run short of its migration target",
           livebench.check_run("live", short), True)
    slow = dict(honest, steady_s=livebench.MAX_DURATION)
    expect("live run that hit max_duration",
           livebench.check_run("live", slow), True)
    untimed = dict(honest, moving_n=0)
    expect("live run with no migrations between two polls",
           livebench.check_run("live", untimed), True)


def exit_code() -> None:
    def tampered_workload(name, seed, seconds, trace, log):
        return {"metrics": {}, "attempted": 1, "failed": 0,
                "failures": ["tampered result"], "notes": []}

    original = runner.run_workload
    runner.run_workload = tampered_workload
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = runner.main(["--workload", "sim-attach", "--trace", "1"])
    finally:
        runner.run_workload = original
        os.chdir(ROOT)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    rejected = code == 1 and result["correct"] is False
    failures = [f"exit {code}, correct={result['correct']}"] if rejected else []
    expect("run.py on a failed gate (exit 1, correct=false)", failures, True)


def no_program() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-attach",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    failures = []
    if proc.returncode != 0 and not proc.stdout.strip():
        failures = [f"exit {proc.returncode}, no output"]
    expect("run.py without the program source", failures, True)


def main() -> int:
    os.chdir(ROOT)
    os.makedirs(ROOT / ".perfbench_work", exist_ok=True)
    sim_gate()
    live_gate()
    exit_code()
    no_program()
    print("selftest " + ("FAILED: " + ", ".join(FAILED) if FAILED
                         else "passed"))
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
