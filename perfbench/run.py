"""End-to-end and per-layer benchmark of the sim cells, the sharded
kernel and the live runtime.

Usage (from the repository root; needs no install)::

    python3 perfbench/run.py --workload sim-attach --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that attributes wall time to
layers and reports the tracing overhead.  Either way the run passes
through the correctness gate and exits 1 when it fails.  The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--record-golden`` rewrites ``perfbench/golden.json`` from the current
code (only after a change that is meant to alter simulated results).

End-to-end times and rates are stated at a reference host speed, timed
between the run's units, because the host's own speed drifts; each run
also prints its raw figures (see ``perfbench/estimate.py``).  Workloads,
metrics and bounds are declared in ``BENCHMARK.json``; the machine they
were measured on is in ``perfbench/conditions.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKROOT = ".perfbench_work"

#: workload -> family
WORKLOADS = {
    "sim-attach": "sim",
    "sim-sharded": "sim",
    "live-central": "live",
}


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reap_children() -> None:
    """Wait for every process this run started; kill any that hang."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join(5.0)
    # The spawn context's resource tracker is a process too; stopping it
    # closes its pipe and waits for it to exit.
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def conditions() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 log) -> dict:
    if WORKLOADS[name] == "sim":
        import simbench

        golden = json.loads((HERE / "golden.json").read_text())
        spec = simbench.SPECS[name]
        fn = simbench.traced if trace else simbench.measure
        return fn(spec, seed, seconds, golden, log)
    import livebench

    fn = livebench.traced if trace else livebench.measure
    return fn(name, seed, seconds, WORKROOT, log)


def fill_metrics(trace: bool, outcome: dict) -> dict:
    """Every declared metric of the run's kind, in declaration order.

    Per-layer metrics of layers this workload does not run are 0.
    """
    declared = _declared()
    entries = declared["per_layer" if trace else "end_to_end"]
    measured = dict(outcome["metrics"])
    if not trace:
        measured["peak_rss_mb"] = peak_rss_mb()
    missing = [e["name"] for e in entries if e["name"] not in measured]
    if not trace and missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    return {
        e["name"]: {"value": float(measured.get(e["name"], 0.0)),
                    "unit": e["unit"]}
        for e in entries
    }


def record_golden() -> None:
    import simbench

    golden = {
        name: simbench.record_golden(spec)
        for name, spec in simbench.SPECS.items()
    }
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {HERE / 'golden.json'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {ROOT / 'src'}; run from "
            f"a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # Everything the run writes (sockets, WALs, spans, temp files) stays
    # inside the checkout.
    os.chdir(ROOT)
    os.makedirs(WORKROOT, exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(WORKROOT)
    tempfile.tempdir = os.environ["TMPDIR"]
    sys.path.insert(0, str(ROOT / "src"))

    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    def log(line: str) -> None:
        print(line, flush=True)

    trace = bool(args.trace)
    log(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={int(trace)}"
    )
    log("  conditions: " + json.dumps(conditions(), sort_keys=True))
    try:
        outcome = run_workload(
            args.workload, args.seed, args.seconds, trace, log
        )
    finally:
        reap_children()
    metrics = fill_metrics(trace, outcome)
    for note in outcome["notes"]:
        log("  " + note)
    attempted = max(1, int(outcome["attempted"]))
    failed = int(outcome["failed"])
    log(f"  ops_failed_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    for name, entry in metrics.items():
        log(f"  {name:<44s} {entry['value']:>16.6f} {entry['unit']}")
    for failure in outcome["failures"]:
        log(f"  GATE FAILED: {failure}")
    correct = not outcome["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
