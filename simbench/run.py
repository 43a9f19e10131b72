"""Benchmark the simulator's host cost on one workload.

Usage (from the repository root)::

    python3 simbench/run.py --workload loopback_64b --seed 1 --seconds 20 --trace 0

A run first executes the workload's registered scenario once and checks
its merged fingerprint against the recorded value. It then repeats the
scenario, with random streams drawn from ``--seed``, until ``--seconds``
have passed, and reports medians over those repetitions.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics,
including the tracing overhead; the spans of the last traced repetition
are written to ``.simbench/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted``
counts repetitions; a repetition that raises, resolves the wrong number
of ops, or produces an unexpected fingerprint counts as failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".simbench"
#: Fewest measured repetitions (or traced/untraced pairs) in one run.
MIN_REPS = 3


def _import_simulator() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"simbench: no simulator source at {src / 'repro'}")
    # Import the simulator and this package from the checkout only; the
    # script's own directory would expose its modules as top-level names.
    if sys.path and Path(sys.path[0] or ".").resolve() == Path(__file__).resolve().parent:
        del sys.path[0]
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"simbench: imported repro from {repro.__file__}, not {src}")


class Run:
    """The repetitions of one benchmark run and their correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, label: str, execute: Callable, spec, expect: Optional[str]):
        """Run one repetition; record it, or record why it failed.

        ``expect`` is the fingerprint the repetition must produce, or
        None when it is the first of its inputs to run.
        """
        self.attempted += 1
        try:
            rep = execute(spec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{label}: raised")
            return None
        if rep.ops != spec.count():
            self.fail(f"{label}: resolved {rep.ops} ops, expected {spec.count()}")
            return None
        if expect is not None and rep.fingerprint != expect:
            self.fail(f"{label}: fingerprint {rep.fingerprint}, expected {expect}")
            return None
        return rep

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        print(f"simbench: FAILED {problem}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The benchmark's own modules import the simulator, so they load after it.
    _import_simulator()
    from simbench.measure import (
        REFERENCE_RATE,
        end_to_end_metrics,
        median,
        run_traced,
        run_untraced,
        save_spans,
    )
    from simbench.tracer import Tracer
    from simbench.workloads import WORKLOADS, registered_spec, seeded_spec

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    run = Run()

    # Correctness anchor: the registered spec must reproduce its recorded
    # fingerprint. Its timing is not used (it also warms lazy imports).
    run.attempt("registered spec", run_untraced, registered_spec(workload), workload.fingerprint)

    spec = seeded_spec(workload, args.seed)
    tracer = Tracer()
    untraced: List = []
    traced: List = []
    expect: Optional[str] = None
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < MIN_REPS or time.perf_counter() < deadline:
        if args.trace:
            # Alternate which of the pair runs first.
            order = (False, True) if rounds % 2 == 0 else (True, False)
        else:
            order = (False,)
        for with_trace in order:
            label = f"{'traced' if with_trace else 'untraced'} rep {rounds}"
            if with_trace:
                rep = run.attempt(label, lambda s: run_traced(s, tracer), spec, expect)
            else:
                rep = run.attempt(label, run_untraced, spec, expect)
            if rep is None:
                continue
            expect = rep.fingerprint
            (traced if with_trace else untraced).append(rep)
        rounds += 1

    OUT_DIR.mkdir(exist_ok=True)
    metrics: Dict[str, float] = {}
    if args.trace and traced and untraced:
        first = traced[0].layers
        for rep in traced[1:]:
            for name, value in first.items():
                if name.endswith("_per_op") and rep.layers[name] != value:
                    run.fail(f"{name} differs between traced reps: {rep.layers[name]} != {value}")
        for name in first:
            metrics[name] = median([rep.layers[name] for rep in traced])
        # Each round ran one traced and one untraced repetition back to back.
        metrics["trace.overhead_frac"] = median(
            [t.wall_s / (u.wall_s - u.probe_s) for t, u in zip(traced, untraced)]
        ) - 1
        save_spans(tracer, OUT_DIR / f"spans-{workload.name}.npz")
    elif not args.trace and untraced:
        metrics = {
            **end_to_end_metrics(untraced),
            # ru_maxrss is in KiB on Linux; this process ran only this workload.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **untraced[-1].sim,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    speed = median([speed for rep in untraced for _w, _l, speed in rep.shards] or [0.0])
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host_speed": speed,
        "reference_rate": REFERENCE_RATE,
        "fingerprint": expect,
        "problems": run.problems,
        "reps": [
            {
                "traced": rep.traced,
                "wall_s": rep.wall_s,
                "probe_s": rep.probe_s,
                "merge_s": rep.merge_s,
                "ops": rep.ops,
                "shards": rep.shards,
            }
            for rep in untraced + traced
        ],
        "metrics": metrics,
    }
    record_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"{workload.name} seed={args.seed} trace={args.trace}: "
        f"{len(untraced)} untraced + {len(traced)} traced reps, fingerprint {expect}, "
        f"host speed {speed:.3f} x reference ({speed * REFERENCE_RATE / 1e6:.2f} M probe it/s)"
    )
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    correct = run.failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": {}}
    if metrics:
        result["metrics"] = {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
