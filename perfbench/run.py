"""Run one pathbench benchmark workload and print its metrics.

    python3 perfbench/run.py --workload field-h2h --seed 0 --seconds 45 --trace 0

Run from the root of a pathbench checkout: the package is imported from
its `src/` directory, never from an installed copy. With `--trace 0` the
run prints the end-to-end metrics of one untraced pass. With `--trace 1`
it runs the same plans again with every traced function wrapped (see
tracer.py) and prints the per-layer metrics instead. The last line of
standard output is always one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it name every
metric with its unit, the failure breakdown and the output digests.

Files go to `.perfbench_out/` in the working directory: the writers'
outputs, the aggregated spans of a traced run, and the digest of every
(workload, seed, size) seen so far, which later runs must reproduce.
"""

from __future__ import annotations

import os

# Pin numpy's thread pools before numpy is imported, so a run measures the
# program and not the scheduler of a small shared machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal length of the timed section; sets the number of units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def check_digests(store: Path, digests: dict[str, str]) -> list[str]:
    """Compare with the digests an earlier run of the same inputs stored."""
    if store.exists():
        before = json.loads(store.read_text(encoding="utf-8"))
        if before != digests:
            return [f"digests {digests} differ from an earlier run's {before}"]
        return []
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, store)
    return []


def _number(value: float):
    return None if isinstance(value, float) and math.isnan(value) else value


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pathbench" / "__init__.py").is_file():
        print(f"perfbench: no pathbench sources under {SRC}; run from a pathbench checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl  # imports numpy once, outside setup_s
    from tracer import Tracer

    workload = wl.WORKLOADS[args.workload]
    units = wl.units_for(workload, args.seconds)
    pb, inputs, setup_times, setup_speed = wl.setup(workload, args.seed, units)
    if Path(pb.__file__).resolve().parent != SRC / "pathbench":
        print(f"perfbench: imported pathbench from {pb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    out = Path.cwd() / ".perfbench_out" / args.workload

    run = wl.run_pass(pb, workload, inputs, out)
    problems = list(run.problems)
    if args.trace:
        tracer = Tracer()
        with tracer:
            traced = wl.run_pass(pb, workload, inputs, out)
        problems += traced.problems
        if traced.digests != run.digests:
            problems.append(f"traced digests {traced.digests} differ from untraced {run.digests}")
        metrics = wl.per_layer(tracer, traced, run)
        trace_file = out / f"trace-seed{args.seed}-units{units}.json"
        trace_file.write_text(json.dumps(
            dict(tracer.report(), metrics={k: v for k, (v, _) in metrics.items()}),
            indent=1) + "\n", encoding="utf-8")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _, _, more_times, more_speed = wl.setup(workload, args.seed, units)  # replaces pb
        setup_s = statistics.median([t * setup_speed for t in setup_times]
                                    + [t * more_speed for t in more_times])
        setup_times += more_times
        metrics = wl.end_to_end(run, setup_s, peak_rss_mb)
    store = Path.cwd() / ".perfbench_out" / "digests" / f"{args.workload}-seed{args.seed}-units{units}.json"
    problems += check_digests(store, run.digests)

    breakdown = wl.fail_breakdown(run)
    failed = sum(breakdown[r] for r in wl.HARD_FAILURES)
    attempted = len(run.plans)
    print(f"workload {workload.name}: {units} x {workload.unit}, seed {args.seed}, "
          f"trace {args.trace}, {attempted} plans in {run.wall_s:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print("not gated:")
    ungated = dict(wl.ungated(run), **{"setup_s (wall clock)": (statistics.median(setup_times), "s")})
    for name, (value, unit) in ungated.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  failures by reason: {breakdown}")
    print("  *.plan_s.tail: not reported, a run has too few plans per planner for any "
          "percentile above p50 to have 10 beyond it")
    for planner, d in run.digests.items():
        print(f"  digest {planner} {d}")
    for problem in problems:
        print(f"  PROBLEM {problem}")

    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
