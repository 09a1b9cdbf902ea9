"""A small head-to-head comparison.

Ten seeded trials per planner over random obstacle fields at the
default budgets, which takes a few seconds. The full-size
version of this experiment is what `pathbench bench` runs.
"""

import os

from pathbench import (FIELD_QUERY, FIELD_SEEDS, PsoParams, RandomEnvFactory, RrtParams,
                       grid_oracle, plan_once, run_trials, summarize, write_results_csv)
from pathbench.benchmark import result_record

OUT = "demo-output"


def main():
    os.makedirs(OUT, exist_ok=True)
    factory = RandomEnvFactory(query=FIELD_QUERY)
    specs = [("rrtstar", RrtParams()), ("pso", PsoParams())]

    records = []
    print("10 trials per planner (a small sample; the acceptance suite "
          f"runs {len(FIELD_SEEDS)}):")
    print(f"{'planner':8s} {'feasible':>8s} {'mean len':>9s} "
          f"{'std len':>8s} {'med time':>9s}")
    for planner_id, params in specs:
        stats = run_trials(factory, FIELD_QUERY, planner_id, params,
                           n_trials=10, base_seed=FIELD_SEEDS.start)
        records.extend(result_record(r) for r in stats.results)
        print(f"{planner_id:8s} {stats.n_feasible:5d}/10 "
              f"{stats.mean_length:9.3f} {stats.std_length:8.3f} "
              f"{stats.median_time:8.2f}s")
        time = summarize(stats)["time"]
        print(f"         time quartiles: {time['q1']:.3f}s {time['median']:.3f}s "
              f"{time['q3']:.3f}s")

    csv_path = os.path.join(OUT, "head-to-head.csv")
    write_results_csv(csv_path, records)
    print(f"wrote {csv_path}")

    # Sanity anchor: an exhaustive grid search on one of the same fields.
    seed = FIELD_SEEDS.start
    env = factory(seed)
    oracle = grid_oracle(env, FIELD_QUERY, resolution=0.5)
    res = plan_once(env, FIELD_QUERY, "rrtstar", RrtParams(), seed)
    if res.feasible:
        print(f"seed {seed}: grid oracle {oracle:.3f}, "
              f"planner {res.length:.3f} (ratio {res.length / oracle:.3f})")


if __name__ == "__main__":
    main()
