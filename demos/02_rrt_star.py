"""Growing a tree through the preset maze.

Runs the sampling planner step by step so the tree statistics are
visible while it grows, then renders the final path for a few seeds.
"""

import os
import time

from pathbench import RrtParams, RrtStarRun, environment_svg, irregular_preset
from pathbench import plan_rrt_star

OUT = "demo-output"


def watched_run(env, query, seed):
    t0 = time.perf_counter()
    run = RrtStarRun(env, query, RrtParams(rng_seed=seed))
    while not run.should_stop:
        run.step()
        if run.iteration % 500 == 0:
            bg = run.best_goal()
            best = f"{bg[1]:7.2f}" if bg else "   none"
            print(f"  iter {run.iteration:4d}: {len(run.tree):4d} nodes, "
                  f"best goal cost {best}")
    return run.result(time.perf_counter() - t0)


def main():
    os.makedirs(OUT, exist_ok=True)
    env, query = irregular_preset("irregular-a")

    print("seed 0, watched:")
    result = watched_run(env, query, 0)
    print(f"  -> feasible={result.feasible} length={result.length:.3f} "
          f"in {result.elapsed:.2f}s")
    with open(os.path.join(OUT, "rrtstar-seed0.svg"), "w", encoding="utf-8") as fh:
        fh.write(environment_svg(env, query=query,
                                 paths=[result.path] if result.path else []))

    # The same query, different seeds. Lengths vary because the tree is
    # random, but every returned path clears the walls.
    print("seeds 1..5:")
    paths = []
    for seed in range(1, 6):
        res = plan_rrt_star(env, query, RrtParams(rng_seed=seed))
        status = f"length {res.length:.3f}" if res.feasible else "infeasible"
        print(f"  seed {seed}: {status} ({res.elapsed:.2f}s)")
        if res.path:
            paths.append(res.path)
    with open(os.path.join(OUT, "rrtstar-spread.svg"), "w", encoding="utf-8") as fh:
        fh.write(environment_svg(env, query=query, paths=paths))
    print(f"wrote {OUT}/rrtstar-seed0.svg and {OUT}/rrtstar-spread.svg")


if __name__ == "__main__":
    main()
