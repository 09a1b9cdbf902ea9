"""Tour of the environment layer.

Builds the bundled preset maze and a few random obstacle fields, saves
each one as an SVG, and round-trips one of them through the JSON format.
Outputs land in demo-output/.
"""

import os

from pathbench import (FIELD_QUERY, InvalidQueryError, Query, environment_svg,
                       generate_random_env, irregular_preset, load_environment,
                       save_environment, validate_query)

OUT = "demo-output"


def main():
    os.makedirs(OUT, exist_ok=True)

    env, query = irregular_preset("irregular-a")
    with open(os.path.join(OUT, "preset.svg"), "w", encoding="utf-8") as fh:
        fh.write(environment_svg(env, query=query))
    print(f"preset: {len(env.obstacles)} obstacles, "
          f"query {tuple(query.start)} -> {tuple(query.target)}")

    # Random fields are a pure function of the seed. The query argument
    # keeps both endpoints out of (and clear of) every disc.
    query = FIELD_QUERY
    for seed in (1, 7, 42):
        env = generate_random_env(seed, n_obstacles=12, query=query)
        name = f"random-{seed:02d}.svg"
        with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
            fh.write(environment_svg(env, query=query))
        print(f"seed {seed}: wrote {name}")

    # Environments serialize to a small JSON document.
    env = generate_random_env(7, n_obstacles=12, query=query)
    path = os.path.join(OUT, "random-07.json")
    save_environment(path, env, query)
    loaded, loaded_query = load_environment(path)
    assert loaded == env and loaded_query == query
    validate_query(loaded, loaded_query)
    print(f"round-tripped {path}; its query is valid")

    # A query with an endpoint inside an obstacle is refused, with the reason.
    buried = Query(loaded.obstacles[0].center, query.target)
    try:
        validate_query(loaded, buried)
    except InvalidQueryError as exc:
        print(f"refused query: {exc}")


if __name__ == "__main__":
    main()
