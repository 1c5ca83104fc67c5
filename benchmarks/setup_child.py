"""One timed set-up in a fresh process: everything `train` does before its first ZO step.

Prints "ready" as soon as the set-up is done (the parent times process start
to that line), then one JSON line with the stages timed from inside:
import, config_problem, build_run_model and the first sparse-grid build.

    python3 benchmarks/setup_child.py --workload bs-tt-weight --seed 0 --out .bench_out/x
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from photopinn.quadrature import SteinPlan
    from photopinn.training import build_run_model, config_problem, config_stein

    from workloads import WORKLOADS, run_config

    t_import = time.perf_counter()
    cfg = run_config(WORKLOADS[args.workload], args.seed, Path(args.out))
    problem = config_problem(cfg)
    t_problem = time.perf_counter()
    build_run_model(cfg, args.seed)
    t_model = time.perf_counter()
    SteinPlan(config_stein(cfg, problem, args.seed), problem.input_dim)
    t_grid = time.perf_counter()
    print("ready", flush=True)
    print(
        json.dumps(
            {
                "setup.import_s": t_import - T0,
                "setup.problem_s": t_problem - t_import,
                "setup.model_s": t_model - t_problem,
                "setup.sparse_grid_s": t_grid - t_model,
            }
        )
    )


if __name__ == "__main__":
    main()
