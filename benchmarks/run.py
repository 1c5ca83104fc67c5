"""The photopinn benchmark: fixed ZO-training workloads through `photopinn.training.train`.

    python3 benchmarks/run.py --workload bs-tt-weight --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 30 --trace 0

One workload runs in this process.  `--workload all` runs each workload in
its own fresh process, one after another, and prints their metrics together.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
wraps each layer's public functions and reports the per-layer metrics.
Times are reported at a reference host speed, read from a fixed kernel run
next to every timed sample (hostspeed.py); the wall-clock values are printed
beside them.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only when
every output check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# (name, unit), all printed
END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("holdout_forward_s", "s"),
    ("peak_rss_mb", "MB"),
    ("final_loss", "1"),
    ("rel_l2", "1"),
    ("failed_step_ratio", "1"),
)
# The ones BENCHMARK.json bounds, and so the ones in the result line.  The others
# spread too much between runs or seeds for any allowed bound (README.md), or are
# 0 at a correct commit (failed_step_ratio, carried as `failed` / `attempted`).
GATED = ("setup_s", "steps_per_s", "peak_rss_mb")


def pin_to_one_core() -> int:
    """Run this process, its children and BLAS on one core: the last this process may use.

    The host-speed kernel then reads the speed of the core every timed
    sample runs on; the cores of a shared host change speed independently
    (README.md, "Host speed").  The other cores take the rest of the
    machine's work.  Must run before numpy is imported.  Returns nproc.
    """
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(cores)


def machine_facts(seed: int, nproc: int) -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": nproc,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": "unknown",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
    }
    # the OpenBLAS numpy loaded; dlopen on the same file returns that instance
    for lib_path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                facts["blas_threads"] = get_threads()
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                get_config.restype = ctypes.c_char_p
                facts["blas_config"] = get_config().decode().strip()
                break
    return facts


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def median(values):
    return statistics.median(values) if values else float("nan")


def run_one(name: str, seed: int, seconds: int, trace: bool, nproc: int) -> int:
    sys.path.insert(0, str(SRC))
    import measure
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    outcome = measure.run_workload(workload, seed, seconds, trace, out_dir)
    runs = outcome.all_runs
    attempted, failed = outcome.attempted_steps, outcome.failed_steps
    good = [r for r in runs if not r.failure]
    wall = {
        "setup_s": median(outcome.setup_wall_s),
        "steps_per_s": measure.steps_per_s(outcome.runs, wall=True),
        "holdout_forward_s": median(outcome.holdout_forward_wall_s),
    }
    e2e = {
        "setup_s": median(outcome.setup_s),
        "steps_per_s": measure.steps_per_s(outcome.runs),
        "holdout_forward_s": median(outcome.holdout_forward_s),
        "peak_rss_mb": measure.peak_rss_mb(),
        "final_loss": float(good[-1].final_loss) if good else float("nan"),
        "rel_l2": good[-1].rel_l2 if good and workload.has_reference else None,
        "failed_step_ratio": failed / attempted,
    }
    if trace:
        layers = {
            key: median([stages[key] for stages in outcome.setup_stages])
            for key in ("setup.import_s", "setup.problem_s", "setup.model_s", "setup.sparse_grid_s")
        }
        layers.update(tracing.layer_metrics(outcome.tracer.spans))
        layers["trace.overhead_ratio"] = measure.steps_per_s(outcome.traced_runs) / e2e["steps_per_s"]
        outcome.tracer.write_spans(out_dir / "spans.jsonl")
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit in tracing.PER_LAYER}
    else:
        metrics = {
            key: {"value": e2e[key], "unit": unit} for key, unit in END_TO_END if key in GATED
        }

    report = {
        "workload": name,
        "facts": machine_facts(seed, nproc),
        "trace": trace,
        "end_to_end": {key: {"value": e2e[key], "unit": unit} for key, unit in END_TO_END},
        "wall_clock": wall,
        "host_speed": outcome.bracket.speed(),
        "samples": {
            "setup_s": outcome.setup_s,
            "holdout_forward_s": outcome.holdout_forward_s,
            "setup_wall_s": outcome.setup_wall_s,
            "holdout_forward_wall_s": outcome.holdout_forward_wall_s,
            "train_calls_wall_s": [r.wall_time for r in runs],
            "train_calls_kernel_s": [r.kernel_s for r in runs],
            "kernel_s": outcome.bracket.kernel_times,
            "train_calls": len(runs),
            "steps_per_call": workload.steps,
        },
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in outcome.checks],
        "metrics": metrics,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {name}  seed {seed}  trace {int(trace)}  ({len(runs)} train calls of {workload.steps} steps)")
    print("facts " + json.dumps(report["facts"]))
    for key, unit in END_TO_END:
        value = e2e[key]
        print(f"  {key:<20} {'n/a' if value is None else format(value, '.6g'):>14} {unit}")
    print(
        f"  wall clock, at host speed {report['host_speed']:.3g}x the reference: "
        + ", ".join(f"{key} {value:.6g}" for key, value in wall.items())
    )
    if trace:
        for key, unit in tracing.PER_LAYER:
            print(f"  {key:<34} {metrics[key]['value']:>14.6g} {unit}")
    for run in runs:
        if run.failure:
            print(f"  FAIL NumericalFailure after {run.steps_run} of {run.steps_attempted} steps: {run.failure}")
    for n, ok, d in outcome.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {n}: {d}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own fresh process; prints their output, then one combined line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name}: no result (exit code {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed, passed to the program as run.seed")
    parser.add_argument("--seconds", type=int, default=30, help="time one workload run measures for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "photopinn" / "__init__.py").is_file():
        print(f"error: {SRC / 'photopinn'} not found; run from a photopinn checkout", file=sys.stderr)
        return 2
    nproc = pin_to_one_core()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), nproc)


if __name__ == "__main__":
    sys.exit(main())
