"""One workload in one process: timed set-ups, timed `train` calls, output checks.

The loop is closed with one client: `train` issues each loss query only
after the previous one returns, and the harness starts the next `train` call
only after the previous one returns.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from photopinn.pde import pinn_loss
from photopinn.training import (
    NumericalFailure,
    build_run_model,
    config_problem,
    config_stein,
    evaluate_model,
    load_model,
    train,
)
from photopinn.zo import ParamView

import hostspeed
import tracing
from workloads import BAND_FACTOR, REFERENCE_RTOL, Workload, load_reference, run_config

SETUP_CHILD = Path(__file__).with_name("setup_child.py")
SETUP_REPEATS = 7  # per run
HOLDOUT_REPEATS = 1  # after each untraced train call
MIN_CALLS = 2  # untraced train calls in a run, whatever --seconds says
CHILD_TIMEOUT_S = 120


@dataclass
class TrainRun:
    """The outcome of one `train` call."""

    wall_time: float  # SeedResult.wall_time, or the time to the failure
    steps_attempted: int
    steps_run: int
    queries: int = 0
    final_loss: str = ""  # exactly as train logged it in metrics.csv
    rel_l2: float = float("nan")
    failure: str = ""
    kernel_s: float = hostspeed.REFERENCE_S  # host-speed kernel time around the call, if it was timed

    @property
    def reference_s(self) -> float:
        """wall_time at the reference host speed."""
        return hostspeed.to_reference(self.wall_time, self.kernel_s)


def steps_per_s(runs: list[TrainRun], wall: bool = False) -> float:
    """Steps of the calls that finished over their summed time, at the reference host speed or as measured."""
    good = [r for r in runs if not r.failure]
    seconds = sum(r.wall_time if wall else r.reference_s for r in good)
    return sum(r.steps_run for r in good) / seconds if good else float("nan")


@dataclass
class Outcome:
    runs: list[TrainRun] = field(default_factory=list)
    traced_runs: list[TrainRun] = field(default_factory=list)
    # times at the reference host speed, and as measured
    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    setup_stages: list[dict] = field(default_factory=list)
    holdout_forward_s: list[float] = field(default_factory=list)
    holdout_forward_wall_s: list[float] = field(default_factory=list)
    bracket: hostspeed.Bracket | None = None
    checks: list[tuple[str, bool, str]] = field(default_factory=list)  # (name, passed, detail)
    tracer: tracing.Tracer | None = None

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def all_runs(self) -> list[TrainRun]:
        return self.runs + self.traced_runs

    @property
    def attempted_steps(self) -> int:
        return sum(r.steps_attempted for r in self.all_runs)

    @property
    def failed_steps(self) -> int:
        """Steps not completed: cut short by a NumericalFailure, or in a call whose output failed a check."""
        failed = sum(r.steps_attempted - r.steps_run for r in self.all_runs if r.failure)
        if not all(ok for _, ok, _ in self.checks):
            failed += sum(r.steps_run for r in self.all_runs if not r.failure)
        return failed


def time_setup(workload: Workload, seed: int, out_dir: Path) -> tuple[float, dict]:
    """Process start to the first ZO step, in a fresh process: (seconds, stage times)."""
    cmd = [sys.executable, str(SETUP_CHILD), "--workload", workload.name, "--seed", str(seed), "--out", str(out_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return elapsed, json.loads(rest.strip().splitlines()[-1])


def logged_final_loss(out_dir: Path, steps_run: int) -> str:
    """The loss `train` logged at its final step, as written in metrics.csv."""
    for line in (out_dir / "metrics.csv").read_text().splitlines()[1:]:
        step, loss = line.split(",")[:2]
        if int(step) == steps_run and loss != "final":
            return loss
    return ""


def train_once(cfg, seed_dir: Path) -> TrainRun:
    t0 = time.perf_counter()
    try:
        result = train(cfg).results[0]
    except NumericalFailure as exc:
        done = int(np.load(exc.dump_path)["step"]) if exc.dump_path else 0
        return TrainRun(time.perf_counter() - t0, cfg.opt_iterations, done, failure=str(exc))
    return TrainRun(
        wall_time=result.wall_time,
        steps_attempted=cfg.opt_iterations,
        steps_run=result.steps_run,
        queries=result.queries,
        final_loss=logged_final_loss(seed_dir, result.steps_run),
        rel_l2=result.final_rel_l2,
    )


def warm_up(cfg, seed: int) -> None:
    """Finish lazy set-up (grid cache, first loss query, first hold-out evaluation) before timing."""
    problem = config_problem(cfg)
    model = build_run_model(cfg, seed)
    pinn_loss(problem.transform(model), problem, config_stein(cfg, problem, seed), batch_seed=seed, step=0)
    if problem.reference is not None:
        evaluate_model(model, problem)


def time_holdout_forward(cfg, seed_dir: Path, outcome: Outcome) -> None:
    """HOLDOUT_REPEATS timed forwards of the network the last train call saved, on the hold-out set."""
    model, _ = load_model(seed_dir / "checkpoint.npz")
    problem = config_problem(cfg)
    solution = problem.transform(model)
    points = problem.holdout_points()

    def forward() -> float:
        t0 = time.perf_counter()
        solution(points)
        return time.perf_counter() - t0

    for _ in range(HOLDOUT_REPEATS):
        elapsed, kernel = outcome.bracket.around(forward)
        outcome.holdout_forward_wall_s.append(elapsed)
        outcome.holdout_forward_s.append(hostspeed.to_reference(elapsed, kernel))


def repeat_until(deadline: float, min_calls: int, once) -> list[TrainRun]:
    """Call `once` at least min_calls times, then while another call is predicted to end by deadline."""
    runs, spent = [], []
    while len(runs) < min_calls or time.perf_counter() + statistics.median(spent) <= deadline:
        t0 = time.perf_counter()
        runs.append(once())
        spent.append(time.perf_counter() - t0)
    return runs


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    """Timed train calls until `seconds` have passed since the start, then checks.

    Each untraced train call is followed by timed hold-out forwards of the
    network it trained and by the set-ups that are due, so those samples
    spread over the whole run rather than share one slow moment.  With
    `trace`, the first half of the training time runs untraced and the second
    half traced, so the tracing overhead is measured in the same process.
    """
    outcome = Outcome()
    start = time.perf_counter()
    deadline = start + seconds
    cfg = run_config(workload, seed, out_dir)
    seed_dir = out_dir / cfg.problem_name / f"seed{seed}"

    def time_setups_due(due: int | None = None) -> None:
        # set-up k is due at start + k * seconds / SETUP_REPEATS, so the samples spread over the run
        if due is None:
            due = 1 + int((time.perf_counter() - start) * SETUP_REPEATS / seconds)
        while len(outcome.setup_s) < min(due, SETUP_REPEATS):
            (elapsed, stages), kernel = outcome.bracket.around(lambda: time_setup(workload, seed, out_dir))
            outcome.setup_wall_s.append(elapsed)
            outcome.setup_s.append(hostspeed.to_reference(elapsed, kernel))
            outcome.setup_stages.append(stages)

    def train_bracketed() -> TrainRun:
        run, kernel = outcome.bracket.around(lambda: train_once(cfg, seed_dir))
        run.kernel_s = kernel
        return run

    def untraced_once() -> TrainRun:
        run = train_bracketed()
        if not run.failure:
            time_holdout_forward(cfg, seed_dir, outcome)
        time_setups_due()
        return run

    warm_up(cfg, seed)
    outcome.bracket = hostspeed.Bracket()
    time_setups_due()
    if not trace:
        outcome.runs = repeat_until(deadline, MIN_CALLS, untraced_once)
    else:
        outcome.runs = repeat_until((time.perf_counter() + deadline) / 2, 1, untraced_once)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            def traced_once() -> TrainRun:
                tracer.forget_blocks()
                return train_bracketed()

            outcome.traced_runs = repeat_until(deadline, 1, traced_once)
        finally:
            tracer.uninstall()
        outcome.tracer = tracer
    time_setups_due(SETUP_REPEATS)
    check_outputs(workload, cfg, seed, seed_dir, outcome)
    return outcome


def check_outputs(workload: Workload, cfg, seed: int, seed_dir: Path, outcome: Outcome) -> None:
    """The correctness gate, on the checkpoint of the last train call that finished."""
    good = [r for r in outcome.all_runs if not r.failure]
    if not good:
        return
    last = good[-1]
    outcome.check(
        "every train call gives the same final_loss and rel_l2",
        len({(r.final_loss, repr(r.rel_l2)) for r in good}) == 1,
        f"{len(good)} calls",
    )
    outcome.check(
        "train logged a finite final loss", last.final_loss != "" and np.isfinite(float(last.final_loss)), last.final_loss
    )
    if not outcome.checks[-1][1]:
        return

    model, _ = load_model(seed_dir / "checkpoint.npz")
    problem = config_problem(cfg)
    groups = len(ParamView.from_segments(model.segments()).groups(cfg.zo_grouping))
    expected = 2 * groups * cfg.zo_queries * last.steps_run
    outcome.check(
        "queries == 2 x groups x probes x steps", last.queries == expected, f"{last.queries} vs {expected}"
    )

    stein = config_stein(cfg, problem, seed)
    recomputed, _ = pinn_loss(problem.transform(model), problem, stein, batch_seed=seed, step=last.steps_run - 1)
    outcome.check(
        "final_loss recomputed from the checkpoint",
        f"{recomputed:.8e}" == last.final_loss,
        f"{recomputed:.8e} vs logged {last.final_loss}",
    )
    if workload.has_reference:
        rel = evaluate_model(model, problem)[0]
        outcome.check("rel_l2 recomputed from the checkpoint", rel == last.rel_l2, f"{rel!r} vs {last.rel_l2!r}")
    check_reference(workload, seed, last, outcome)


def check_reference(workload: Workload, seed: int, run: TrainRun, outcome: Outcome) -> None:
    """Against the value recorded for this seed, or the widened band of all recorded seeds."""
    recorded = load_reference().get(workload.name, {})
    keys = ["final_loss"] + (["rel_l2"] if workload.has_reference else [])
    got = {"final_loss": float(run.final_loss), "rel_l2": run.rel_l2}
    for key in keys:
        if str(seed) in recorded:
            want = recorded[str(seed)][key]
            ok = abs(got[key] - want) <= REFERENCE_RTOL * abs(want)
            outcome.check(f"{key} matches the recorded value (rtol {REFERENCE_RTOL:g})", ok, f"{got[key]!r} vs {want!r}")
        elif recorded:
            values = [v[key] for v in recorded.values()]
            lo, hi = min(values) / BAND_FACTOR, max(values) * BAND_FACTOR
            outcome.check(
                f"{key} inside the recorded band (seed not recorded)", lo <= got[key] <= hi, f"{got[key]!r} in [{lo:.4g}, {hi:.4g}]"
            )
        else:
            outcome.check(f"{key} has recorded values", False, "reference.json holds no values for this workload")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
