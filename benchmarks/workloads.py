"""The four fixed training workloads and the values recorded for them.

Each workload is a set of `RunConfig` fields; every other field keeps its
default, except the run-control fields the harness sets itself (iteration
count, seed, output and oracle directories).  `steps` is the length of one
timed `train` call; a run repeats that call until its time is used up.  Why
each workload is in the set is written in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Relative tolerance of final_loss and rel_l2 against reference.json.  A
# contraction-order change in the TT kernel moves them by ~1e-9 after the
# bs-tt-weight run length, so 1e-6 leaves room for reordered arithmetic while
# any change to the maths itself fails.
REFERENCE_RTOL = 1e-6
# For a seed reference.json does not hold, a value must lie inside the range
# recorded over its seeds, widened by this factor on each side.
BAND_FACTOR = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    steps: int
    has_reference: bool  # a closed-form hold-out reference exists, so rel_l2 is reported


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bs-tt-weight",
            {"problem_name": "black-scholes", "model_tensorized": True},
            steps=20,
            has_reference=True,
        ),
        Workload(
            "bs-dense-phase",
            {"problem_name": "black-scholes", "model_tensorized": False, "domain": "phase"},
            steps=1,
            has_reference=True,
        ),
        Workload(
            "burgers-tt-weight",
            {"problem_name": "burgers", "model_tensorized": True},
            steps=1,
            has_reference=False,
        ),
        Workload(
            "hjb-tt-global",
            {"problem_name": "hjb", "model_tensorized": True, "zo_grouping": "global"},
            steps=1,
            has_reference=True,
        ),
    )
}


def run_config(workload: Workload, seed: int, out_dir: Path):
    """The RunConfig the program sees for one workload and seed."""
    from photopinn.config import RunConfig

    return RunConfig(
        **workload.config,
        opt_iterations=workload.steps,
        run_seed=seed,
        run_out_dir=str(out_dir),
        # an empty directory, so Burgers never picks up a stale gridded oracle
        run_oracle_dir=str(out_dir / "no-oracles"),
    )


def load_reference() -> dict:
    """{workload: {seed (str): {"final_loss": float, "rel_l2": float | None}}}."""
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text())
