"""Record final_loss and rel_l2 per workload and seed into reference.json.

    python3 benchmarks/record.py --seeds 0-63 [--workload bs-tt-weight ...]

Run it only at a commit whose training results are known to be right: the
benchmark checks every later commit against these values.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import OUT, SRC, pin_to_one_core


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    parser.add_argument("--workload", nargs="*", default=None)
    args = parser.parse_args()
    pin_to_one_core()
    sys.path.insert(0, str(SRC))
    from measure import train_once
    from workloads import REFERENCE_FILE, WORKLOADS, load_reference, run_config

    lo, hi = (int(v) for v in args.seeds.split("-"))
    reference = load_reference()
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        table = reference.setdefault(name, {})
        for seed in range(lo, hi + 1):
            out_dir = OUT / "record"
            cfg = run_config(workload, seed, out_dir)
            run = train_once(cfg, out_dir / cfg.problem_name / f"seed{seed}")
            if run.failure:
                raise SystemExit(f"{name} seed {seed}: {run.failure}")
            table[str(seed)] = {
                "final_loss": float(run.final_loss),
                "rel_l2": run.rel_l2 if workload.has_reference else None,
            }
            print(name, seed, table[str(seed)], flush=True)
        reference[name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
