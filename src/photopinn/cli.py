"""Command-line experiment driver.

Subcommands: train, evaluate, grid, oracle build, cost, mzi-count, reproduce,
model inspect.  Exit codes: 0 success, 2 input error (bad arguments, a bad
config, bad grid dimension or level, a missing file, a gridded reference
that `oracle build` never wrote), 3 numerical failure.  Any other exception
propagates.  Each subcommand imports what it uses when it runs, so a
weight-domain `train` loads no `photopinn.photonic` module.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

import numpy as np

from .config import ConfigError

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class _Choices:
    """Choices that `load()` gives when argparse checks or lists them, so only the subcommand
    taking them imports their module.  Name a metavar, or `add_argument` lists them at once."""

    def __init__(self, load):
        self.load = load

    def __contains__(self, value):
        return value in self.load()

    def __iter__(self):
        return iter(self.load())


def _input_errors() -> tuple:
    """The exceptions that exit with EXIT_CONFIG."""
    from .pde.problems import OracleNotBuilt
    from .quadrature import QuadratureError

    return ConfigError, QuadratureError, FileNotFoundError, OracleNotBuilt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="photopinn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None, help="override all configured seeds")
    p_train.add_argument("--out", default=None, help="override run.out_dir")
    p_train.add_argument("--iterations", type=int, default=None, help="override opt.iterations")
    p_train.add_argument("--quiet", action="store_true")
    p_train.set_defaults(handler=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="hold-out metric and field dump for a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--oracle-dir", default="artifacts/oracles")
    p_eval.add_argument("--dump", default=None, help="write (x, u_exact, u_pred) CSV here")
    p_eval.set_defaults(handler=_cmd_evaluate)

    p_grid = sub.add_parser("grid", help="print sparse-grid counts and dump nodes")
    p_grid.add_argument("--dim", type=int, required=True)
    p_grid.add_argument("--level", type=int, required=True)
    p_grid.add_argument("--out", default=None, help="write the node/weight table here")
    p_grid.set_defaults(handler=_cmd_grid)

    p_oracle = sub.add_parser("oracle", help="reference-grid management")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_ob = oracle_sub.add_parser("build", help="compute and cache a gridded reference")
    gridded = _Choices(lambda: import_module("photopinn.pde.problems").gridded_problems())
    p_ob.add_argument("--problem", required=True, choices=gridded, metavar="PROBLEM", help="one of %(choices)s")
    p_ob.add_argument("--oracle-dir", default="artifacts/oracles")
    p_ob.set_defaults(handler=_cmd_oracle)

    p_cost = sub.add_parser("cost", help="latency/footprint tables")
    archs = _Choices(lambda: ("all", *import_module("photopinn.photonic.cost").FOOTPRINT_TABLE))
    p_cost.add_argument("--arch", default="all", choices=archs, metavar="ARCH", help="one of %(choices)s")
    p_cost.set_defaults(handler=_cmd_cost)

    p_mzi = sub.add_parser("mzi-count", help="per-layer MZI counts for a configured model")
    p_mzi.add_argument("--model", required=True, help="run config file describing the model")
    p_mzi.set_defaults(handler=_cmd_mzi)

    p_rep = sub.add_parser("reproduce", help="compare against published numbers")
    tables = _Choices(lambda: import_module("photopinn.reproduce").TABLE_IDS)
    p_rep.add_argument("--table", required=True, choices=tables, metavar="TABLE", help="one of %(choices)s")
    p_rep.add_argument("--run-dir", default=None)
    p_rep.set_defaults(handler=_cmd_reproduce)

    p_model = sub.add_parser("model", help="model utilities")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    p_mi = model_sub.add_parser("inspect", help="print layout and parameter counts")
    group = p_mi.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint")
    group.add_argument("--config")
    p_mi.set_defaults(handler=_cmd_model)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _input_errors() as exc:  # evaluated only when the handler raises
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _cmd_train(args) -> int:
    from .config import load_config
    from .training import NumericalFailure, train

    overrides = {}
    if args.seed is not None:
        overrides["run_seed"] = args.seed
        overrides["run_seeds"] = ()
    if args.out is not None:
        overrides["run_out_dir"] = args.out
    if args.iterations is not None:
        overrides["opt_iterations"] = args.iterations
    try:
        cfg = load_config(args.config, **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = train(cfg, verbose=not args.quiet)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(report.summary())
    return 0


def _cmd_evaluate(args) -> int:
    from dataclasses import replace

    from .config import parse_config
    from .training import config_problem, evaluate_model, load_model

    model, spec = load_model(args.checkpoint)
    cfg = replace(parse_config(spec["config"], apply_env=False), run_oracle_dir=args.oracle_dir)
    problem = config_problem(cfg)
    rel, pts, pred, ref = evaluate_model(model, problem)
    print(f"relative_l2 {rel:.8e} over {len(pts)} hold-out points")
    if args.dump:
        header = ",".join([f"x{i}" for i in range(pts.shape[1])] + ["u_exact", "u_pred"])
        body = np.column_stack([pts, ref, pred])
        with open(args.dump, "w") as fh:
            fh.write(header + "\n")
            np.savetxt(fh, body, delimiter=",", fmt="%.10g")
        print(f"field dump written to {args.dump}")
    return 0


def _cmd_grid(args) -> int:
    from .quadrature import build_sparse_grid, save_grid

    grid = build_sparse_grid(args.dim, args.level)
    print(f"dim {grid.dim} level {grid.level}: {len(grid)} nodes, weight sum {grid.weights.sum():.15f}")
    if args.out:
        save_grid(grid, args.out)
        print(f"nodes written to {args.out}")
    else:
        for node, w in zip(grid.nodes, grid.weights):
            print(" ".join(f"{v: .17g}" for v in node) + f"  {w: .17g}")
    return 0


def _cmd_oracle(args) -> int:
    from .pde import oracle_build

    path = oracle_build(args.problem, args.oracle_dir, verbose=True)
    print(f"reference written to {path}")
    return 0


def _cmd_cost(args) -> int:
    from .photonic.cost import FOOTPRINT_TABLE, footprint, latency

    archs = list(FOOTPRINT_TABLE) if args.arch == "all" else [args.arch]
    print("arch,t_inference_ns,t_epoch_ms,t_total_s,footprint_mm2")
    for arch in archs:
        lat = latency(arch=arch)
        fp = footprint(arch)["total"]
        print(f"{arch},{lat['t_inference_ns']:.2f},{lat['t_epoch_ms']:.4f},{lat['t_total_s']:.4f},{fp:.2f}")
    return 0


def _cmd_mzi(args) -> int:
    from .config import load_config
    from .models import phase_layers
    from .photonic.cost import mzi_count
    from .training import config_architecture

    counts = [mzi_count(layer) for layer in phase_layers(config_architecture(load_config(args.model)))]
    print("layer,mzi_count")
    for li, count in enumerate(counts):
        print(f"layer{li},{count}")
    print(f"total,{sum(counts)}")
    return 0


def _cmd_reproduce(args) -> int:
    from .reproduce import format_table, reproduce_table

    rows, ok = reproduce_table(args.table, run_dir=args.run_dir)
    print(format_table(rows))
    print(f"overall: {'pass' if ok else 'FAIL'}")
    return 0 if ok else EXIT_NUMERICAL


def _cmd_model(args) -> int:
    from .config import load_config, parse_config
    from .tensortrain import TTLayout
    from .training import build_run_model, config_architecture, load_model

    if args.checkpoint:
        model, meta = load_model(args.checkpoint)
        cfg = parse_config(meta["config"], apply_env=False)
    else:
        cfg = load_config(args.config)
        model = build_run_model(cfg, cfg.seeds[0])
        meta = {}
    print(f"model: {type(model).__name__}, {model.n_params} trainable parameters")
    for name, start, stop in model.segments():
        print(f"  {name}: {stop - start}")
    for li, lay in enumerate(config_architecture(cfg).layers):
        if isinstance(lay, TTLayout):
            print(f"  layer{li} TT layout: in {lay.in_factors} out {lay.out_factors} ranks {lay.ranks}")
    if meta:
        print(f"  seed {meta['seed']}, iteration {meta['iteration']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
