"""Spans around the public functions of each photopinn layer, and the
per-layer metrics computed from them.

The wrappers are installed from outside the program: a method is replaced on
its class, and a function imported by name is replaced at its binding in the
module that imports it (`training.rge_estimate`, `nets.tt_forward`, ...).
Each span records its name, start, end and parent; spans stay in memory and
`write_spans` dumps them when the run ends.

A span's self time is its own duration minus the part of that interval its
child spans cover.  Layer times are totals over the spans nested in a loss
query (`pinn_loss`), divided by the number of loss queries, so they stay
comparable across run lengths; the closing hold-out evaluation of `train` is
not a loss query and does not count.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import numpy as np

# span names
RGE = "zo.rge_estimate"
ADAM = "zo.zo_adam_step"
LOSS = "pde.pinn_loss"
SAMPLE = "pde.sample_batch"
PLAN = "quadrature.plan"
EVAL_POINTS = "quadrature.eval_points"
COMBINE = "quadrature.combine"
NET = "nets.forward"
DENSE = "nets.dense_apply"
TT_APPLY = "nets.tt_apply"
TT = "tensortrain.tt_forward"
PHOTONIC = "photonic.forward"
EFFECTIVE = "photonic.effective_phases"
REALIZE = "photonic.realize"
BLOCK = "photonic.block_matrix"
MESH = "photonic.mesh_matrix"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list; -1 for a root
    info: object = None  # per-name payload: rows, loss value, plan nodes, ...

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, kwargs, out):
    return int(np.shape(args[1])[0]) if np.ndim(args[1]) == 2 else 1


def _loss_value(args, kwargs, out):
    return float(out[0])


def _plan_nodes(args, kwargs, out):
    return int(args[0].n_queries)


def _layer_index(group_name: str) -> int:
    """Layer a ZO group belongs to: 'layer3.core0' -> 3; the global group 'all' -> 0."""
    head = group_name.split(".", 1)[0]
    return int(head[len("layer"):]) if head.startswith("layer") else 0


def _probe_layers(args, kwargs, out):
    view, cfg = args[2], args[3]
    return [_layer_index(name) for name, _ in view.groups(cfg.grouping)], int(cfg.queries)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._last_phases: dict[int, np.ndarray] = {}

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        return traced

    def _unchanged_phases(self, args, kwargs, out) -> bool:
        """Whether an SvdBlock.matrix call saw the same phases as that block's previous call."""
        block = args[0]
        phases = args[1] if len(args) > 1 else kwargs.get("phases")
        if phases is None:
            phases = np.concatenate([block.u_mesh.phases, block.sigma_phases, block.v_mesh.phases])
        last = self._last_phases.get(id(block))
        self._last_phases[id(block)] = np.array(phases, copy=True)
        return last is not None and np.array_equal(last, phases)

    def forget_blocks(self) -> None:
        """Drop remembered block phases; call between train runs, whose blocks are new objects."""
        self._last_phases.clear()

    def install(self) -> None:
        import photopinn.nets as nets
        import photopinn.pde.problems as problems
        import photopinn.photonic.model as pmodel
        import photopinn.training as training
        from photopinn.photonic.mesh import MziMesh
        from photopinn.photonic.svd import SvdBlock
        from photopinn.quadrature import SteinPlan

        targets = [
            (training, "rge_estimate", RGE, _probe_layers),
            (training, "zo_adam_step", ADAM, None),
            (training, "pinn_loss", LOSS, _loss_value),
            (problems, "sample_batch", SAMPLE, None),
            (SteinPlan, "__init__", PLAN, _plan_nodes),
            (SteinPlan, "eval_points", EVAL_POINTS, None),
            (SteinPlan, "combine", COMBINE, None),
            (nets.TensorizedMlp, "__call__", NET, _rows),
            (nets.DenseLayer, "apply", DENSE, None),
            (nets.TTLayer, "apply", TT_APPLY, None),
            (nets, "tt_forward", TT, _rows),
            (pmodel, "tt_forward", TT, _rows),
            (pmodel.PhotonicMlp, "__call__", PHOTONIC, _rows),
            (pmodel.PhotonicMlp, "effective_phases", EFFECTIVE, None),
            (pmodel.PhotonicDense, "realized_weight", REALIZE, None),
            (pmodel.PhotonicTT, "realized_cores", REALIZE, None),
            (SvdBlock, "matrix", BLOCK, self._unchanged_phases),
            (MziMesh, "matrix", MESH, None),
        ]
        for owner, attr, name, info in targets:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {"name": span.name, "start": span.start, "end": span.end,
                         "parent": span.parent, "info": span.info}
                    )
                    + "\n"
                )


# -- span-tree arithmetic ---------------------------------------------------


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    return kids


def self_times(spans: list[Span], kids: list[list[int]] | None = None) -> list[float]:
    """Each span's duration minus the union of its children's intervals, clipped to it."""
    kids = children_of(spans) if kids is None else kids
    out = []
    for span, ks in zip(spans, kids):
        covered = 0.0
        reach = span.start
        for k in sorted(ks, key=lambda k: spans[k].start):
            lo = max(spans[k].start, reach)
            hi = min(spans[k].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def enclosing_query(spans: list[Span]) -> list[int]:
    """Index of the loss-query span each span sits in (itself for a query), else -1."""
    out = []
    for i, span in enumerate(spans):
        if span.name == LOSS:
            out.append(i)
        else:
            out.append(out[span.parent] if span.parent >= 0 else -1)
    return out


PER_LAYER = (
    # (name, unit) in report order; setup.* and trace.* are filled in by the harness
    ("setup.import_s", "s"),
    ("setup.problem_s", "s"),
    ("setup.model_s", "s"),
    ("setup.sparse_grid_s", "s"),
    ("zo.step_ms_p50", "ms"),
    ("zo.step_ms_p90", "ms"),
    ("zo.queries_per_step", "count"),
    ("zo.self_ms_per_step", "ms"),
    ("zo.update_ms_per_step", "ms"),
    ("zo.null_probe_ratio", "1"),
    ("pde.loss_query_ms_p50", "ms"),
    ("pde.loss_query_ms_p90", "ms"),
    ("pde.rows_per_query", "count"),
    ("pde.sample_batch_ms", "ms"),
    ("pde.loss_self_ms", "ms"),
    ("quadrature.plan_ms", "ms"),
    ("quadrature.eval_points_ms", "ms"),
    ("quadrature.combine_ms", "ms"),
    ("quadrature.nodes", "count"),
    ("nets.forward_ms", "ms"),
    ("nets.dense_apply_ms", "ms"),
    ("nets.tt_apply_ms", "ms"),
    ("nets.forward_self_ms", "ms"),
    ("nets.forward_rows_per_s", "1/s"),
    ("nets.recomputed_prefix_ratio", "1"),
    ("tensortrain.tt_forward_ms", "ms"),
    ("tensortrain.calls_per_query", "count"),
    ("tensortrain.rows_per_s", "1/s"),
    ("photonic.forward_ms", "ms"),
    ("photonic.effective_phases_ms", "ms"),
    ("photonic.realize_ms", "ms"),
    ("photonic.mesh_matrix_ms", "ms"),
    ("photonic.mesh_calls_per_query", "count"),
    ("photonic.forward_self_ms", "ms"),
    ("photonic.unchanged_realize_ratio", "1"),
    ("trace.overhead_ratio", "1"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every zo/pde/quadrature/nets/tensortrain/photonic metric from one span list.

    A layer the run never entered reports 0 for all its metrics.
    """
    kids = children_of(spans)
    self_t = self_times(spans, kids)
    query = enclosing_query(spans)
    n_queries = sum(1 for s in spans if s.name == LOSS)

    total: dict[str, float] = {}  # summed duration per name, inside loss queries
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    for i, span in enumerate(spans):
        if query[i] < 0:
            continue
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + self_t[i]
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.name in (NET, PHOTONIC, TT):
            rows[span.name] = rows.get(span.name, 0) + span.info

    def per_query_ms(name: str, table=total) -> float:
        return 1e3 * _ratio(table.get(name, 0.0), n_queries)

    # ZO steps: the k-th update follows the k-th estimate
    steps = [i for i, s in enumerate(spans) if s.name == RGE]
    updates = [s.duration for s in spans if s.name == ADAM]
    step_ms = [1e3 * (spans[i].duration + (updates[k] if k < len(updates) else 0.0)) for k, i in enumerate(steps)]
    step_queries = 0
    null_pairs = pairs = 0
    prefix = applications = 0
    for i in steps:
        layers, probes = spans[i].info
        qs = [k for k in kids[i] if spans[k].name == LOSS]
        step_queries += len(qs)
        for a, b in zip(qs[0::2], qs[1::2]):
            pairs += 1
            null_pairs += spans[a].info == spans[b].info
        for j, q in enumerate(qs):
            probed = layers[j // (2 * probes)]
            for f in kids[q]:
                if spans[f].name == NET:
                    applied = sum(1 for c in kids[f] if spans[c].name in (DENSE, TT_APPLY))
                    applications += applied
                    prefix += min(probed, applied)

    blocks = [i for i, s in enumerate(spans) if s.name == BLOCK and query[i] >= 0]
    loss_ms = [1e3 * s.duration for s in spans if s.name == LOSS]
    nodes = [s.info for s in spans if s.name == PLAN]

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    return {
        "zo.step_ms_p50": pct(step_ms, 50),
        "zo.step_ms_p90": pct(step_ms, 90),
        "zo.queries_per_step": _ratio(step_queries, len(steps)),
        "zo.self_ms_per_step": 1e3 * _ratio(sum(self_t[i] for i in steps), len(steps)),
        "zo.update_ms_per_step": 1e3 * _ratio(sum(updates), len(updates)),
        "zo.null_probe_ratio": _ratio(null_pairs, pairs),
        "pde.loss_query_ms_p50": pct(loss_ms, 50),
        "pde.loss_query_ms_p90": pct(loss_ms, 90),
        "pde.rows_per_query": _ratio(rows.get(NET, 0) + rows.get(PHOTONIC, 0), n_queries),
        "pde.sample_batch_ms": per_query_ms(SAMPLE),
        "pde.loss_self_ms": per_query_ms(LOSS, self_total),
        "quadrature.plan_ms": per_query_ms(PLAN),
        "quadrature.eval_points_ms": per_query_ms(EVAL_POINTS),
        "quadrature.combine_ms": per_query_ms(COMBINE),
        "quadrature.nodes": float(max(nodes)) if nodes else 0.0,
        "nets.forward_ms": per_query_ms(NET),
        "nets.dense_apply_ms": per_query_ms(DENSE),
        "nets.tt_apply_ms": per_query_ms(TT_APPLY),
        "nets.forward_self_ms": per_query_ms(NET, self_total),
        "nets.forward_rows_per_s": _ratio(rows.get(NET, 0), total.get(NET, 0.0)),
        "nets.recomputed_prefix_ratio": _ratio(prefix, applications),
        "tensortrain.tt_forward_ms": per_query_ms(TT),
        "tensortrain.calls_per_query": _ratio(calls.get(TT, 0), n_queries),
        "tensortrain.rows_per_s": _ratio(rows.get(TT, 0), total.get(TT, 0.0)),
        "photonic.forward_ms": per_query_ms(PHOTONIC),
        "photonic.effective_phases_ms": per_query_ms(EFFECTIVE),
        "photonic.realize_ms": per_query_ms(REALIZE),
        "photonic.mesh_matrix_ms": per_query_ms(MESH),
        "photonic.mesh_calls_per_query": _ratio(calls.get(MESH, 0), n_queries),
        "photonic.forward_self_ms": per_query_ms(PHOTONIC, self_total),
        "photonic.unchanged_realize_ratio": _ratio(sum(bool(spans[i].info) for i in blocks), len(blocks)),
    }
