"""Per-layer metrics from the spans of a traced run.

Times are per step unless the name says otherwise: the mean over the
traced steps of the self time spent in that layer. For training a step is
the interval between the starts of two consecutive `assemble_batch` calls
of one `trainer.train` call, so it holds any checkpoint written in between;
the last step of each round and the final checkpoint fall outside every
interval. For gradcheck a step is one loss evaluation, and the analytic
backward passes are spread over the evaluations of their round.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

import numpy as np

import spans
import workloads as wl

STEP_LAYERS = {
    "model.embed": "model.embed_ms",
    "model.encode": "model.encode_ms",
    "model.heads": "model.heads_ms",
    "losses.batch_losses": "losses.self_ms",
    "losses.combine_losses": "losses.self_ms",
    "tensor.backward": "tensor.backward_ms",
    "tensor.adam": "tensor.adam_ms",
}
for _op in spans.OP_NAMES:
    STEP_LAYERS[f"tensor.op.{_op}"] = f"tensor.op.{_op}.fwd_ms"

# Every per-layer metric, in report order, with its unit.
METRICS = [
    ("corpus.build_ms", "ms"), ("tokenizer.encode_ms", "ms"),
    ("corpus.load_ms", "ms"), ("scheduler.make_schedule_ms", "ms"),
    ("taskbuild.assemble_ms", "ms"),
    ("model.embed_ms", "ms"), ("model.encode_ms", "ms"),
    ("model.heads_ms", "ms"),
    ("losses.forward_ms", "ms"), ("losses.self_ms", "ms"),
    ("tensor.backward_ms", "ms"), ("tensor.adam_ms", "ms"),
    ("tensor.tape_nodes", "count"), ("tensor.tape_mb", "MiB"),
]
for _op in spans.OP_NAMES:
    METRICS += [(f"tensor.op.{_op}.fwd_ms", "ms"),
                (f"tensor.op.{_op}.calls", "count")]
METRICS += [
    ("tensor.save_checkpoint_ms", "ms"), ("tensor.checkpoint_bytes", "B"),
    ("tensor.load_checkpoint_ms", "ms"),
    ("tensor.loss_eval_ms", "ms"), ("tensor.loss_evals", "count"),
    ("trainer.loop_self_ms", "ms"), ("trainer.checkpoints", "count"),
    ("trace.step_ms", "ms"), ("trace.coverage_pct", "%"),
    ("trace.tokens_per_s", "slots/s"),
]


def _median_ms(durations) -> float:
    return 1e3 * float(np.median(durations)) if len(durations) else 0.0


def _step_spans(tracer, res, spec):
    """(spans attributed to steps, step count, traced step seconds,
    seconds of the steps not inside any child span)."""
    names, parents = tracer.names, tracer.parents
    starts, ends = tracer.starts, tracer.ends
    first = tracer.measured_from
    if isinstance(spec, wl.GradcheckWorkload):
        evals = [i for i, n in enumerate(names)
                 if n == spans.LOSS_EVAL and i >= first]
        if not evals:
            raise RuntimeError("traced run has no loss evaluation spans")
        below = spans.descendants_by_root(tracer, evals)
        chosen = list(below) + [i for i, n in enumerate(names)
                                if n == "tensor.backward" and i >= first]
        step_s = sum(ends[i] - starts[i] for i in evals)
        own = spans.self_times(tracer)
        unattributed = sum(own[i] for i in evals)
        return chosen, len(evals), step_s, unattributed

    trains = [i for i, n in enumerate(names)
              if n == "trainer.train" and i >= first]
    bounds = defaultdict(list)
    for i, p in enumerate(parents):
        if names[i] == "taskbuild.assemble" and p in trains:
            bounds[p].append(starts[i])
    if not trains or any(len(bounds[t]) < 2 for t in trains):
        raise RuntimeError("traced run has no step boundaries: a "
                           "trainer.train span holds fewer than two "
                           "taskbuild.assemble spans")
    top = {}
    for i, p in enumerate(parents):
        if p in bounds:
            b = bounds[p]
            k = bisect.bisect_right(b, starts[i]) - 1
            if 0 <= k < len(b) - 1:
                top[i] = i
        elif p in top:
            top[i] = top[p]
    n_steps = sum(len(b) - 1 for b in bounds.values())
    interval_s = sum(b[-1] - b[0] for b in bounds.values())
    tops = [i for i, t in top.items() if i == t]
    walk_s = sum(ends[i] - starts[i] for i in tops
                 if names[i] == spans.TAPE_WALK)
    children_s = sum(ends[i] - starts[i] for i in tops)
    chosen = [i for i in top if names[i] != spans.TAPE_WALK]
    return chosen, n_steps, interval_s - walk_s, interval_s - children_s


def per_layer(tracer, res, spec) -> dict:
    names = tracer.names
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    own = spans.self_times(tracer)
    by_name = defaultdict(list)     # spans of the measured rounds
    for i in range(tracer.measured_from, len(names)):
        by_name[names[i]].append(i)
    setup_spans = defaultdict(list)  # every span, set-up included
    for i, n in enumerate(names):
        setup_spans[n].append(i)
    tape = tracer.tape[tracer.tape_from:]

    chosen, n_steps, step_s, loop_self_s = _step_spans(tracer, res, spec)
    per_step = defaultdict(float)
    calls = defaultdict(int)
    for i in chosen:
        n = names[i]
        if n in STEP_LAYERS:
            per_step[STEP_LAYERS[n]] += own[i]
        if n == "losses.batch_losses":
            per_step["losses.forward_ms"] += dur[i]
        if n.startswith("tensor.op."):
            calls[n[len("tensor.op."):]] += 1

    encode_per_build = []
    for b in setup_spans["corpus.build"]:
        below = spans.descendants_by_root(tracer, [b])
        encode_per_build.append(sum(dur[i] for i in below
                                    if names[i] == "tokenizer.encode"))
    training = isinstance(spec, wl.TrainWorkload)
    rounds = max(len(res.round_wall_s), 1)
    evals = by_name[spans.LOSS_EVAL]
    out = {
        "corpus.build_ms": _median_ms(
            [dur[i] for i in setup_spans["corpus.build"]]),
        "tokenizer.encode_ms": _median_ms(encode_per_build),
        "corpus.load_ms": _median_ms(
            [dur[i] for i in setup_spans["corpus.load"]]),
        "scheduler.make_schedule_ms": _median_ms(
            [dur[i] for i in setup_spans["scheduler.make_schedule"]]),
        "taskbuild.assemble_ms": _median_ms(
            [dur[i] for i in by_name["taskbuild.assemble"]]),
        "tensor.tape_nodes": float(np.median([t[0] for t in tape]))
        if tape else 0.0,
        "tensor.tape_mb": float(np.median([t[1] for t in tape])) / 2 ** 20
        if tape else 0.0,
        "tensor.save_checkpoint_ms": _median_ms(
            [dur[i] for i in by_name["tensor.save_checkpoint"]]),
        "tensor.checkpoint_bytes": float(res.checkpoint_bytes),
        "tensor.load_checkpoint_ms": _median_ms(
            [dur[i] for i in by_name["tensor.load_checkpoint"]]),
        "tensor.loss_eval_ms": _median_ms([dur[i] for i in evals]),
        "tensor.loss_evals": len(evals) / rounds,
        "trainer.loop_self_ms": 1e3 * loop_self_s / n_steps if training
        else 0.0,
        "trainer.checkpoints": len(by_name["tensor.save_checkpoint"]) / rounds,
        "trace.step_ms": 1e3 * step_s / n_steps,
        "trace.coverage_pct": 100.0 * (1.0 - loop_self_s / step_s)
        if step_s else 0.0,
        "trace.tokens_per_s": float(np.median(res.round_tokens_per_s)),
    }
    for key, seconds in per_step.items():
        out[key] = 1e3 * seconds / n_steps
    for op in spans.OP_NAMES:
        out[f"tensor.op.{op}.calls"] = calls[op] / n_steps
    return {name: (float(out.get(name, 0.0)), unit) for name, unit in METRICS}
