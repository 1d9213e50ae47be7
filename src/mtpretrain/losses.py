"""Per-task scalar losses and the unweighted multi-task combination.

Every loss is a mean over its contributing elements so tasks with very
different element counts (per-token vs per-row) sit on comparable scales
before being summed. A task with nothing to predict this step contributes
an exact zero with no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tasks import TaskError
from .tensor import Tensor

QT_TEMPERATURE = 0.1
FS_PROB_FLOOR = 1e-7


@dataclass
class TaskLoss:
    task: str
    value: Tensor
    count: int

    def item(self) -> float:
        return self.value.item()


def zero_loss(task: str) -> TaskLoss:
    return TaskLoss(task, tz.constant(0.0), 0)


def loss_token_ce(task: str, logits: "Tensor | None", targets) -> TaskLoss:
    if logits is None:
        return zero_loss(task)
    targets = np.asarray(targets)
    if targets.size == 0:
        return zero_loss(task)
    return TaskLoss(task, tz.cross_entropy(logits, targets), int(targets.size))


def loss_regression(task: str, preds: Tensor, values, weights) -> TaskLoss:
    values = np.asarray(values)
    weights = np.asarray(weights)
    total = float(weights.sum())
    if total <= 0:
        return zero_loss(task)
    diff = preds - tz.constant(values)
    weighted = diff * diff * tz.constant(weights)
    return TaskLoss(task, weighted.sum() * (1.0 / total), int(round(total)))


def loss_qt(cls_rows: Tensor) -> TaskLoss:
    """Contrastive continuation matching over the two batch halves.

    Row i of the first half must pick its own continuation (row i of the
    second half) among all second-half candidates, scored by cosine
    similarity over QT_TEMPERATURE; averaged with the reverse direction.
    """
    b = cls_rows.shape[0]
    if b % 2 != 0:
        raise ValueError(f"continuation batch needs even row count, got {b}")
    m = b // 2
    first = tz.index_rows(cls_rows, np.arange(m))
    second = tz.index_rows(cls_rows, np.arange(m) + m)
    sim = tz.normalize_rows(first) @ tz.normalize_rows(second).transpose()
    logits = sim * (1.0 / QT_TEMPERATURE)
    diag = np.arange(m)
    value = (tz.cross_entropy(logits, diag)
             + tz.cross_entropy(logits.transpose(), diag)) * 0.5
    return TaskLoss("qt", value, 2 * m)


def loss_fs(cls_rows: Tensor, hidden: Tensor, content_mask) -> TaskLoss:
    """Cosine-based cross-entropy pulling [CLS] toward continuation tokens.

    For each row pair (i, i + B/2), every content token of one row is a
    positive target for the other row's [CLS]: p = (1 + cos)/2, loss -ln p,
    clamped away from zero. Padding and structural specials are excluded
    via content_mask.
    """
    b, seq, h = hidden.shape
    if b % 2 != 0:
        raise ValueError(f"continuation batch needs even row count, got {b}")
    m = b // 2
    content = np.asarray(content_mask, dtype=bool)
    owners = []
    token_idx = []
    for i in range(m):
        j = i + m
        for owner, source in ((i, j), (j, i)):
            cols = np.nonzero(content[source])[0]
            if cols.size == 0:
                continue
            owners.append(np.full(cols.size, owner))
            token_idx.append(source * seq + cols)
    if not owners:
        return zero_loss("fs")
    owners = np.concatenate(owners)
    token_idx = np.concatenate(token_idx)
    cls_sel = tz.index_rows(cls_rows, owners)
    tok_sel = tz.index_rows(hidden.reshape(b * seq, h), token_idx)
    cos = tz.cosine_similarity(cls_sel, tok_sel)
    p = ((cos + 1.0) * 0.5).clamp(FS_PROB_FLOOR, 1.0)
    value = -(p.log().mean())
    return TaskLoss("fs", value, int(owners.size))


def combine_losses(losses: "dict[str, TaskLoss]", task_set) -> Tensor:
    """Unweighted sum of the task losses for this step."""
    names = list(task_set)
    if not names:
        raise TaskError("cannot combine losses over an empty task set")
    missing = [t for t in names if t not in losses]
    if missing:
        raise TaskError(f"losses missing for tasks: {', '.join(missing)}")
    total = losses[names[0]].value
    for t in names[1:]:
        total = total + losses[t].value
    return total


def selected_token_ce(task: str, grid: Tensor, labels, weights) -> TaskLoss:
    """Cross-entropy over the (B, L, k) grid cells with positive weight."""
    b, seq, k = grid.shape
    flat = grid.reshape(b * seq, k)
    w = np.asarray(weights).reshape(-1)
    sel = np.nonzero(w > 0)[0]
    if sel.size == 0:
        return zero_loss(task)
    logits = tz.index_rows(flat, sel)
    targets = np.asarray(labels).reshape(-1)[sel]
    return loss_token_ce(task, logits, targets)


def batch_losses(model, batch, training: bool = False,
                 rng=None) -> "dict[str, TaskLoss]":
    """Full forward pass: embed, encode, run each task head and its loss.

    The heads come from the model's head table (`model.heads`)."""
    names = batch.task_set
    for t in names:
        if t not in model.heads:
            raise TaskError(f"unknown task {t!r}")
    emb = model.embed(batch, training=training, rng=rng)
    hidden = model.encode(emb, batch.attention_mask, training=training, rng=rng)
    pooled = model.pool(hidden) \
        if any(model.heads[t].pooled for t in names) else None
    out: "dict[str, TaskLoss]" = {}
    for t in names:
        preds = model.head_forward(t, hidden, batch, pooled)
        out[t] = model.heads[t].loss(t, preds, batch)
    return out
