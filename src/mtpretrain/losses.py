"""Per-task scalar losses and the unweighted multi-task combination.

Every loss is a mean over its contributing elements so tasks with very
different element counts (per-token vs per-row) sit on comparable scales
before being summed. A task with nothing to predict this step contributes
an exact zero with no gradient.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .taskbuild import trim
from .tasks import TaskError
from .tensor import Tensor

QT_TEMPERATURE = 0.1
FS_PROB_FLOOR = 1e-7


def zero_loss() -> Tensor:
    return tz.constant(0.0)


def loss_token_ce(logits: Tensor, targets) -> Tensor:
    targets = np.asarray(targets)
    if targets.size == 0:
        return zero_loss()
    return tz.cross_entropy(logits, targets)


def loss_regression(preds: Tensor, values, weights) -> Tensor:
    values = np.asarray(values)
    weights = np.asarray(weights)
    total = float(weights.sum())
    if total <= 0:
        return zero_loss()
    diff = preds - tz.constant(values)
    weighted = diff * diff * tz.constant(weights)
    return weighted.sum() * (1.0 / total)


def loss_qt(cls_rows: Tensor) -> Tensor:
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
    return (tz.cross_entropy(logits, diag)
            + tz.cross_entropy(logits.transpose(), diag)) * 0.5


def loss_fs(cls_rows: Tensor, hidden: Tensor, content_mask) -> Tensor:
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
    # owners in pair order (0, m, 1, m+1, ...), each reading its partner
    order = np.stack([np.arange(m), np.arange(m) + m], axis=1).reshape(-1)
    source = (order + m) % b
    pick, cols = np.nonzero(content[source])
    if pick.size == 0:
        return zero_loss()
    owners = order[pick]
    token_idx = source[pick] * seq + cols
    cls_sel = tz.index_rows(cls_rows, owners)
    tok_sel = tz.index_rows(hidden.reshape(b * seq, h), token_idx)
    cos = tz.cosine_similarity(cls_sel, tok_sel)
    p = ((cos + 1.0) * 0.5).clamp(FS_PROB_FLOOR, 1.0)
    return -(p.log().mean())


def combine_losses(losses: "dict[str, Tensor]", task_set) -> Tensor:
    """Unweighted sum of the task losses for this step."""
    names = list(task_set)
    if not names:
        raise TaskError("cannot combine losses over an empty task set")
    missing = [t for t in names if t not in losses]
    if missing:
        raise TaskError(f"losses missing for tasks: {', '.join(missing)}")
    total = losses[names[0]]
    for t in names[1:]:
        total = total + losses[t]
    return total


def selected_token_ce(grid: Tensor, labels, weights) -> Tensor:
    """Cross-entropy over the (B, L, k) grid cells with positive weight."""
    b, seq, k = grid.shape
    flat = grid.reshape(b * seq, k)
    w = np.asarray(weights).reshape(-1)
    sel = np.nonzero(w > 0)[0]
    logits = tz.index_rows(flat, sel)
    targets = np.asarray(labels).reshape(-1)[sel]
    return loss_token_ce(logits, targets)


def batch_losses(model, batch, rng=None) -> "dict[str, Tensor]":
    """Full forward pass: embed, encode, run each task head and its loss.

    The heads come from the model's head table (`model.heads`); an unknown
    task is refused by `model.head`. The forward runs on the batch cut to
    its longest row (`taskbuild.trim`). When every head reads [CLS], the
    encoder's last layer runs at the [CLS] rows only. Dropout is on
    exactly when `rng` is given: it draws the masks."""
    batch = trim(batch)
    names = batch.task_set
    heads = [model.head(t, batch) for t in names]
    emb = model.embed(batch, rng=rng)
    hidden = model.encode(emb, batch.attention_mask, rng=rng,
                          cls_only=bool(heads) and all(h.reads for h in heads))
    pooled = model.pool(hidden) \
        if any(h.reads == "pooled" for h in heads) else None
    out: "dict[str, Tensor]" = {}
    for t, head in zip(names, heads):
        preds = model.head_forward(t, hidden, batch, pooled)
        out[t] = head.loss(t, preds, batch)
    return out
