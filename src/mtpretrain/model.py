"""Transformer encoder with summed input embeddings and one head per task.

The input embedding is the sum of four learned tables (token, position,
segment type, task id) followed by layer-norm and dropout. The encoder is a
post-norm stack: self-attention + residual + norm, then a 4x feed-forward
with gelu + residual + norm. Sentence heads read a tanh pooler over the
[CLS] position; the two similarity tasks read the raw [CLS] state instead
so their geometry is not squashed through an extra affinity layer.

Every head is one entry of `HEADS`: the label key it reads, the input and
output widths of its dense layer (the output width is the task's class
count, or 1 for a regression), its forward and loss functions, and
whether it reads the pooled [CLS], the raw [CLS] or the final states.
Parameter shapes, `head_forward` and `losses.batch_losses` all read that
table. When every head of a step reads [CLS], `encode(cls_only=True)`
runs the last encoder layer at the [CLS] rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import losses as ls
from . import tensor as tz
from .tasks import TaskError
from .tensor import Tensor

MASK_BIAS = -1e9
TYPE_VOCAB = 2  # segment types: A and B


@dataclass
class ModelConfig:
    vocab: int
    layers: int = 2
    hidden: int = 64
    heads: int = 2
    max_seq_len: int = 128
    task_vocab: int = 16
    dropout: float = 0.1

    def __post_init__(self):
        if self.heads < 1 or self.hidden < 1 or self.layers < 0:
            raise ValueError(
                f"need heads >= 1, hidden >= 1 and layers >= 0, got heads "
                f"{self.heads}, hidden {self.hidden}, layers {self.layers}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout {self.dropout} not in [0, 1)")
        if self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be at least 2")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02):
    """Normal(0, std) with values beyond two deviations resampled."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


# ------------------------------------------------------------------ heads
#
# A head's forward takes (model, task, hidden, flat, batch, pooled), where
# flat is hidden reshaped to (B*L, H) once per call and pooled is the tanh
# pooler output for heads that read it; its loss takes (task, predictions,
# batch) and returns the loss as a scalar Tensor.

def _mlm_forward(model, task, hidden, flat, batch, pooled):
    pos = batch.labels["mlm"]["positions"]
    states = tz.index_rows(flat, pos[:, 0] * hidden.shape[1] + pos[:, 1])
    states = model._dense(states, "heads.mlm.transform")
    states = model._norm(tz.gelu(states), "heads.mlm.norm")
    return _vocab_head(model, task, states)


def _sbo_forward(model, task, hidden, flat, batch, pooled):
    """Reads the left and the right boundary of each masked span."""
    lab = batch.labels["mlm"]
    left, right = (tz.index_rows(flat, lab[side][:, 0] * hidden.shape[1]
                                 + lab[side][:, 1])
                   for side in ("left", "right"))
    states = tz.gelu(model._dense(tz.concat([left, right], axis=-1),
                                  "heads.sbo.dense"))
    return _vocab_head(model, task, states)


def _vocab_head(model, task, states):
    """The (n, H) states with the tied token table and the task's vocab
    bias: the operands of the logits, which the loss never forms whole."""
    return (states, model.params["embeddings.token"],
            model.params[f"heads.{task}.vocab_bias"])


def _token_regression(model, task, hidden, flat, batch, pooled):
    b, seq, _ = hidden.shape
    return model._dense(flat, f"heads.{task}").reshape(b, seq)


def _token_class(model, task, hidden, flat, batch, pooled):
    b, seq, _ = hidden.shape
    return model._dense(flat, f"heads.{task}").reshape(
        b, seq, model.heads[task].outputs)


def _tgs_forward(model, task, hidden, flat, batch, pooled):
    """Reads the trigram's three positions in each row that has one."""
    starts = batch.labels["tgs"]["starts"]
    rows = np.nonzero(starts >= 0)[0]
    base = rows * hidden.shape[1] + starts[rows]
    parts = [tz.index_rows(flat, base + j) for j in range(3)]
    return model._dense(tz.concat(parts, axis=-1), "heads.tgs")


def _sentence_class(model, task, hidden, flat, batch, pooled):
    return model._dense(pooled, f"heads.{task}")


def _cls_forward(model, task, hidden, flat, batch, pooled):
    return model.cls_rows(hidden)


def _fs_forward(model, task, hidden, flat, batch, pooled):
    return model.cls_rows(hidden), hidden


def _vocab_loss(task, head, batch):
    targets = batch.labels["mlm"]["targets"]
    if len(targets) == 0:
        return ls.zero_loss()
    return tz.vocab_cross_entropy(*head, targets)


def _regression_loss(task, preds, batch):
    lab = batch.labels[task]
    return ls.loss_regression(preds, lab["values"], lab["weights"])


def _token_class_loss(task, grid, batch):
    lab = batch.labels[task]
    return ls.selected_token_ce(grid, lab["labels"], lab["weights"])


def _tgs_loss(task, logits, batch):
    lab = batch.labels["tgs"]
    return ls.loss_token_ce(logits, lab["labels"][lab["starts"] >= 0])


def _sentence_loss(task, logits, batch):
    return ls.loss_token_ce(logits, batch.labels[task])


def _qt_loss(task, cls, batch):
    return ls.loss_qt(cls)


def _fs_loss(task, preds, batch):
    cls, hidden = preds
    content = np.asarray(batch.attention_mask, dtype=bool) \
        & ~np.asarray(batch.special_mask, dtype=bool)
    return ls.loss_fs(cls, hidden, content)


def _dense_shapes(prefix: str, n_in: int, n_out: int):
    return [(f"{prefix}.weight", (n_in, n_out)), (f"{prefix}.bias", (n_out,))]


def _norm_shapes(prefix: str, h: int):
    return [(f"{prefix}.gamma", (h,)), (f"{prefix}.beta", (h,))]


@dataclass(frozen=True)
class Head:
    labels: "str | None"  # the batch label key the head reads
    width: int            # heads.<task>.weight has width*H input rows (0: none)
    outputs: int          # and this many columns: the class count, or 1
                          # for a regression (0: no dense head)
    forward: Callable
    loss: Callable
    # what the forward reads: "pooled", the tanh pooler over [CLS]; "cls",
    # the raw [CLS] states; None, the final states
    reads: "str | None" = None
    # parameters beyond the dense head, as (name below heads.<task>, shape)
    shapes: Callable = lambda h, v: []


# one entry per task, in parameter order
HEADS: "dict[str, Head]" = {
    "mlm": Head("mlm", 0, 0, _mlm_forward, _vocab_loss, shapes=lambda h, v: (
        _dense_shapes("transform", h, h) + _norm_shapes("norm", h)
        + [("vocab_bias", (v,))])),
    "sbo": Head("mlm", 0, 0, _sbo_forward, _vocab_loss, shapes=lambda h, v: (
        _dense_shapes("dense", 2 * h, h) + [("vocab_bias", (v,))])),
    "tf": Head("tf", 1, 1, _token_regression, _regression_loss),
    "tfidf": Head("tfidf", 1, 1, _token_regression, _regression_loss),
    "tlp": Head("tlp", 1, 1, _token_regression, _regression_loss),
    "cap": Head("cap", 1, 2, _token_class, _token_class_loss),
    "tcp": Head("tcp", 1, 2, _token_class, _token_class_loss),
    "tgs": Head("tgs", 3, 6, _tgs_forward, _tgs_loss),
    "nsp": Head("nsp", 1, 2, _sentence_class, _sentence_loss, "pooled"),
    "asp": Head("asp", 1, 3, _sentence_class, _sentence_loss, "pooled"),
    "so": Head("so", 1, 2, _sentence_class, _sentence_loss, "pooled"),
    "sdp": Head("sdp", 1, 3, _sentence_class, _sentence_loss, "pooled"),
    "scp": Head("scp", 1, 2, _sentence_class, _sentence_loss, "pooled"),
    "qt": Head(None, 0, 0, _cls_forward, _qt_loss, "cls"),
    "fs": Head(None, 0, 0, _fs_forward, _fs_loss),
}


def param_shapes(config: ModelConfig) -> "list[tuple[str, tuple[int, ...]]]":
    """Every parameter's name and shape, in the order the model holds them."""
    h, v = config.hidden, config.vocab
    shapes = [("embeddings.token", (v, h)),
              ("embeddings.position", (config.max_seq_len, h)),
              ("embeddings.type", (TYPE_VOCAB, h)),
              ("embeddings.task", (config.task_vocab, h))]
    shapes += _norm_shapes("embeddings.norm", h)
    for i in range(config.layers):
        for proj in ("q", "k", "v", "out"):
            shapes += _dense_shapes(f"layers.{i}.attn.{proj}", h, h)
        shapes += _norm_shapes(f"layers.{i}.attn_norm", h)
        shapes += _dense_shapes(f"layers.{i}.ff.w1", h, 4 * h)
        shapes += _dense_shapes(f"layers.{i}.ff.w2", 4 * h, h)
        shapes += _norm_shapes(f"layers.{i}.ff_norm", h)
    shapes += _dense_shapes("pooler.dense", h, h)
    for task, head in HEADS.items():
        shapes += [(f"heads.{task}.{name}", shape)
                   for name, shape in head.shapes(h, v)]
        if head.width:
            shapes += _dense_shapes(f"heads.{task}", head.width * h,
                                    head.outputs)
    return shapes


class Model:
    """Encoder plus every task head; parameters in a flat name->Tensor map."""

    # losses reads the table through the model: this module imports losses
    heads = HEADS

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.params: "dict[str, Tensor]" = {}
        for name, shape in param_shapes(config):
            if name.endswith(".gamma"):
                values = np.ones(shape)
            elif name.endswith(("bias", ".beta")):
                values = np.zeros(shape)
            else:
                values = truncated_normal(rng, shape)
            self.params[name] = tz.parameter(values, name=name)

    def load_values(self, values: "dict[str, np.ndarray]") -> None:
        missing = set(self.params) - set(values)
        extra = set(values) - set(self.params)
        if missing or extra:
            raise ValueError(
                f"parameter mismatch: missing {sorted(missing)[:3]}, "
                f"unexpected {sorted(extra)[:3]}")
        for name, arr in values.items():
            p = self.params[name]
            if tuple(arr.shape) != p.data.shape:
                raise ValueError(
                    f"{name}: shape {arr.shape} vs expected {p.data.shape}")
            p.data = np.asarray(arr, dtype=tz.default_dtype())

    # ------------------------------------------------------------- forward
    def _dense(self, x: Tensor, prefix: str) -> Tensor:
        return tz.linear(x, self.params[f"{prefix}.weight"],
                         self.params[f"{prefix}.bias"])

    def _norm(self, x: Tensor, prefix: str) -> Tensor:
        return tz.layer_norm(x, self.params[f"{prefix}.gamma"],
                             self.params[f"{prefix}.beta"])

    def embed(self, batch,
              rng: "np.random.Generator | None" = None) -> Tensor:
        """Summed input embeddings; with `rng`, dropout draws from it."""
        cfg = self.config
        ids = np.asarray(batch.input_ids)
        types = np.asarray(batch.type_ids)
        if ids.min() < 0 or ids.max() >= cfg.vocab:
            raise ValueError(
                f"token id out of range [0, {cfg.vocab}): {ids.min()}..{ids.max()}")
        if not (0 <= batch.task_id < cfg.task_vocab):
            raise ValueError(
                f"task id {batch.task_id} out of range [0, {cfg.task_vocab})")
        if types.min() < 0 or types.max() >= TYPE_VOCAB:
            raise ValueError("type id out of range")
        b, seq = ids.shape
        if seq > cfg.max_seq_len:
            raise ValueError(f"sequence length {seq} > {cfg.max_seq_len}")
        x = tz.index_rows(self.params["embeddings.token"], ids)
        # The position, type and task tables get their gradients from sums
        # over the batch rather than a scatter over every slot: positions
        # repeat across rows, a step has one task id, and the few type rows
        # are a one-hot product.
        one_hot = types.reshape(-1, 1) == np.arange(TYPE_VOCAB)
        type_rows = tz.constant(one_hot) @ self.params["embeddings.type"]
        x = x + type_rows.reshape(b, seq, -1)
        x = x + (tz.index_rows(self.params["embeddings.position"], np.arange(seq))
                 + tz.index_rows(self.params["embeddings.task"], [batch.task_id]))
        return tz.dropout(self._norm(x, "embeddings.norm"), cfg.dropout, rng)

    def encode(self, x: Tensor, attention_mask,
               rng: "np.random.Generator | None" = None,
               cls_only: bool = False) -> Tensor:
        """The encoder stack over (B, L, H) embeddings; with `rng`, dropout
        draws from it.

        Each layer runs on the flat (B*L, H) rows: the q, k and v
        projections, one `tz.attention` node, the output projection and
        the feed-forward, with the residuals and norms between them. The
        rows are reshaped back to (B, L, H) once, on return.

        With `cls_only`, the last layer runs its queries, output projection,
        norms and feed-forward at the [CLS] rows only (keys and values
        still cover every row) and returns the (B, 1, H) [CLS] states. With
        no layer to prune, `cls_only` is ignored."""
        cfg = self.config
        b, seq, h = x.shape
        mask = np.asarray(attention_mask, dtype=x.data.dtype)
        bias = (1.0 - mask) * MASK_BIAS
        scale = 1.0 / math.sqrt(h // cfg.heads)
        x = x.reshape(b * seq, h)
        for i in range(cfg.layers):
            pruned = cls_only and i == cfg.layers - 1
            # the projections read x through a node of their own, so x's
            # gradient adds their sum in one step, as the residual's partner
            rows = x.reshape(b * seq, h)
            k = self._dense(rows, f"layers.{i}.attn.k")
            v = self._dense(rows, f"layers.{i}.attn.v")
            if pruned:
                # one query per batch row, at [CLS], over that row's keys,
                # values and mask
                x = tz.index_rows(rows, np.arange(b) * seq)
            q = self._dense(x if pruned else rows, f"layers.{i}.attn.q")
            ctx = tz.attention(q, k, v, bias, cfg.heads, scale, cfg.dropout,
                               rng)
            attn_out = tz.dropout(self._dense(ctx, f"layers.{i}.attn.out"),
                                  cfg.dropout, rng)
            x = self._norm(x + attn_out, f"layers.{i}.attn_norm")
            ff = tz.gelu(self._dense(x, f"layers.{i}.ff.w1"))
            ff = tz.dropout(self._dense(ff, f"layers.{i}.ff.w2"),
                            cfg.dropout, rng)
            x = self._norm(x + ff, f"layers.{i}.ff_norm")
        return x.reshape(b, -1, h)

    def pool(self, hidden: Tensor) -> Tensor:
        return self._dense(self.cls_rows(hidden), "pooler.dense").tanh()

    def cls_rows(self, hidden: Tensor) -> Tensor:
        """The (B, H) [CLS] rows of (B, L, H) final states, or of the
        (B, 1, H) [CLS] states `encode(cls_only=True)` returns."""
        b, seq, h = hidden.shape
        if seq == 1:
            return hidden.reshape(b, h)
        return tz.index_rows(hidden.reshape(b * seq, h), np.arange(b) * seq)

    def head_forward(self, task: str, hidden: Tensor, batch,
                     pooled: "Tensor | None" = None):
        """Run one task head; returns that task's predictions.

        Shapes: mlm/sbo the (n_masked, H) states with the (V, H) token
        table and the (V,) vocab bias they are scored against; regressions
        and 2-way token heads (B, L) and (B, L, 2); tgs (n_valid_rows, 6);
        sentence heads (B, k); qt the raw [CLS] rows (B, H); fs the
        ([CLS] rows, hidden) pair.
        """
        head = self.head(task, batch)
        b, seq, h = hidden.shape
        flat = hidden.reshape(b * seq, h)
        if head.reads == "pooled" and pooled is None:
            pooled = self.pool(hidden)
        return head.forward(self, task, hidden, flat, batch, pooled)

    def head(self, task: str, batch) -> Head:
        """The task's head, refusing an unknown task or missing labels."""
        head = self.heads.get(task)
        if head is None:
            raise TaskError(f"unknown task {task!r}")
        if head.labels is not None and head.labels not in batch.labels:
            raise TaskError(
                f"batch carries no {head.labels} labels for task {task}")
        return head
