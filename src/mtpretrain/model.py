"""Transformer encoder with summed input embeddings and one head per task.

The input embedding is the sum of four learned tables (token, position,
segment type, task id) followed by layer-norm and dropout. The encoder is a
post-norm stack: self-attention + residual + norm, then a 4x feed-forward
with gelu + residual + norm. Sentence heads read a tanh pooler over the
[CLS] position; the two similarity tasks read the raw [CLS] state instead
so their geometry is not squashed through an extra affinity layer.

Every head is one entry of `HEADS`: the label key it reads, the input and
output widths of its dense layer (the output width is the task's class
count, or 1 for a regression), the one function that runs its layers and
returns its loss, and whether it reads the pooled [CLS], the raw [CLS] or
the final states. Parameter shapes, `head_forward` and
`losses.batch_losses` all read that table. When every head of a step
reads [CLS], `encode(cls_only=True)` runs the last encoder layer at the
[CLS] rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import losses as ls
from . import tensor as tz
from .taskbuild import slot_rows
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
# A head takes (model, task, rows, batch, pooled), where rows are the
# encoder's flat output, whose slots `slot_rows` locates, and pooled is the
# tanh pooler output for heads that read it. It runs the task's layers and
# returns the task's loss as a scalar Tensor.

def _mlm(model, task, rows, batch, pooled):
    pos = batch.labels["mlm"]["positions"]
    states = tz.index_rows(rows, slot_rows(rows, len(batch.input_ids), *pos.T))
    states = model._dense(states, "heads.mlm.transform")
    states = model._norm(tz.gelu(states), "heads.mlm.norm")
    return _tied_vocab_ce(model, task, states, batch)


def _sbo(model, task, rows, batch, pooled):
    """Reads the left and the right boundary of each masked span."""
    lab, b = batch.labels["mlm"], len(batch.input_ids)
    left, right = (tz.index_rows(rows, slot_rows(rows, b, *lab[side].T))
                   for side in ("left", "right"))
    states = tz.gelu(model._dense(tz.concat([left, right], axis=-1),
                                  "heads.sbo.dense"))
    return _tied_vocab_ce(model, task, states, batch)


def _tied_vocab_ce(model, task, states, batch):
    """Cross-entropy of the (n, H) states scored against the tied token
    table and the task's vocab bias; the (n, V) logits are never formed
    whole."""
    targets = batch.labels["mlm"]["targets"]
    if len(targets) == 0:
        return ls.zero_loss()
    return tz.vocab_cross_entropy(
        states, model.params["embeddings.token"],
        model.params[f"heads.{task}.vocab_bias"], targets)


def _token_regression(model, task, rows, batch, pooled):
    lab = batch.labels[task]
    preds = model._dense(rows, f"heads.{task}").reshape(batch.input_ids.shape)
    return ls.loss_regression(preds, lab["values"], lab["weights"])


def _token_class(model, task, rows, batch, pooled):
    lab = batch.labels[task]
    grid = model._dense(rows, f"heads.{task}").reshape(
        *batch.input_ids.shape, HEADS[task].outputs)
    return ls.selected_token_ce(grid, lab["labels"], lab["weights"])


def _tgs(model, task, rows, batch, pooled):
    """Reads the trigram's three positions in each row that has one."""
    lab = batch.labels["tgs"]
    starts = lab["starts"]
    valid = np.nonzero(starts >= 0)[0]
    base = slot_rows(rows, len(starts), valid, starts[valid])
    parts = [tz.index_rows(rows, base + j) for j in range(3)]
    logits = model._dense(tz.concat(parts, axis=-1), "heads.tgs")
    return ls.loss_token_ce(logits, lab["labels"][valid])


def _sentence_class(model, task, rows, batch, pooled):
    return ls.loss_token_ce(model._dense(pooled, f"heads.{task}"),
                            batch.labels[task])


def _qt(model, task, rows, batch, pooled):
    return ls.loss_qt(model.cls_rows(rows, len(batch.input_ids)))


def _fs(model, task, rows, batch, pooled):
    content = np.asarray(batch.attention_mask, dtype=bool) \
        & ~np.asarray(batch.special_mask, dtype=bool)
    return ls.loss_fs(model.cls_rows(rows, len(batch.input_ids)), rows,
                      content)


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
    loss: Callable        # the head's layers and loss, as above
    # what the head reads: "pooled", the tanh pooler over [CLS]; "cls",
    # the raw [CLS] states; None, the final states
    reads: "str | None" = None
    # parameters beyond the dense head, as (name below heads.<task>, shape)
    shapes: Callable = lambda h, v: []


# one entry per task, in parameter order
HEADS: "dict[str, Head]" = {
    "mlm": Head("mlm", 0, 0, _mlm, shapes=lambda h, v: (
        _dense_shapes("transform", h, h) + _norm_shapes("norm", h)
        + [("vocab_bias", (v,))])),
    "sbo": Head("mlm", 0, 0, _sbo, shapes=lambda h, v: (
        _dense_shapes("dense", 2 * h, h) + [("vocab_bias", (v,))])),
    "tf": Head("tf", 1, 1, _token_regression),
    "tfidf": Head("tfidf", 1, 1, _token_regression),
    "tlp": Head("tlp", 1, 1, _token_regression),
    "cap": Head("cap", 1, 2, _token_class),
    "tcp": Head("tcp", 1, 2, _token_class),
    "tgs": Head("tgs", 3, 6, _tgs),
    "nsp": Head("nsp", 1, 2, _sentence_class, "pooled"),
    "asp": Head("asp", 1, 3, _sentence_class, "pooled"),
    "so": Head("so", 1, 2, _sentence_class, "pooled"),
    "sdp": Head("sdp", 1, 3, _sentence_class, "pooled"),
    "scp": Head("scp", 1, 2, _sentence_class, "pooled"),
    "qt": Head(None, 0, 0, _qt, "cls"),
    "fs": Head(None, 0, 0, _fs),
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

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.params: "dict[str, Tensor]" = {}
        for name, shape in param_shapes(config):
            if name.endswith(".gamma"):
                values = np.ones(shape)
            elif not tz.decays(name):
                values = np.zeros(shape)
            else:
                values = truncated_normal(rng, shape)
            self.params[name] = tz.parameter(values)

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
            p.data[...] = arr    # the array its node refers to

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
        draws from it. Returns the final states as flat (B*L, H) rows,
        which `taskbuild.slot_rows` maps batch slots to.

        Each layer runs on the flat rows: the q, k and v projections, one
        `tz.attention` node, the output projection and the feed-forward,
        with the residuals and norms between them.

        With `cls_only`, the last layer runs its queries, output projection,
        norms and feed-forward at the [CLS] rows only (keys and values
        still cover every row) and returns the (B, H) [CLS] states. With
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
                x = tz.index_rows(rows, slot_rows(rows, b, np.arange(b)))
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
        return x

    def pool(self, rows: Tensor, b: int) -> Tensor:
        return self._dense(self.cls_rows(rows, b), "pooler.dense").tanh()

    def cls_rows(self, rows: Tensor, b: int) -> Tensor:
        """The (b, H) [CLS] rows of the encoder's rows for b batch rows."""
        return tz.index_rows(rows, slot_rows(rows, b, np.arange(b)))

    def head_forward(self, task: str, rows: Tensor, batch,
                     pooled: "Tensor | None") -> Tensor:
        """Run one task head on the encoder's rows and return the task's
        loss, a scalar Tensor: an exact zero with no gradient when the
        batch gives the task nothing to predict."""
        head = self.head(task, batch)
        # each head reads the rows through a node of its own, which fixes
        # the order in which the heads' gradients are summed into the rows
        return head.loss(self, task, rows.reshape(rows.shape), batch, pooled)

    def head(self, task: str, batch) -> Head:
        """The task's head, refusing an unknown task or missing labels."""
        head = HEADS.get(task)
        if head is None:
            raise TaskError(f"unknown task {task!r}")
        if head.labels is not None and head.labels not in batch.labels:
            raise TaskError(
                f"batch carries no {head.labels} labels for task {task}")
        return head
