"""Transformer encoder with summed input embeddings and one head per task.

The input embedding is the sum of four learned tables (token, position,
segment type, task id) followed by layer-norm and dropout. The encoder is a
post-norm stack: self-attention + residual + norm, then a 4x feed-forward
with gelu + residual + norm. Sentence heads read a tanh pooler over the
[CLS] position; the two similarity tasks read the raw [CLS] state instead
so their geometry is not squashed through an extra affinity layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tasks import TASKS, TaskError
from .tensor import Tensor

MASK_BIAS = -1e9


@dataclass
class ModelConfig:
    vocab: int
    layers: int = 2
    hidden: int = 64
    heads: int = 2
    max_seq_len: int = 128
    type_vocab: int = 2
    task_vocab: int = 16
    dropout: float = 0.1

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be at least 2")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "vocab", "layers", "hidden", "heads", "max_seq_len",
            "type_vocab", "task_vocab", "dropout")}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{k: d[k] for k in (
            "vocab", "layers", "hidden", "heads", "max_seq_len",
            "type_vocab", "task_vocab", "dropout")})


SENTENCE_HEAD_CLASSES = {"nsp": 2, "asp": 3, "so": 2, "sdp": 3, "scp": 2}
TOKEN_REGRESSION_HEADS = ("tf", "tfidf", "tlp")
TOKEN_CLASS_HEADS = {"cap": 2, "tcp": 2}


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02):
    """Normal(0, std) with values beyond two deviations resampled."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def parameter_count(config: ModelConfig) -> int:
    """Closed-form parameter count for the full model with all 15 heads.

    embeddings: (V + P + type_vocab + task_vocab) * H + 2H norm
    per layer: 4 attention projections (H^2 + H) + 2H attn norm
               + feed-forward H*4H + 4H and 4H*H + H + 2H ff norm
    pooler:    H^2 + H
    heads:     mlm transform H^2 + H + 2H norm + V bias (token table tied)
               sbo dense 2H*H + H + V bias
               3 regressions (H + 1); cap/tcp (2H + 2); tgs 3H*6 + 6
               nsp/so/scp (2H + 2); asp/sdp (3H + 3)
    """
    h, v = config.hidden, config.vocab
    emb = (v + config.max_seq_len + config.type_vocab + config.task_vocab) * h
    emb += 2 * h
    per_layer = 4 * (h * h + h) + 2 * h
    per_layer += h * 4 * h + 4 * h + 4 * h * h + h + 2 * h
    pooler = h * h + h
    heads = (h * h + h + 2 * h + v)                    # mlm
    heads += 2 * h * h + h + v                         # sbo
    heads += 3 * (h + 1)                               # tf, tfidf, tlp
    heads += 2 * (2 * h + 2)                           # cap, tcp
    heads += 3 * h * 6 + 6                             # tgs
    heads += sum(k * h + k for k in SENTENCE_HEAD_CLASSES.values())
    return emb + config.layers * per_layer + pooler + heads


class Model:
    """Encoder plus every task head; parameters in a flat name->Tensor map."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.params: "dict[str, Tensor]" = {}
        h = config.hidden
        add = self._add_param

        add("embeddings.token", truncated_normal(rng, (config.vocab, h)))
        add("embeddings.position", truncated_normal(rng, (config.max_seq_len, h)))
        add("embeddings.type", truncated_normal(rng, (config.type_vocab, h)))
        add("embeddings.task", truncated_normal(rng, (config.task_vocab, h)))
        add("embeddings.norm.gamma", np.ones(h))
        add("embeddings.norm.beta", np.zeros(h))

        for i in range(config.layers):
            for proj in ("q", "k", "v", "out"):
                add(f"layers.{i}.attn.{proj}.weight", truncated_normal(rng, (h, h)))
                add(f"layers.{i}.attn.{proj}.bias", np.zeros(h))
            add(f"layers.{i}.attn_norm.gamma", np.ones(h))
            add(f"layers.{i}.attn_norm.beta", np.zeros(h))
            add(f"layers.{i}.ff.w1.weight", truncated_normal(rng, (h, 4 * h)))
            add(f"layers.{i}.ff.w1.bias", np.zeros(4 * h))
            add(f"layers.{i}.ff.w2.weight", truncated_normal(rng, (4 * h, h)))
            add(f"layers.{i}.ff.w2.bias", np.zeros(h))
            add(f"layers.{i}.ff_norm.gamma", np.ones(h))
            add(f"layers.{i}.ff_norm.beta", np.zeros(h))

        add("pooler.dense.weight", truncated_normal(rng, (h, h)))
        add("pooler.dense.bias", np.zeros(h))

        add("heads.mlm.transform.weight", truncated_normal(rng, (h, h)))
        add("heads.mlm.transform.bias", np.zeros(h))
        add("heads.mlm.norm.gamma", np.ones(h))
        add("heads.mlm.norm.beta", np.zeros(h))
        add("heads.mlm.vocab_bias", np.zeros(config.vocab))
        add("heads.sbo.dense.weight", truncated_normal(rng, (2 * h, h)))
        add("heads.sbo.dense.bias", np.zeros(h))
        add("heads.sbo.vocab_bias", np.zeros(config.vocab))
        for name in TOKEN_REGRESSION_HEADS:
            add(f"heads.{name}.weight", truncated_normal(rng, (h, 1)))
            add(f"heads.{name}.bias", np.zeros(1))
        for name, k in TOKEN_CLASS_HEADS.items():
            add(f"heads.{name}.weight", truncated_normal(rng, (h, k)))
            add(f"heads.{name}.bias", np.zeros(k))
        add("heads.tgs.weight", truncated_normal(rng, (3 * h, 6)))
        add("heads.tgs.bias", np.zeros(6))
        for name, k in SENTENCE_HEAD_CLASSES.items():
            add(f"heads.{name}.weight", truncated_normal(rng, (h, k)))
            add(f"heads.{name}.bias", np.zeros(k))

    def _add_param(self, name: str, values) -> None:
        self.params[name] = tz.parameter(values, name=name)

    def parameter_total(self) -> int:
        return sum(p.size for p in self.params.values())

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

    def embed(self, batch, training: bool = False,
              rng: "np.random.Generator | None" = None) -> Tensor:
        cfg = self.config
        ids = np.asarray(batch.input_ids)
        types = np.asarray(batch.type_ids)
        if ids.min() < 0 or ids.max() >= cfg.vocab:
            raise ValueError(
                f"token id out of range [0, {cfg.vocab}): {ids.min()}..{ids.max()}")
        if not (0 <= batch.task_id < cfg.task_vocab):
            raise ValueError(
                f"task id {batch.task_id} out of range [0, {cfg.task_vocab})")
        if types.min() < 0 or types.max() >= cfg.type_vocab:
            raise ValueError("type id out of range")
        b, seq = ids.shape
        if seq > cfg.max_seq_len:
            raise ValueError(f"sequence length {seq} > {cfg.max_seq_len}")
        x = tz.index_rows(self.params["embeddings.token"], ids)
        # The position, type and task tables get their gradients from sums
        # over the batch rather than a scatter over every slot: positions
        # repeat across rows, a step has one task id, and the few type rows
        # are a one-hot product.
        one_hot = types.reshape(-1, 1) == np.arange(cfg.type_vocab)
        type_rows = tz.constant(one_hot) @ self.params["embeddings.type"]
        x = x + type_rows.reshape(b, seq, -1)
        x = x + (tz.index_rows(self.params["embeddings.position"], np.arange(seq))
                 + tz.index_rows(self.params["embeddings.task"], [batch.task_id]))
        x = self._norm(x, "embeddings.norm")
        if training and cfg.dropout > 0:
            x = tz.dropout(x, cfg.dropout, rng)
        return x

    def encode(self, x: Tensor, attention_mask, training: bool = False,
               rng: "np.random.Generator | None" = None) -> Tensor:
        cfg = self.config
        b, seq, h = x.shape
        heads = cfg.heads
        d = h // heads
        mask = np.asarray(attention_mask, dtype=x.data.dtype)
        bias = tz.constant(((1.0 - mask) * MASK_BIAS)[:, None, None, :])
        scale = 1.0 / math.sqrt(d)
        for i in range(cfg.layers):
            flat = x.reshape(b * seq, h)
            q = self._dense(flat, f"layers.{i}.attn.q")
            k = self._dense(flat, f"layers.{i}.attn.k")
            v = self._dense(flat, f"layers.{i}.attn.v")
            q = q.reshape(b, seq, heads, d).transpose(0, 2, 1, 3)
            k = k.reshape(b, seq, heads, d).transpose(0, 2, 3, 1)
            v = v.reshape(b, seq, heads, d).transpose(0, 2, 1, 3)
            scores = (q @ k) * scale + bias
            probs = tz.softmax(scores)
            if training and cfg.dropout > 0:
                probs = tz.dropout(probs, cfg.dropout, rng)
            ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(b * seq, h)
            attn_out = self._dense(ctx, f"layers.{i}.attn.out")
            if training and cfg.dropout > 0:
                attn_out = tz.dropout(attn_out, cfg.dropout, rng)
            x = self._norm(x + attn_out.reshape(b, seq, h), f"layers.{i}.attn_norm")
            flat = x.reshape(b * seq, h)
            ff = tz.gelu(self._dense(flat, f"layers.{i}.ff.w1"))
            ff = self._dense(ff, f"layers.{i}.ff.w2")
            if training and cfg.dropout > 0:
                ff = tz.dropout(ff, cfg.dropout, rng)
            x = self._norm(x + ff.reshape(b, seq, h), f"layers.{i}.ff_norm")
        return x

    def pool(self, hidden: Tensor) -> Tensor:
        b, seq, h = hidden.shape
        flat = hidden.reshape(b * seq, h)
        cls = tz.index_rows(flat, np.arange(b) * seq)
        return self._dense(cls, "pooler.dense").tanh()

    def cls_rows(self, hidden: Tensor) -> Tensor:
        b, seq, h = hidden.shape
        return tz.index_rows(hidden.reshape(b * seq, h), np.arange(b) * seq)

    def _vocab_logits(self, states: Tensor, bias_name: str) -> Tensor:
        table = self.params["embeddings.token"]
        return tz.linear(states, table.transpose(), self.params[bias_name])

    def head_forward(self, task: str, hidden: Tensor, batch,
                     pooled: "Tensor | None" = None):
        """Run one task head; returns that task's predictions.

        Shapes: mlm/sbo (n_masked, V); regressions and 2-way token heads
        (B, L) and (B, L, 2); tgs (n_valid_rows, 6); sentence heads (B, k);
        qt the raw [CLS] rows (B, H); fs the ([CLS] rows, hidden) pair.
        """
        if task not in TASKS:
            raise TaskError(f"unknown task {task!r}")
        b, seq, h = hidden.shape
        flat = hidden.reshape(b * seq, h)
        labels = batch.labels

        if task in ("mlm", "sbo") and "mlm" not in labels:
            raise TaskError(f"batch carries no masking labels for task {task}")
        if task in SENTENCE_HEAD_CLASSES and task != "scp" and task not in labels:
            raise TaskError(f"batch carries no labels for task {task}")
        if task in ("tf", "tfidf", "tlp", "cap", "tcp", "tgs", "scp") \
                and task not in labels:
            raise TaskError(f"batch carries no labels for task {task}")

        if task == "mlm":
            pos = labels["mlm"]["positions"]
            states = tz.index_rows(flat, pos[:, 0] * seq + pos[:, 1])
            states = self._dense(states, "heads.mlm.transform")
            states = self._norm(tz.gelu(states), "heads.mlm.norm")
            return self._vocab_logits(states, "heads.mlm.vocab_bias")
        if task == "sbo":
            lab = labels["mlm"]
            left = tz.index_rows(flat, lab["left"][:, 0] * seq + lab["left"][:, 1])
            right = tz.index_rows(flat, lab["right"][:, 0] * seq + lab["right"][:, 1])
            states = tz.gelu(self._dense(tz.concat([left, right], axis=-1),
                                         "heads.sbo.dense"))
            return self._vocab_logits(states, "heads.sbo.vocab_bias")
        if task in TOKEN_REGRESSION_HEADS:
            return self._dense(flat, f"heads.{task}").reshape(b, seq)
        if task in TOKEN_CLASS_HEADS:
            k = TOKEN_CLASS_HEADS[task]
            return self._dense(flat, f"heads.{task}").reshape(b, seq, k)
        if task == "tgs":
            starts = labels["tgs"]["starts"]
            rows = np.nonzero(starts >= 0)[0]
            if rows.size == 0:
                return None
            base = rows * seq + starts[rows]
            parts = [tz.index_rows(flat, base + j) for j in range(3)]
            return self._dense(tz.concat(parts, axis=-1), "heads.tgs")
        if task in SENTENCE_HEAD_CLASSES:
            if pooled is None:
                pooled = self.pool(hidden)
            return self._dense(pooled, f"heads.{task}")
        if task == "qt":
            return self.cls_rows(hidden)
        if task == "fs":
            return self.cls_rows(hidden), hidden
        raise TaskError(f"no head for task {task!r}")
