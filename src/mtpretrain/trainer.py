"""The training loop: schedule execution, optimization, checkpoints, metrics.

One step consumes one batch of batch_size x max_seq_len token slots
(padding included, so token budgets stay deterministic). Batches and
dropout masks are pure functions of (seed, step index), which makes a
resumed run bit-identical to an uninterrupted one: parameters and Adam
moments are stored losslessly in 32-bit checkpoints and every remaining
source of randomness is re-derived per step.

Memory: the trainer holds one step's graph at a time. A step's forward,
non-finite check and backward run in one helper that returns only the
per-task loss floats, and the backward frees the graph as it walks it,
before the Adam update, the metrics line, any checkpoint and the next
step's forward. The graph's nodes keep only what the backward reads, so
a forward value no backward reads dies during the forward itself. At the
default shape (B=L=128) a three-step mlm run's peak RSS was 652 MiB with
two graphs alive, 424 MiB with one graph freed after its backward, and
384 MiB with it freed during the backward while the graph held every
forward value. Re-measured on the same host, that last layout read
395 MiB, and nodes that keep only what the backward reads 315 MiB.

Also provides a small probe: a frozen-encoder adjacency classifier used to
compare pre-trained encoders against random initialization.
"""

from __future__ import annotations

import json
import time
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import arrayfile
from . import losses as ls
from . import scheduler as sch
from . import tensor as tz
from .corpus import load_corpus
from .model import Model, ModelConfig
# two lines: perfbench/selftest.py rewrites the first one alone
from .taskbuild import assemble_batch
from .taskbuild import trim
from .tokenizer import load_vocab

_MODEL_INIT_TAG = 1
_DROPOUT_TAG = 13
_PROBE_TAG = 17


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    corpus: str
    vocab: str
    total_tokens: int
    tasks: "list[str]" = field(default_factory=lambda: ["mlm"])
    strategy: str = "sum"
    batch_size: int = 128
    max_seq_len: int = 128
    seed: int = 0
    layers: int = 2
    hidden: int = 64
    heads: int = 2
    dropout: float = 0.1
    task_vocab: int = 16
    base_lr: float = 1e-4
    warmup_frac: float = 0.01
    checkpoint_interval: int = 0     # tokens; 0 means total_tokens // 10
    checkpoint_path: str = ""        # final/periodic checkpoint file
    metrics_path: str = ""           # JSON-lines metrics log
    resume_from: str = ""
    prefetch: int = 0                # batches are built in-line: only 0

    def __post_init__(self):
        if self.prefetch != 0:
            raise ValueError(f"prefetch {self.prefetch} is not supported: "
                             f"batches are built in-line (prefetch=0)")
        batch_tokens = self.batch_size * self.max_seq_len
        if self.total_tokens < batch_tokens:
            raise ValueError(
                f"total_tokens {self.total_tokens} below one batch "
                f"({batch_tokens})")
        if not 0 <= self.warmup_frac <= 1:
            raise ValueError(f"warmup_frac {self.warmup_frac} outside [0, 1]")
        if not 0 <= self.base_lr < float("inf"):
            raise ValueError(f"base_lr {self.base_lr} is not a finite "
                             "value >= 0")
        if self.checkpoint_interval < 0:
            raise ValueError(f"checkpoint_interval {self.checkpoint_interval}"
                             " is negative")

    def to_dict(self) -> dict:
        return {**asdict(self), "tasks": list(self.tasks)}


# the numeric fields, which parse_config_text converts from their text; the
# two token counts as budgets, so that 1.3e11 reads as a whole number
_CONFIG_TYPES = {k: t for k, t in typing.get_type_hints(TrainConfig).items()
                 if t in (int, float)}
_CONFIG_TYPES.update(total_tokens=sch.parse_budget,
                     checkpoint_interval=sch.parse_budget)


def parse_config_text(text: str) -> TrainConfig:
    """Parse the flat key=value config format (comments with '#')."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "tasks":
            values[key] = [t.strip() for t in val.split(",") if t.strip()]
        elif key in _CONFIG_TYPES:
            values[key] = _CONFIG_TYPES[key](val)
        else:
            values[key] = val
    missing = {"corpus", "vocab", "total_tokens"} - set(values)
    if missing:
        raise ValueError(f"config missing keys: {', '.join(sorted(missing))}")
    unknown = set(values) - set(TrainConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return TrainConfig(**values)


def load_config(path) -> TrainConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


# fields that define the schedule, the model and the learning rate: a run
# resumes only under the values its checkpoint was written with
_RESUME_FIELDS = ("total_tokens", "tasks", "strategy", "batch_size",
                  "max_seq_len", "seed", "layers", "hidden", "heads",
                  "dropout", "task_vocab", "base_lr", "warmup_frac")


def _check_resume_config(config: TrainConfig, stored, path) -> None:
    if not isinstance(stored, dict):
        raise TrainingError(f"{path} holds no training config to resume from")
    current = config.to_dict()
    for key in _RESUME_FIELDS:
        if stored.get(key) != current[key]:
            raise TrainingError(
                f"cannot resume from {path}: it was written with "
                f"{key}={stored.get(key)!r}, this run has {key}={current[key]!r}")


@dataclass
class StepRecord:
    step: int
    tokens_seen: int
    lr: float
    losses: "dict[str, float]"
    wall: float


@dataclass
class TrainResult:
    config: TrainConfig
    records: "list[StepRecord]"   # this call's steps; none when resumed
                                  # from a finished run's checkpoint
    tokens_seen: int
    checkpoint_path: str
    accounting: "dict[str, int]"


def _truncate_metrics(path, last_step: int) -> None:
    """Keep the metrics lines up to last_step, the step of the checkpoint
    being resumed; later lines were written by the run that stopped and
    are about to be written again. A torn final line is dropped too."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines(True)
    except FileNotFoundError:
        return
    kept = []
    for line in lines:
        if not line.endswith("\n"):
            continue
        try:
            if json.loads(line)["step"] <= last_step:
                kept.append(line)
        except (ValueError, KeyError, TypeError):
            continue
    arrayfile.write_atomic(path, "".join(kept).encode("utf-8"))


def build_model(config: TrainConfig, vocab, n_task_ids: int) -> Model:
    mc = ModelConfig(vocab=len(vocab.id_to_token), layers=config.layers,
                     hidden=config.hidden, heads=config.heads,
                     max_seq_len=config.max_seq_len,
                     task_vocab=max(config.task_vocab, n_task_ids),
                     dropout=config.dropout)
    return Model(mc, np.random.default_rng([config.seed, _MODEL_INIT_TAG]))


def _forward_backward(model: Model, optimizer: tz.Adam, batch, step,
                      drop_rng) -> "dict[str, float]":
    """One step's forward, non-finite check and backward; the parameters'
    .grad hold the step's gradients on return. The backward frees the
    step's graph as it walks it, before the Adam update and the next
    step's forward; only the per-task loss floats leave this frame."""
    loss_map = ls.batch_losses(model, batch, rng=drop_rng)
    total = ls.combine_losses(loss_map, step.tasks)
    value = total.item()
    if not np.isfinite(value):
        raise TrainingError(f"non-finite loss at step {step.index}: {value}")
    optimizer.zero_grad()
    total.backward()
    return {t: l.item() for t, l in loss_map.items()}


def train(config: TrainConfig) -> TrainResult:
    vocab = load_vocab(config.vocab)
    reader = load_corpus(config.corpus)
    reader.check_vocab(vocab)

    batch_tokens = config.batch_size * config.max_seq_len
    schedule = sch.make_schedule(config.strategy, config.tasks,
                                 config.total_tokens, batch_tokens)
    n_task_ids = len(set(s.task_id for s in schedule.steps))
    model = build_model(config, vocab, n_task_ids)
    optimizer = tz.Adam(model.params)

    start_step = 0
    tokens_seen = 0
    if config.resume_from:
        ck = tz.load_checkpoint(config.resume_from)
        _check_resume_config(config, ck.config.get("train"),
                             config.resume_from)
        model.load_values(ck.params)
        for k in model.params:    # into Adam's own arrays, in their dtype
            optimizer.m[k][...] = ck.adam_m[k]
            optimizer.v[k][...] = ck.adam_v[k]
        optimizer.t = ck.adam_t
        start_step = int(ck.train_state["step"]) + 1
        tokens_seen = int(ck.train_state["tokens_seen"])

    interval = config.checkpoint_interval or max(batch_tokens,
                                                 config.total_tokens // 10)
    total_for_lr = schedule.total_tokens()
    ckpt_path = config.checkpoint_path or "model.mtpt"
    metrics_fh = None
    if config.metrics_path:
        if start_step:
            _truncate_metrics(config.metrics_path, start_step - 1)
        mode = "a" if start_step else "w"
        metrics_fh = open(config.metrics_path, mode, encoding="utf-8")

    records: "list[StepRecord]" = []
    last_checkpoint = tokens_seen
    started = time.monotonic()

    def write_checkpoint(step_index: int) -> None:
        tz.save_checkpoint(ckpt_path, model.params, optimizer,
                           config={"model": model.config.to_dict(),
                                   "train": config.to_dict()},
                           step=step_index, tokens_seen=tokens_seen)

    try:
        for step in schedule.steps[start_step:]:
            batch = assemble_batch(reader, vocab, step.tasks,
                                   config.batch_size, config.max_seq_len,
                                   seed=config.seed, step=step.index,
                                   task_id=step.task_id)
            step_losses = _forward_backward(
                model, optimizer, batch, step,
                np.random.default_rng([config.seed, step.index, _DROPOUT_TAG]))
            tokens_seen += schedule.batch_tokens
            lr = tz.lr_at(tokens_seen, total_for_lr, base_lr=config.base_lr,
                          warmup_frac=config.warmup_frac)
            optimizer.step(lr)
            record = StepRecord(
                step=step.index, tokens_seen=tokens_seen, lr=lr,
                losses=step_losses, wall=time.monotonic() - started)
            records.append(record)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps({
                    "step": record.step, "tokens_seen": record.tokens_seen,
                    "lr": record.lr, "losses": record.losses,
                    "wall": round(record.wall, 3)}) + "\n")
            if tokens_seen - last_checkpoint >= interval:
                if metrics_fh is not None:
                    metrics_fh.flush()
                write_checkpoint(step.index)
                last_checkpoint = tokens_seen
        if records:
            write_checkpoint(len(schedule.steps) - 1)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    # with no step taken (resumed from a finished run's checkpoint), the
    # checkpoint resumed from holds the final state
    return TrainResult(config=config, records=records,
                       tokens_seen=tokens_seen,
                       checkpoint_path=str(ckpt_path if records
                                           else config.resume_from),
                       accounting=sch.token_accounting(schedule))


# ------------------------------------------------------------------ probe

PROBE_LR = 0.05


@dataclass
class ProbeSpec:
    n_train_batches: int = 8
    n_eval_batches: int = 8
    batch_size: int = 32
    max_seq_len: int = 64
    epochs: int = 3
    seed: int = 0


def _probe_features(model: Model, reader, vocab, spec: ProbeSpec,
                    n_batches: int, tag: int):
    """Frozen-encoder [CLS] features and order labels for probe batches."""
    feats, labels = [], []
    for k in range(n_batches):
        batch = trim(assemble_batch(
            reader, vocab, ("so",), spec.batch_size, spec.max_seq_len,
            rng=np.random.default_rng([spec.seed, _PROBE_TAG, tag, k])))
        rows = model.encode(model.embed(batch), batch.attention_mask,
                            cls_only=True)
        feats.append(model.cls_rows(rows, len(batch.input_ids)).data.copy())
        labels.append(batch.labels["so"].copy())
    return np.concatenate(feats), np.concatenate(labels)


def evaluate_probe(model: Model, reader, vocab,
                   spec: "ProbeSpec | None" = None) -> float:
    """Held-out accuracy of a linear order-detection probe on [CLS].

    The encoder stays frozen; only a fresh 2-way linear head is fitted,
    for spec.epochs passes over the probe training split (epochs=0 leaves
    the zero-initialized head untrained, yielding chance behaviour).
    """
    spec = spec or ProbeSpec()
    x_train, y_train = _probe_features(model, reader, vocab, spec,
                                       spec.n_train_batches, tag=0)
    x_eval, y_eval = _probe_features(model, reader, vocab, spec,
                                     spec.n_eval_batches, tag=1)
    h = x_train.shape[1]
    w = tz.parameter(np.zeros((h, 2)))
    b = tz.parameter(np.zeros(2))
    opt = tz.Adam({"probe.head.weight": w, "probe.head.bias": b},
                  weight_decay=0.0)
    rng = np.random.default_rng([spec.seed, _PROBE_TAG, 2])
    n = x_train.shape[0]
    for _ in range(spec.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, spec.batch_size):
            sel = order[lo:lo + spec.batch_size]
            logits = tz.constant(x_train[sel]) @ w + b
            loss = tz.cross_entropy(logits, y_train[sel])
            opt.zero_grad()
            loss.backward()
            opt.step(PROBE_LR)
    scores = x_eval @ w.data + b.data
    return float((scores.argmax(axis=1) == y_eval).mean())
