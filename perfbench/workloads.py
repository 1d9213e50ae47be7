"""The three workloads: set-up, one measured round, and the checks.

A run repeats whole rounds of the same operations until the measured time
is spent. A training round is one `trainer.train` call over a fixed budget;
a gradcheck round is one finite-difference check of every task set in
`cli.GRADCHECK_SETS`. Rounds of one run use the same seed, so they do
identical work and must give identical losses.

Step, throughput and set-up times are the process's CPU time (`CPU`),
which for this single-threaded process is its wall time less the time the
host ran other guests; `wall_s` alone is wall-clock time.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs as gen
import spans

# the paper's fifteen pre-training tasks, written out apart from the program
ALL_TASKS = ("mlm", "tf", "tfidf", "sbo", "tgs", "tcp", "cap", "tlp",
             "nsp", "asp", "so", "sdp", "scp", "qt", "fs")
SETUP_REPEATS = 7
CPU = time.process_time

# the 80-word chained-sentence corpus of the test suite's fixtures
CHAINED_80 = gen.CorpusShape(n_words=80, n_docs=40, sentences=(6, 12),
                             words_per_sentence=8, topic_size=12,
                             varied_words=False)


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    shape: gen.CorpusShape
    tasks: "tuple[str, ...]"
    batch_size: int
    seq_len: int
    layers: int
    hidden: int
    heads: int
    dropout: float
    base_lr: float
    warmup_frac: float
    steps: int           # per round; checkpoints every tenth of it
    quick_steps: int
    # K of every classification head, for the ln K first-step check
    classes: "dict[str, int]" = field(default_factory=dict)
    # heads whose labels only a model of word order can predict; a round
    # is too short for them to learn (see checks.learning)
    order_only: "dict[str, int]" = field(default_factory=dict)


@dataclass(frozen=True)
class GradcheckWorkload:
    name: str
    shape: gen.CorpusShape
    layers: int
    hidden: int
    heads: int
    batch_size: int
    seq_len: int
    entries: int          # sampled entries per parameter
    quick_entries: int
    verify_params: int    # parameters re-checked by the benchmark per set


SO_PRETRAIN = TrainWorkload(
    name="so-pretrain", shape=CHAINED_80, tasks=("so",),
    batch_size=32, seq_len=32, layers=2, hidden=64, heads=4, dropout=0.0,
    base_lr=1e-3, warmup_frac=0.1, steps=60, quick_steps=20,
    classes={"so": 2}, order_only={"so": 2})

TOKEN_MIX = TrainWorkload(
    name="token-mix",
    shape=gen.CorpusShape(n_words=2000, n_docs=160, sentences=(16, 24),
                          words_per_sentence=10, topic_size=24,
                          varied_words=True),
    tasks=("mlm", "sbo", "tcp", "scp", "tgs", "cap", "tfidf", "tlp"),
    batch_size=64, seq_len=64, layers=1, hidden=16, heads=1, dropout=0.1,
    base_lr=3e-3, warmup_frac=0.1, steps=60, quick_steps=40,
    classes={"tcp": 2, "scp": 2, "cap": 2, "tgs": 6},
    order_only={"tgs": 6})

GRADCHECK_15 = GradcheckWorkload(
    name="gradcheck-15", shape=CHAINED_80, layers=2, hidden=32, heads=2,
    batch_size=8, seq_len=24, entries=2, quick_entries=1, verify_params=6)

WORKLOADS = {w.name: w for w in (SO_PRETRAIN, TOKEN_MIX, GRADCHECK_15)}


@contextlib.contextmanager
def float64(tensor):
    """Tensors made inside are float64, as in `cli.run_gradcheck`."""
    tensor.set_default_dtype("float64")
    try:
        yield
    finally:
        tensor.set_default_dtype("float32")


def loss_digest(rows: "list[dict[str, float]]") -> str:
    h = hashlib.sha256()
    for row in rows:
        for task in sorted(row):
            h.update(task.encode())
            h.update(struct.pack("<d", row[task]))
    return h.hexdigest()[:16]


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


@dataclass
class RunResult:
    """Everything one run measured, before it is turned into metrics."""

    setup_s: "list[float]" = field(default_factory=list)
    step_s: "list[float]" = field(default_factory=list)
    round_wall_s: "list[float]" = field(default_factory=list)
    round_tokens_per_s: "list[float]" = field(default_factory=list)
    counts: "dict[str, int]" = field(default_factory=dict)
    digests: "list[str]" = field(default_factory=list)
    failures: "list[str]" = field(default_factory=list)
    checkpoint_bytes: int = 0

    def clear_timings(self) -> None:
        """Forget the step and round timings taken so far (the warm-up)."""
        self.step_s.clear()
        self.round_wall_s.clear()
        self.round_tokens_per_s.clear()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def fail(self, messages: "list[str]") -> None:
        self.failures.extend(messages)


class Run:
    """Set-up shared by the workloads: generated inputs through the store."""

    def __init__(self, pkg, spec, seed: int, workdir: Path):
        self.pkg = pkg
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.result = RunResult()

    def setup(self) -> None:
        """Set up SETUP_REPEATS times, each timed; keep the last."""
        p = self.pkg
        for k in range(SETUP_REPEATS):
            t0 = CPU()
            sub = self.workdir / f"setup{k}"
            generated = gen.write_inputs(sub, self.seed, self.spec.shape)
            vocab = p.tokenizer.load_vocab(generated.vocab_path)
            store = sub / "corpus.mtpc"
            p.corpus.build_corpus([generated.text_path], store, vocab)
            reader = p.corpus.load_corpus(store)
            reader.check_vocab(vocab)
            self.generated, self.vocab, self.reader = generated, vocab, reader
            self.setup_model(store)
            self.result.setup_s.append(CPU() - t0)

    def setup_model(self, store: Path) -> None:
        raise NotImplementedError

    def verify_store(self) -> None:
        self.result.fail(checks.corpus_store(
            self.reader, self.generated.doc_token_ids(),
            self.generated.capitalized_ids(), self.pkg.corpus.FLAG_CAPITALIZED))


# ------------------------------------------------------------------ training

class TrainingRun(Run):
    def __init__(self, pkg, spec: TrainWorkload, seed: int, workdir: Path,
                 quick: bool):
        super().__init__(pkg, spec, seed, workdir)
        self.quick = quick
        self.steps = spec.quick_steps if quick else spec.steps
        self.batch_tokens = spec.batch_size * spec.seq_len
        self.total_tokens = self.steps * self.batch_tokens

    def setup_model(self, store: Path) -> None:
        """The trainer's config, its schedule and its model."""
        p, s = self.pkg, self.spec
        self.config = p.trainer.TrainConfig(
            corpus=str(store), vocab=str(self.generated.vocab_path),
            total_tokens=self.total_tokens, tasks=list(s.tasks),
            strategy="sum", batch_size=s.batch_size, max_seq_len=s.seq_len,
            seed=self.seed, layers=s.layers, hidden=s.hidden, heads=s.heads,
            dropout=s.dropout, task_vocab=16, base_lr=s.base_lr,
            warmup_frac=s.warmup_frac, prefetch=0,
            checkpoint_path=str(self.workdir / "model.mtpt"))
        self.schedule = p.scheduler.make_schedule(
            "sum", s.tasks, self.total_tokens, self.batch_tokens)
        self.n_task_ids = len({step.task_id for step in self.schedule.steps})
        p.trainer.build_model(self.config, self.vocab, self.n_task_ids)

    def round(self) -> None:
        """One `train` call. A step ends where its `Adam.step` returns, so
        the time between two such ends holds one whole step, including any
        checkpoint written after the earlier one."""
        p, r = self.pkg, self.result
        writes, ends = [], []
        save, adam_step = p.tensor.save_checkpoint, p.tensor.Adam.step

        def counted_save(path, *args, **kwargs):
            writes.append(path)
            return save(path, *args, **kwargs)

        def timed_step(optimizer, lr):
            adam_step(optimizer, lr)
            ends.append(CPU())

        p.tensor.save_checkpoint = counted_save
        p.tensor.Adam.step = timed_step
        try:
            t0 = time.perf_counter()
            out = p.trainer.train(self.config)
            wall = time.perf_counter() - t0
        finally:
            p.tensor.save_checkpoint = save
            p.tensor.Adam.step = adam_step
        records = out.records
        r.step_s.extend(np.diff(ends).tolist())
        r.round_wall_s.append(wall)
        r.round_tokens_per_s.append((len(ends) - 1) * self.batch_tokens
                                    / (ends[-1] - ends[0]))
        r.count("steps", len(records))
        r.count("batches", len(records))
        r.count("checkpoints", len(writes))
        rows = [rec.losses for rec in records]
        r.digests.append(loss_digest(rows))
        self._check_round(out, rows, len(writes))

    def _check_round(self, out, rows, n_writes: int) -> None:
        s, r = self.spec, self.result
        r.fail(checks.finite_losses(rows))
        r.fail(checks.initial_losses(rows[0], self._classes()))
        if not self.quick:   # too few steps for the loss to fall clearly
            r.fail(checks.learning(rows, s.tasks, s.order_only))
        ck = self.pkg.tensor.load_checkpoint(out.checkpoint_path)
        r.fail(self.closed_form_checks(out, n_writes, ck))
        r.checkpoint_bytes = os.path.getsize(out.checkpoint_path)

    def closed_form_checks(self, out, n_writes: int, ck) -> "list[str]":
        """A round's counts, from its result and final checkpoint, against
        counts worked out from the config."""
        n, bt = self.steps, self.batch_tokens
        return (
            checks.equal("step indices", [x.step for x in out.records],
                         list(range(n)))
            + checks.equal("tokens_seen", out.records[-1].tokens_seen, n * bt)
            + checks.equal("token_accounting", out.accounting,
                           {t: n * bt for t in self.spec.tasks})
            + checks.equal("checkpoints written", n_writes,
                           checks.checkpoint_writes(n, bt, self.total_tokens))
            + checks.equal("checkpoint train_state", ck.train_state,
                           {"step": n - 1, "tokens_seen": n * bt})
            + checks.equal("checkpoint adam_t", ck.adam_t, n))

    def _classes(self) -> "dict[str, int]":
        k = dict(self.spec.classes)
        for task in ("mlm", "sbo"):
            if task in self.spec.tasks:
                k[task] = len(gen.vocab_lines(self.generated.words))
        return k

    def first_step_losses(self, lr: float) -> "tuple[float, float]":
        """The step-0 batch's total loss at init, and again after one
        backward pass and one `Adam.step(lr)` on that batch."""
        p, s = self.pkg, self.spec
        step = self.schedule.steps[0]
        batch = p.taskbuild.assemble_batch(
            self.reader, self.vocab, step.tasks, s.batch_size, s.seq_len,
            seed=self.seed, step=0, task_id=step.task_id)
        model = p.trainer.build_model(self.config, self.vocab,
                                      self.n_task_ids)
        optimizer = p.tensor.Adam(model.params)

        def loss():
            return p.losses.combine_losses(
                p.losses.batch_losses(model, batch), step.tasks)

        before = loss()
        optimizer.zero_grad()
        before.backward()
        optimizer.step(lr)
        return before.item(), loss().item()

    def verify(self) -> None:
        """Outside the timed loop: the first-step descent, the store, and
        the batches of every step of a round, re-assembled."""
        p, r, s = self.pkg, self.result, self.spec
        r.fail(checks.descent(*self.first_step_losses(p.tensor.lr_at(
            self.batch_tokens, self.total_tokens, base_lr=s.base_lr,
            warmup_frac=s.warmup_frac))))
        self.verify_store()
        doc_ids = self.generated.doc_token_ids()
        tally = checks.MaskTally()
        for step in range(self.steps):
            batch = p.taskbuild.assemble_batch(
                self.reader, self.vocab, s.tasks, s.batch_size, s.seq_len,
                seed=self.seed, step=step,
                task_id=self.schedule.steps[step].task_id)
            r.count("verified_batches")
            if "so" in s.tasks:
                r.fail(checks.so_rows(batch, doc_ids))
            if "mlm" in s.tasks:
                tally.add(batch, self.vocab.mask_id)
            if "tcp" in s.tasks:
                r.fail(checks.token_labels(batch))
        if "mlm" in s.tasks:
            r.fail(tally.verdict(len(self.vocab.sampleable_ids)))


# ----------------------------------------------------------------- gradcheck

class GradcheckRun(Run):
    """Finite-difference checks of every task set, each loss evaluation timed.

    This is the loop of `cli.run_gradcheck`, run on the benchmark's own
    inputs. After the program's comparison the benchmark re-checks a few
    parameters against its own central differences; that re-check is not
    part of the timed work.
    """

    def __init__(self, pkg, spec: GradcheckWorkload, seed: int, workdir: Path,
                 quick: bool, tracer=None):
        super().__init__(pkg, spec, seed, workdir)
        self.entries = spec.quick_entries if quick else spec.entries
        self.tracer = tracer
        self.verify_rng = np.random.default_rng([seed, 4])

    def setup_model(self, store: Path) -> None:
        """A float64 model with dropout off, as the gradient check needs."""
        p, s = self.pkg, self.spec
        config = p.model.ModelConfig(
            vocab=len(self.vocab.id_to_token), layers=s.layers,
            hidden=s.hidden, heads=s.heads, max_seq_len=s.seq_len,
            task_vocab=16, dropout=0.0)
        with float64(p.tensor):
            self.model = p.model.Model(
                config, np.random.default_rng([self.seed, 1]))

    def _timed(self, loss_fn, evals: list):
        tracer = self.tracer

        def timed_loss():
            if tracer is not None:
                idx = tracer.begin(spans.LOSS_EVAL)
            t0 = CPU()
            value = loss_fn()
            t1 = CPU()
            if tracer is not None:
                tracer.end(idx)
            evals.append((t0, t1, value.item()))
            return value

        return timed_loss

    def _verify(self, loss_fn, params) -> "tuple[float, float]":
        """Own central differences on a few entries; returns the (wall, CPU)
        seconds spent."""
        w0, c0 = time.perf_counter(), CPU()
        names = [n for n, p in params.items() if p.grad is not None]
        pick = self.verify_rng.choice(
            len(names), replace=False,
            size=min(self.spec.verify_params, len(names)))
        pairs = []
        for k in sorted(pick.tolist()):
            p = params[names[k]]
            index = np.unravel_index(
                int(self.verify_rng.integers(p.data.size)), p.data.shape)
            pairs.append((names[k], float(p.grad[index]),
                          checks.central_difference(loss_fn, p, index)))
        self.result.fail(checks.fd_agreement(pairs))
        self.result.count("verified_entries", len(pairs))
        return time.perf_counter() - w0, CPU() - c0

    def round(self) -> None:
        p, s, r = self.pkg, self.spec, self.result
        sets = [tuple(ts) for ts in p.cli.GRADCHECK_SETS]
        evals: list = []
        worst = 0.0
        excluded_wall = excluded_cpu = 0.0
        check_rng = np.random.default_rng([self.seed, 2])
        with float64(p.tensor):
            w0, c0 = time.perf_counter(), CPU()
            for k, task_set in enumerate(sets):
                batch = p.taskbuild.assemble_batch(
                    self.reader, self.vocab, task_set, s.batch_size,
                    s.seq_len, seed=self.seed, step=k)

                def loss_fn(batch=batch):
                    loss_map = p.losses.batch_losses(self.model, batch)
                    return p.losses.combine_losses(loss_map, batch.task_set)

                result = p.tensor.check_gradients(
                    self._timed(loss_fn, evals), self.model.params,
                    max_entries=self.entries, rng=check_rng)
                worst = max(worst, result.max_error)
                wall_s, cpu_s = self._verify(loss_fn, self.model.params)
                excluded_wall += wall_s
                excluded_cpu += cpu_s
            wall = time.perf_counter() - w0 - excluded_wall
            cpu = CPU() - c0 - excluded_cpu
        r.step_s.extend(t1 - t0 for t0, t1, _ in evals)
        r.round_wall_s.append(wall)
        r.round_tokens_per_s.append(len(evals) * s.batch_size * s.seq_len
                                    / cpu)
        r.count("loss_evaluations", len(evals))
        r.count("batches", len(sets))
        r.digests.append(loss_digest([{"loss": v} for _, _, v in evals]))
        r.fail(checks.max_error(worst))
        r.fail(checks.task_cover(sets, ALL_TASKS))

    def verify(self) -> None:
        self.verify_store()
