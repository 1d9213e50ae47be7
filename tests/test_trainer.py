import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from mtpretrain import arrayfile
from mtpretrain import scheduler as sch
from mtpretrain import tensor as tz
from mtpretrain import trainer as tr
from mtpretrain.corpus import CorpusError, load_corpus
from mtpretrain.tasks import RANDOM_SECOND_TASKS
from mtpretrain.tokenizer import SPECIAL_TOKENS, load_vocab


def make_config(small_store, word_vocab_path, tmp_path, **kw):
    base = dict(
        corpus=str(small_store), vocab=str(word_vocab_path),
        total_tokens=10 * 8 * 24, tasks=["mlm"], strategy="sum",
        batch_size=8, max_seq_len=24, seed=0, layers=1, hidden=32,
        heads=2, dropout=0.1, task_vocab=4, base_lr=1e-3, warmup_frac=0.1,
        checkpoint_path=str(tmp_path / "ck.mtpt"))
    base.update(kw)
    return tr.TrainConfig(**base)


# ----------------------------------------------------------- configuration

def test_parse_config_text():
    cfg = tr.parse_config_text(
        "# a comment\n"
        "corpus = store.mtpc\n"
        "vocab = vocab.txt   # trailing comment\n"
        "\n"
        "total_tokens = 4096\n"
        "tasks = mlm, tfidf, so\n"
        "strategy = cmtl_plus\n"
        "base_lr = 2e-4\n"
        "batch_size = 16\n")
    assert cfg.corpus == "store.mtpc"
    assert cfg.tasks == ["mlm", "tfidf", "so"]
    assert cfg.strategy == "cmtl_plus"
    assert cfg.base_lr == 2e-4
    assert cfg.batch_size == 16
    assert cfg.max_seq_len == 128  # default survives


def test_parse_config_reads_token_counts_as_budgets():
    cfg = tr.parse_config_text("corpus=a\nvocab=b\ntotal_tokens = 1.3e11\n"
                               "checkpoint_interval = 2.5E4\n")
    assert cfg.total_tokens == 130000000000
    assert type(cfg.total_tokens) is int
    assert cfg.checkpoint_interval == 25000


def test_parse_config_unknown_key():
    with pytest.raises(ValueError, match="unknown config keys: learning_rate"):
        tr.parse_config_text("corpus=a\nvocab=b\ntotal_tokens=99999\n"
                             "learning_rate=0.1\n")


def test_parse_config_missing_keys():
    with pytest.raises(ValueError, match="missing keys"):
        tr.parse_config_text("corpus=a\n")


def test_parse_config_malformed_line():
    with pytest.raises(ValueError, match="line 2"):
        tr.parse_config_text("corpus=a\njust words\n")


def test_config_requires_one_full_batch():
    with pytest.raises(ValueError, match="below one batch"):
        tr.TrainConfig(corpus="a", vocab="b", total_tokens=100,
                       batch_size=8, max_seq_len=24)


def test_config_accepts_only_inline_batches():
    assert tr.parse_config_text(
        "corpus=a\nvocab=b\ntotal_tokens=99999\nprefetch=0\n").prefetch == 0
    for bad in (1, 3, -1):
        with pytest.raises(ValueError, match="prefetch"):
            tr.TrainConfig(corpus="a", vocab="b", total_tokens=99999,
                           prefetch=bad)


MINIMAL_CONFIG = "corpus=a\nvocab=b\ntotal_tokens=99999\n"


@pytest.mark.parametrize("line, field", [
    ("warmup_frac = -0.5", "warmup_frac"),
    ("warmup_frac = 2", "warmup_frac"),
    ("warmup_frac = nan", "warmup_frac"),
    ("base_lr = -0.1", "base_lr"),
    ("base_lr = inf", "base_lr"),
    ("base_lr = nan", "base_lr"),
    ("checkpoint_interval = -5", "checkpoint_interval"),
])
def test_config_refuses_values_that_train_silently_wrong(line, field):
    with pytest.raises(ValueError, match=field):
        tr.parse_config_text(MINIMAL_CONFIG + line)


def test_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed -3 is negative"):
        tr.parse_config_text(MINIMAL_CONFIG + "seed = -3")
    assert tr.parse_config_text(MINIMAL_CONFIG + "seed = 0").seed == 0


def test_config_accepts_the_edges_of_its_ranges():
    # a zero base_lr is legal: the benchmark's self-test trains with it
    for text in ("warmup_frac = 0\nbase_lr = 0\ncheckpoint_interval = 0",
                 "warmup_frac = 1"):
        tr.parse_config_text(MINIMAL_CONFIG + text)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("corpus=a\nvocab=b\ntotal_tokens=32768\nseed=3\n")
    cfg = tr.load_config(path)
    assert cfg.total_tokens == 32768 and cfg.seed == 3


# ------------------------------------------------------------ the run loop

def test_short_run_records_and_accounting(small_store, word_vocab_path,
                                          tmp_path):
    cfg = make_config(small_store, word_vocab_path, tmp_path,
                      metrics_path=str(tmp_path / "metrics.jsonl"))
    result = tr.train(cfg)
    assert len(result.records) == 10
    assert [r.step for r in result.records] == list(range(10))
    assert [r.tokens_seen for r in result.records] \
        == [192 * (i + 1) for i in range(10)]
    for rec in result.records:
        assert set(rec.losses) == {"mlm"}
        assert np.isfinite(rec.losses["mlm"])
        assert rec.lr == pytest.approx(
            tz.lr_at(rec.tokens_seen, cfg.total_tokens, base_lr=cfg.base_lr,
                     warmup_frac=cfg.warmup_frac))
    schedule = sch.make_schedule("sum", ["mlm"], cfg.total_tokens, 192)
    assert result.accounting == sch.token_accounting(schedule)
    assert result.accounting == {"mlm": 1920}


def test_metrics_jsonl_contents(small_store, word_vocab_path, tmp_path):
    metrics = tmp_path / "metrics.jsonl"
    cfg = make_config(small_store, word_vocab_path, tmp_path,
                      metrics_path=str(metrics))
    result = tr.train(cfg)
    lines = metrics.read_text().splitlines()
    assert len(lines) == 10
    for line, rec in zip(lines, result.records):
        row = json.loads(line)
        assert row["step"] == rec.step
        assert row["tokens_seen"] == rec.tokens_seen
        assert row["lr"] == pytest.approx(rec.lr)
        assert row["losses"].keys() == {"mlm"}


def test_checkpoint_contents(small_store, word_vocab_path, tmp_path):
    cfg = make_config(small_store, word_vocab_path, tmp_path)
    result = tr.train(cfg)
    ck = tz.load_checkpoint(result.checkpoint_path)
    assert "embeddings.token" in ck.params
    assert "heads.mlm.transform.weight" in ck.params
    assert ck.config["train"]["tasks"] == ["mlm"]
    assert ck.config["model"]["hidden"] == 32
    assert ck.train_state == {"step": 9, "tokens_seen": 1920}
    assert ck.adam_t == 10
    assert set(ck.adam_m) == set(ck.params)


def test_training_is_deterministic(small_store, word_vocab_path, tmp_path):
    cfg1 = make_config(small_store, word_vocab_path, tmp_path,
                       checkpoint_path=str(tmp_path / "a.mtpt"))
    cfg2 = make_config(small_store, word_vocab_path, tmp_path,
                       checkpoint_path=str(tmp_path / "b.mtpt"))
    r1, r2 = tr.train(cfg1), tr.train(cfg2)
    assert [r.losses for r in r1.records] == [r.losses for r in r2.records]
    a = tz.load_checkpoint(r1.checkpoint_path).params
    b = tz.load_checkpoint(r2.checkpoint_path).params
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k])


def assert_same_checkpoint(path_a, path_b) -> None:
    """Equal parameters, Adam moments and Adam step in two checkpoints."""
    a, b = tz.load_checkpoint(path_a), tz.load_checkpoint(path_b)
    assert set(a.params) == set(b.params)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k]), k
        assert np.array_equal(a.adam_m[k], b.adam_m[k]), k
        assert np.array_equal(a.adam_v[k], b.adam_v[k]), k
    assert a.adam_t == b.adam_t


@pytest.mark.parametrize("tasks", [["so", "qt"], ["mlm", "sbo", "tcp"]])
def test_attention_node_trains_like_the_primitive_chain(
        small_store, word_vocab_path, tmp_path, monkeypatch, tasks):
    # float32 with dropout on, over a [CLS]-only set (its last layer
    # pruned) and a token-level set: the node and the chain of ops it
    # replaced give bit-identical losses and parameters
    def run(name):
        return tr.train(make_config(
            small_store, word_vocab_path, tmp_path, tasks=tasks, layers=2,
            total_tokens=4 * 8 * 24, checkpoint_path=str(tmp_path / name)))

    node = run("node.mtpt")
    monkeypatch.setattr(tz, "attention", oracles.primitive_attention)
    chain = run("chain.mtpt")
    assert [r.losses for r in node.records] \
        == [r.losses for r in chain.records]
    assert_same_checkpoint(node.checkpoint_path, chain.checkpoint_path)


def test_resume_is_bit_identical(small_store, word_vocab_path, tmp_path,
                                 monkeypatch):
    mid = tmp_path / "mid.mtpt"
    real_save = tz.save_checkpoint

    def capture(path, *args, step, **kwargs):
        real_save(path, *args, step=step, **kwargs)
        if step == 4:
            shutil.copy(path, mid)

    monkeypatch.setattr(tr.tz, "save_checkpoint", capture)
    full_cfg = make_config(small_store, word_vocab_path, tmp_path,
                           checkpoint_interval=5 * 192,
                           checkpoint_path=str(tmp_path / "full.mtpt"))
    full = tr.train(full_cfg)
    assert mid.exists()

    resumed_cfg = make_config(small_store, word_vocab_path, tmp_path,
                              resume_from=str(mid),
                              checkpoint_path=str(tmp_path / "resumed.mtpt"))
    resumed = tr.train(resumed_cfg)
    assert [r.step for r in resumed.records] == list(range(5, 10))
    assert [r.losses for r in resumed.records] \
        == [r.losses for r in full.records[5:]]
    assert_same_checkpoint(full.checkpoint_path, resumed.checkpoint_path)
    b = tz.load_checkpoint(resumed.checkpoint_path)
    assert b.adam_t == 10
    assert b.train_state == {"step": 9, "tokens_seen": 1920}


RESUME_STEPS = 20


@st.composite
def resume_cases(draw):
    """A strategy, mlm with a compatible draw of a pair task, a
    continuation task and a corruption task, a dropout and the step whose
    checkpoint the run resumes from."""
    pair = draw(st.sampled_from([None, "nsp", "asp", "so", "sdp"]))
    continuation = None if pair in RANDOM_SECOND_TASKS \
        else draw(st.sampled_from([None, "qt", "fs"]))
    corruption = draw(st.sampled_from([None, "tcp", "scp"]))
    aux = [t for t in (pair, continuation, corruption) if t]
    assume(aux)
    return (draw(st.sampled_from(sch.STRATEGIES)), ["mlm"] + aux,
            draw(st.sampled_from([0.0, 0.1])),
            draw(st.integers(0, RESUME_STEPS - 2)))


@settings(max_examples=10, deadline=None)
@given(case=resume_cases())
def test_resume_is_bit_identical_under_every_strategy(
        small_store, word_vocab_path, tmp_path_factory, case):
    strategy, tasks, dropout, stop = case
    tmp = tmp_path_factory.mktemp("resume")
    batch = 4 * 24
    kw = dict(tasks=tasks, strategy=strategy, dropout=dropout, batch_size=4,
              hidden=16, layers=2, total_tokens=RESUME_STEPS * batch,
              checkpoint_interval=batch)
    mid = tmp / "mid.mtpt"
    real_save = tz.save_checkpoint

    def capture(path, *args, step, **kwargs):
        real_save(path, *args, step=step, **kwargs)
        if step == stop:
            shutil.copy(path, mid)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr.tz, "save_checkpoint", capture)
        full = tr.train(make_config(
            small_store, word_vocab_path, tmp,
            checkpoint_path=str(tmp / "full.mtpt"), **kw))
    resumed = tr.train(make_config(
        small_store, word_vocab_path, tmp, resume_from=str(mid),
        checkpoint_path=str(tmp / "resumed.mtpt"), **kw))
    assert [r.step for r in resumed.records] \
        == list(range(stop + 1, RESUME_STEPS))
    assert [r.losses for r in resumed.records] \
        == [r.losses for r in full.records[stop + 1:]]
    assert_same_checkpoint(full.checkpoint_path, resumed.checkpoint_path)


def test_resume_after_crash_logs_each_step_once(small_store, word_vocab_path,
                                                tmp_path, monkeypatch):
    full = tr.train(make_config(small_store, word_vocab_path, tmp_path,
                                checkpoint_interval=5 * 192,
                                checkpoint_path=str(tmp_path / "full.mtpt")))

    metrics = tmp_path / "metrics.jsonl"
    cfg = make_config(small_store, word_vocab_path, tmp_path,
                      checkpoint_interval=5 * 192, metrics_path=str(metrics),
                      checkpoint_path=str(tmp_path / "crash.mtpt"))
    real_losses = tr.ls.batch_losses
    calls = []

    def crash_in_step_7(*args, **kwargs):
        calls.append(1)
        if len(calls) == 8:
            raise RuntimeError("crash inside step 7")
        return real_losses(*args, **kwargs)

    monkeypatch.setattr(tr.ls, "batch_losses", crash_in_step_7)
    with pytest.raises(RuntimeError, match="step 7"):
        tr.train(cfg)
    monkeypatch.setattr(tr.ls, "batch_losses", real_losses)
    assert tz.load_checkpoint(cfg.checkpoint_path).train_state["step"] == 4
    assert len(metrics.read_text().splitlines()) == 7

    cfg.resume_from = cfg.checkpoint_path
    resumed = tr.train(cfg)
    rows = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert [row["step"] for row in rows] == list(range(10))
    assert [row["losses"] for row in rows] == [r.losses for r in full.records]
    assert [r.step for r in resumed.records] == list(range(5, 10))
    assert_same_checkpoint(full.checkpoint_path, resumed.checkpoint_path)
    assert tz.load_checkpoint(resumed.checkpoint_path).adam_t == 10


# One training run in a child process that dies by os._exit inside
# save_checkpoint, at the checkpoint of the given step: at "replace" once
# the temporary file is written, before it is renamed over the checkpoint;
# at "write" halfway through writing it.
CRASH_CHILD = """
import json, os, sys
from mtpretrain import arrayfile, tensor as tz, trainer as tr

config, where, crash_step = json.loads(sys.argv[1])
real_save = tz.save_checkpoint


class HalfWrite:
    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        os._exit(3)


def save(path, *args, step, **kwargs):
    if step == crash_step:
        if where == "replace":
            os.replace = lambda *a: os._exit(3)
        else:
            arrayfile.open = lambda *a, **k: HalfWrite(open(*a, **k))
    real_save(path, *args, step=step, **kwargs)


tz.save_checkpoint = save
tr.train(tr.TrainConfig(**config))
"""


@pytest.mark.parametrize("where", ["replace", "write"])
def test_resume_after_process_killed_in_checkpoint_write(
        small_store, word_vocab_path, tmp_path, where):
    # ten steps with a checkpoint after steps 2, 5, 8 and 9; the process
    # dies writing step 5's
    kw = dict(checkpoint_interval=3 * 192)
    full = tr.train(make_config(small_store, word_vocab_path, tmp_path,
                                checkpoint_path=str(tmp_path / "full.mtpt"),
                                **kw))
    metrics = tmp_path / "metrics.jsonl"
    cfg = make_config(small_store, word_vocab_path, tmp_path,
                      metrics_path=str(metrics), **kw)
    env = dict(os.environ,
               PYTHONPATH=str(Path(tr.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", CRASH_CHILD,
         json.dumps([cfg.to_dict(), where, 5])],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr[-2000:]

    assert tz.load_checkpoint(cfg.checkpoint_path).train_state["step"] == 2
    [tmp] = tmp_path.glob(".ck.mtpt.*.tmp")
    if where == "replace":
        assert tz.load_checkpoint(tmp).train_state["step"] == 5
    else:
        with pytest.raises(tz.CheckpointError):
            tz.load_checkpoint(tmp)
    assert [json.loads(line)["step"]
            for line in metrics.read_text().splitlines()] == list(range(6))

    cfg.resume_from = cfg.checkpoint_path
    resumed = tr.train(cfg)
    rows = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert [row["step"] for row in rows] == list(range(10))
    assert [row["losses"] for row in rows] == [r.losses for r in full.records]
    assert [r.step for r in resumed.records] == list(range(3, 10))
    assert_same_checkpoint(full.checkpoint_path, resumed.checkpoint_path)


# One training run in a child process that dies by os._exit as soon as
# the checkpoint of the given step is written.
KILLED_AFTER_CHECKPOINT_CHILD = """
import json, os, sys
from mtpretrain import tensor as tz, trainer as tr

config, kill_step = json.loads(sys.argv[1])
real_save = tz.save_checkpoint


def save(path, *args, step, **kwargs):
    real_save(path, *args, step=step, **kwargs)
    if step == kill_step:
        os._exit(3)


tz.save_checkpoint = save
tr.train(tr.TrainConfig(**config))
"""


def test_resume_after_process_killed_once_the_final_checkpoint_lands(
        small_store, word_vocab_path, tmp_path):
    # twenty steps with a checkpoint after step 14 and the final one after
    # step 19; the process dies once the final one is written, so the log
    # must already hold every step that checkpoint holds
    metrics = tmp_path / "metrics.jsonl"
    cfg = make_config(small_store, word_vocab_path, tmp_path,
                      total_tokens=20 * 192, checkpoint_interval=15 * 192,
                      metrics_path=str(metrics))
    env = dict(os.environ,
               PYTHONPATH=str(Path(tr.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_AFTER_CHECKPOINT_CHILD,
         json.dumps([cfg.to_dict(), 19])],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert tz.load_checkpoint(cfg.checkpoint_path).train_state["step"] == 19

    cfg.resume_from = cfg.checkpoint_path
    assert tr.train(cfg).records == []
    assert [json.loads(line)["step"]
            for line in metrics.read_text().splitlines()] == list(range(20))


def test_failed_metrics_rewrite_keeps_the_old_log(tmp_path,
                                                 fail_writes_after):
    log = tmp_path / "metrics.jsonl"
    log.write_text("".join(json.dumps({"step": k}) + "\n" for k in range(8))
                   + '{"step": 8', encoding="utf-8")
    before = log.read_bytes()
    fail_writes_after(20)
    with pytest.raises(OSError, match="disk full"):
        tr._truncate_metrics(log, 4)
    assert log.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.jsonl"]


@pytest.fixture(scope="module")
def mlm_checkpoint(small_store, word_vocab_path, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("resume")
    cfg = make_config(small_store, word_vocab_path, tmp,
                      checkpoint_interval=5 * 192)
    tr.train(cfg)
    return cfg.checkpoint_path


def test_resume_copies_into_the_model_and_optimizer_arrays(
        small_store, word_vocab_path, tmp_path, mlm_checkpoint, monkeypatch):
    # a resume that takes no step leaves every parameter and moment array
    # the one made with the model and the optimizer, with the checkpoint's
    # bits in it
    made = []
    real_init = tz.Adam.__init__

    def spy_init(optimizer, params, **kw):
        real_init(optimizer, params, **kw)
        made.append((optimizer, {k: p.data for k, p in params.items()},
                     dict(optimizer.m), dict(optimizer.v)))

    monkeypatch.setattr(tz.Adam, "__init__", spy_init)
    tr.train(make_config(small_store, word_vocab_path, tmp_path,
                         checkpoint_interval=5 * 192,
                         resume_from=mlm_checkpoint))
    [(optimizer, arrays, m, v)] = made
    ck = tz.load_checkpoint(mlm_checkpoint)
    for name, p in optimizer.params.items():
        assert p.data is arrays[name] and p.node.data is p.data, name
        assert optimizer.m[name] is m[name], name
        assert optimizer.v[name] is v[name], name
        for got, want in ((p.data, ck.params), (m[name], ck.adam_m),
                          (v[name], ck.adam_v)):
            assert got.tobytes() == want[name].tobytes(), name
    assert optimizer.t == ck.adam_t


@pytest.mark.parametrize("field, value", [
    ("total_tokens", 20 * 8 * 24), ("tasks", ["so", "mlm"]),
    ("strategy", "alt"), ("batch_size", 16), ("max_seq_len", 32),
    ("seed", 1), ("layers", 2), ("hidden", 16), ("heads", 4),
    ("dropout", 0.2), ("task_vocab", 8), ("base_lr", 2e-3),
    ("warmup_frac", 0.2),
])
def test_resume_under_changed_config_refused(small_store, word_vocab_path,
                                             tmp_path, mlm_checkpoint,
                                             field, value):
    cfg = make_config(small_store, word_vocab_path, tmp_path,
                      resume_from=mlm_checkpoint, **{field: value})
    with pytest.raises(tr.TrainingError, match=f"written with {field}="):
        tr.train(cfg)
    assert not (tmp_path / "ck.mtpt").exists()


def test_resume_refuses_schedule_change_naming_first_field(
        small_store, word_vocab_path, tmp_path, mlm_checkpoint):
    cfg = make_config(small_store, word_vocab_path, tmp_path,
                      resume_from=mlm_checkpoint, tasks=["so", "mlm"],
                      strategy="alt", total_tokens=20 * 8 * 24)
    with pytest.raises(tr.TrainingError, match="total_tokens=1920"):
        tr.train(cfg)


def test_resume_requires_optimizer_state(small_store, word_vocab_path,
                                         tmp_path):
    cfg = make_config(small_store, word_vocab_path, tmp_path)
    vocab = load_vocab(cfg.vocab)
    model = tr.build_model(cfg, vocab, 1)
    bare = tmp_path / "bare.mtpt"
    bare.write_bytes(arrayfile.pack(
        tz.CHECKPOINT_MAGIC, tz.CHECKPOINT_VERSION,
        {"config": {}, "train_state": {"step": 0, "tokens_seen": 192},
         "params": list(model.params), "adam_t": 0},
        [p.data.astype("<f4") for p in model.params.values()]))
    cfg2 = make_config(small_store, word_vocab_path, tmp_path,
                       resume_from=str(bare))
    with pytest.raises(tz.CheckpointError, match=r"bare\.mtpt: the parameter "
                                                 r"list, adam_t or the data"):
        tr.train(cfg2)


def test_non_finite_loss_aborts_with_step(small_store, word_vocab_path,
                                          tmp_path, monkeypatch):
    def poisoned(loss_map, tasks):
        return tz.constant(np.array(np.nan, dtype=np.float32))

    monkeypatch.setattr(tr.ls, "combine_losses", poisoned)
    cfg = make_config(small_store, word_vocab_path, tmp_path)
    with pytest.raises(tr.TrainingError, match="step 0"):
        tr.train(cfg)


def test_step_graph_is_freed_before_the_update_and_the_next_forward(
        small_store, word_vocab_path, tmp_path, monkeypatch):
    # only the step's loss floats outlive its backward
    graphs, alive = [], []
    real_losses, real_step = tr.ls.batch_losses, tz.Adam.step

    def check(where):
        if graphs:
            alive.append((where, len(graphs[-1] & oracles.live_node_ids())))

    def spy_losses(model, batch, rng=None):
        check("forward")
        loss_map = real_losses(model, batch, rng=rng)
        graphs.append(oracles.graph_ids(loss_map.values()))
        return loss_map

    def spy_step(optimizer, lr):
        check("update")
        real_step(optimizer, lr)

    monkeypatch.setattr(tr.ls, "batch_losses", spy_losses)
    monkeypatch.setattr(tz.Adam, "step", spy_step)
    tr.train(make_config(small_store, word_vocab_path, tmp_path,
                         total_tokens=3 * 8 * 24))
    assert len(graphs) == 3 and all(graphs)
    assert alive == [("update", 0), ("forward", 0)] * 2 + [("update", 0)]


def test_vocab_hash_mismatch_refused(small_store, tmp_path):
    other = tmp_path / "other_vocab.txt"
    words = [f"w{i:02d}" for i in range(70)]
    other.write_text("\n".join(list(SPECIAL_TOKENS) + words) + "\n")
    cfg = tr.TrainConfig(corpus=str(small_store), vocab=str(other),
                         total_tokens=8 * 24, batch_size=8, max_seq_len=24)
    with pytest.raises(CorpusError, match="vocabulary"):
        tr.train(cfg)


# ------------------------------------------------------------------- probe

def test_probe_untrained_head_near_chance(small_store, word_vocab_path,
                                          tmp_path):
    cfg = make_config(small_store, word_vocab_path, tmp_path, max_seq_len=32)
    vocab = load_vocab(cfg.vocab)
    reader = load_corpus(cfg.corpus)
    model = tr.build_model(cfg, vocab, 1)
    spec = tr.ProbeSpec(n_train_batches=2, n_eval_batches=4, batch_size=16,
                        max_seq_len=32, epochs=0)
    acc = tr.evaluate_probe(model, reader, vocab, spec)
    assert 0.3 < acc < 0.7


def test_probe_is_deterministic(small_store, word_vocab_path, tmp_path):
    cfg = make_config(small_store, word_vocab_path, tmp_path, max_seq_len=32)
    vocab = load_vocab(cfg.vocab)
    reader = load_corpus(cfg.corpus)
    model = tr.build_model(cfg, vocab, 1)
    spec = tr.ProbeSpec(n_train_batches=2, n_eval_batches=2, batch_size=16,
                        max_seq_len=32, epochs=2, seed=5)
    assert tr.evaluate_probe(model, reader, vocab, spec) \
        == tr.evaluate_probe(model, reader, vocab, spec)


def test_probe_features_match_the_full_last_layer(
        small_store, word_vocab_path, tmp_path, float64_mode,
        spy_encode_rows, monkeypatch):
    # the probe runs the last layer at the [CLS] rows only, on each batch
    # cut to its longest row; in float64 its features equal those of the
    # full layer over the full-width batches
    cfg = make_config(small_store, word_vocab_path, tmp_path,
                      max_seq_len=32, layers=2)
    vocab = load_vocab(cfg.vocab)
    reader = load_corpus(cfg.corpus)
    model = tr.build_model(cfg, vocab, 1)
    spec = tr.ProbeSpec(n_train_batches=2, n_eval_batches=2,
                        batch_size=16, max_seq_len=32)
    real = model.encode
    seen = spy_encode_rows(model)
    x_cls, y_cls = tr._probe_features(model, reader, vocab, spec, 2, 0)
    assert [cls_only for cls_only, _ in seen] == [True, True]
    assert max(w for _, w in seen) < 32
    model.encode = lambda x, mask, rng=None, cls_only=False: real(x, mask)
    monkeypatch.setattr(tr, "trim", lambda batch: batch)
    x_full, y_full = tr._probe_features(model, reader, vocab, spec, 2, 0)
    assert np.array_equal(y_cls, y_full)
    np.testing.assert_allclose(x_cls, x_full, rtol=0, atol=1e-12)

