import hashlib
import math
import weakref

import numpy as np
import pytest

import oracles
from mtpretrain import losses as ls
from mtpretrain import tensor as tz
from mtpretrain.model import (HEADS, Model, ModelConfig, param_shapes,
                              truncated_normal)
from mtpretrain.tasks import TaskError, canonical_task


class FakeBatch:
    """Minimal stand-in for a training batch in head-level tests."""

    def __init__(self, input_ids, type_ids=None, task_id=0,
                 attention_mask=None, labels=None):
        ids = np.asarray(input_ids, dtype=np.int64)
        self.input_ids = ids
        self.type_ids = (np.zeros_like(ids) if type_ids is None
                         else np.asarray(type_ids, dtype=np.int64))
        self.task_id = task_id
        self.attention_mask = (np.ones(ids.shape, dtype=bool)
                               if attention_mask is None else attention_mask)
        self.labels = labels if labels is not None else {}


def small_model(vocab=20, layers=2, hidden=16, heads=2, seq=12,
                dropout=0.0, seed=0):
    cfg = ModelConfig(vocab=vocab, layers=layers, hidden=hidden, heads=heads,
                      max_seq_len=seq, task_vocab=4, dropout=dropout)
    return Model(cfg, np.random.default_rng(seed)), cfg


# ------------------------------------------------------------- parameters

def test_parameter_count_reference_scale():
    cfg = ModelConfig(vocab=30522, layers=12, hidden=768, heads=12,
                      max_seq_len=512, task_vocab=16)
    total = sum(math.prod(shape) for _, shape in param_shapes(cfg))
    assert total == 111_356_557
    assert abs(total - 110_000_000) / 110_000_000 < 0.02


# sha256 over the name, dtype, shape and bytes of every parameter in order,
# and the parameter count, for two configs at rng [0, 1]; pinned before the
# head table replaced the hand-written init, which had to keep them
GOLDEN_INIT = [
    (dict(vocab=89, layers=2, hidden=32, heads=2, max_seq_len=24),
     "58396be4e067eafdf80982b568d7757c829404f79258824e6665843799c87b49",
     35307),
    (dict(vocab=89, layers=1, hidden=16, heads=1),
     "8e0fcdf8675216fe9ea1ec090831f604de4e8b7be02cd2cf9a75bafe93fe2fed",
     8971),
]


@pytest.mark.parametrize("kwargs,digest,count", GOLDEN_INIT)
def test_golden_init_digest(kwargs, digest, count):
    cfg = ModelConfig(**kwargs)
    model = Model(cfg, np.random.default_rng([0, 1]))
    h = hashlib.sha256()
    for name, p in model.params.items():
        arr = np.ascontiguousarray(p.data)
        h.update(f"{name}{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == digest
    assert sum(p.data.size for p in model.params.values()) == count


def test_head_table_covers_every_task():
    # the table's keys are the task list: each is a canonical task name
    assert len(HEADS) == 15
    assert [canonical_task(t.upper()) for t in HEADS] == list(HEADS)


def test_dense_head_output_widths():
    # the class count of each classification head, 1 for each regression
    widths = {"tf": 1, "tfidf": 1, "tlp": 1, "cap": 2, "tcp": 2, "tgs": 6,
              "nsp": 2, "asp": 3, "so": 2, "sdp": 3, "scp": 2}
    shapes = dict(param_shapes(ModelConfig(vocab=20, hidden=16)))
    assert {t for t, head in HEADS.items() if head.outputs} == set(widths)
    assert {t: shapes[f"heads.{t}.weight"][1] for t in widths} == widths
    assert {t: shapes[f"heads.{t}.bias"] for t in widths} == {
        t: (k,) for t, k in widths.items()}


def test_truncated_normal_bounds():
    rng = np.random.default_rng(0)
    vals = truncated_normal(rng, (4000,), std=0.02)
    assert np.abs(vals).max() <= 0.04
    assert abs(vals.mean()) < 0.002


def test_initialization_conventions():
    model, _ = small_model()
    for name, p in model.params.items():
        if name.endswith(".gamma"):
            assert np.all(p.data == 1.0), name
        elif name.endswith((".bias", ".beta", "vocab_bias")):
            assert np.all(p.data == 0.0), name
        else:
            assert np.abs(p.data).max() <= 0.04, name


def test_decay_exempts_exactly_the_constant_initialized_parameters():
    # Adam's weight decay skips every bias and norm parameter, the ones
    # initialized to 0 or 1, the vocabulary biases included
    model, _ = small_model()
    exempt = {name for name in model.params if not tz.decays(name)}
    constant = {name for name, p in model.params.items()
                if np.all(p.data == 0.0) or np.all(p.data == 1.0)}
    assert exempt == constant
    assert {"heads.mlm.vocab_bias", "heads.sbo.vocab_bias"} <= exempt


def test_init_deterministic_given_rng_seed():
    m1, _ = small_model(seed=3)
    m2, _ = small_model(seed=3)
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)


def test_load_values_roundtrip_and_mismatch():
    # the values are copied into each parameter's own array, the one its
    # node refers to, in its dtype
    m1, _ = small_model(seed=1)
    m2, _ = small_model(seed=2)
    arrays = {k: p.data for k, p in m2.params.items()}
    m2.load_values({k: p.data.astype(np.float64)
                    for k, p in m1.params.items()})
    for name, p in m2.params.items():
        assert p.data is arrays[name] and p.node.data is p.data, name
        assert p.data.tobytes() == m1.params[name].data.tobytes(), name
    with pytest.raises(ValueError):
        m2.load_values({"embeddings.token": np.zeros((3, 3))})


def test_config_validation_and_roundtrip():
    with pytest.raises(ValueError):
        ModelConfig(vocab=10, hidden=30, heads=4)
    cfg = ModelConfig(vocab=10, hidden=32, heads=4, dropout=0.2)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    # configs written when the type table size was a field still load
    assert ModelConfig.from_dict({**cfg.to_dict(), "type_vocab": 2}) == cfg


@pytest.mark.parametrize("bad", [
    {"heads": 0}, {"heads": -2}, {"hidden": 0}, {"layers": -1},
    {"dropout": 1.0}, {"dropout": 1.5}, {"dropout": -0.1},
    {"dropout": float("nan")}])
def test_config_refuses_impossible_sizes_and_rates(bad):
    with pytest.raises(ValueError):
        ModelConfig(**{"vocab": 10, "hidden": 8, "heads": 2, **bad})


# ---------------------------------------------------------------- forward

def test_embed_shape_and_standardization():
    model, cfg = small_model()
    rng = np.random.default_rng(5)
    batch = FakeBatch(rng.integers(0, cfg.vocab, size=(3, 8)))
    x = model.embed(batch)
    assert x.shape == (3, 8, cfg.hidden)
    # layer norm with unit gamma / zero beta standardizes each position
    assert np.allclose(x.data.mean(axis=-1), 0.0, atol=1e-5)
    assert np.allclose(x.data.var(axis=-1), 1.0, atol=1e-4)


def test_embed_range_errors():
    model, cfg = small_model()
    with pytest.raises(ValueError):
        model.embed(FakeBatch([[0, cfg.vocab]]))
    with pytest.raises(ValueError):
        model.embed(FakeBatch([[0, 1]], task_id=99))
    with pytest.raises(ValueError):
        model.embed(FakeBatch([[0, 1]], type_ids=[[0, 5]]))
    with pytest.raises(ValueError):
        model.embed(FakeBatch(np.zeros((1, cfg.max_seq_len + 1), dtype=int)))


def test_masked_positions_cannot_influence_attended_ones():
    model, cfg = small_model()
    rng = np.random.default_rng(7)
    ids = rng.integers(5, cfg.vocab, size=(2, 8))
    mask = np.ones((2, 8), dtype=bool)
    mask[:, 5:] = False
    ids_b = ids.copy()
    ids_b[:, 5:] = rng.integers(5, cfg.vocab, size=(2, 3))
    x = model.embed(FakeBatch(ids, attention_mask=mask))
    out_a = model.encode(x, mask)
    out_b = model.encode(model.embed(FakeBatch(ids_b, attention_mask=mask)), mask)
    # flat rows, one per slot in row order
    assert out_a.shape == (2 * 8, cfg.hidden)
    grid_a = out_a.data.reshape(2, 8, -1)
    grid_b = out_b.data.reshape(2, 8, -1)
    assert np.array_equal(grid_a[:, :5], grid_b[:, :5])
    assert not np.array_equal(grid_a[:, 5:], grid_b[:, 5:])
    np.testing.assert_array_equal(model.cls_rows(out_a, 2).data, grid_a[:, 0])
    # the last layer at [CLS] only gives the full layer's [CLS] states
    cls = model.encode(x, mask, cls_only=True)
    assert cls.shape == (2, cfg.hidden)
    np.testing.assert_allclose(cls.data, grid_a[:, 0], rtol=0, atol=1e-5)
    np.testing.assert_array_equal(model.cls_rows(cls, 2).data, cls.data)


def test_attention_sees_unmasked_context():
    model, cfg = small_model()
    rng = np.random.default_rng(9)
    ids = rng.integers(5, cfg.vocab, size=(1, 8))
    ids_b = ids.copy()
    ids_b[0, 7] = (ids[0, 7] + 1) % cfg.vocab
    mask = np.ones((1, 8), dtype=bool)
    out_a = model.encode(model.embed(FakeBatch(ids)), mask)
    out_b = model.encode(model.embed(FakeBatch(ids_b)), mask)
    # a visible token change must propagate to every position
    assert not np.allclose(out_a.data[0], out_b.data[0])


def test_pool_reads_only_first_position():
    model, cfg = small_model()
    rng = np.random.default_rng(11)
    base = rng.normal(size=(2, 6, cfg.hidden))
    changed = base.copy()
    changed[:, 1:] += 1.0
    p1 = model.pool(tz.constant(base.reshape(12, -1)), 2)
    p2 = model.pool(tz.constant(changed.reshape(12, -1)), 2)
    assert np.array_equal(p1.data, p2.data)
    assert np.all(np.abs(p1.data) <= 1.0)


def test_dropout_active_only_in_training():
    # dropout is on exactly when a generator is given
    model, cfg = small_model(dropout=0.5)
    batch = FakeBatch(np.arange(8).reshape(1, 8))
    x1 = model.embed(batch)
    x2 = model.embed(batch)
    assert np.array_equal(x1.data, x2.data)
    rng = np.random.default_rng(0)
    x3 = model.embed(batch, rng=rng)
    assert (x3.data == 0.0).mean() > 0.2


# ------------------------------------------------------------------ heads

def mlm_labels(positions, targets, seq):
    pos = np.asarray(positions, dtype=np.int64)
    return {
        "positions": pos,
        "targets": np.asarray(targets, dtype=np.int64),
        "left": pos - np.array([0, 1]),
        "right": pos + np.array([0, 1]),
    }


def encoded(model, batch):
    return model.encode(model.embed(batch), batch.attention_mask)


def mean_ce(logits, targets):
    """Mean cross-entropy of numpy logits against integer targets."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(z)), np.asarray(targets)].mean()


def test_mlm_and_sbo_heads_score_the_tied_table_and_their_own_bias():
    model, cfg = small_model()
    ids = np.arange(10).reshape(1, 10) % cfg.vocab
    batch = FakeBatch(ids, labels={"mlm": mlm_labels([[0, 2], [0, 5]], [3, 4], 10)})
    table = model.params["embeddings.token"]
    for task, other in (("mlm", "sbo"), ("sbo", "mlm")):
        for p in model.params.values():
            p.grad = None
        loss = model.head_forward(task, encoded(model, batch), batch, None)
        assert loss.shape == ()
        loss.backward()
        # ids 10..19 are not in the input: only the output projection
        # reads their rows
        assert np.abs(table.grad[10:]).sum(axis=1).min() > 0, task
        assert model.params[f"heads.{task}.vocab_bias"].grad is not None
        assert model.params[f"heads.{other}.vocab_bias"].grad is None


def test_mlm_logits_tied_to_token_table():
    model, cfg = small_model()
    ids = np.arange(10).reshape(1, 10) % cfg.vocab
    batch = FakeBatch(ids, labels={"mlm": mlm_labels([[0, 2]], [3], 10)})
    batch.task_set = ("mlm",)
    table = model.params["embeddings.token"]
    before = ls.batch_losses(model, batch)["mlm"]
    before.backward()
    # ids 10..19 are not in the input: only the output projection reads
    # their rows, so their gradient is the tie's alone
    assert np.abs(table.grad[10:]).sum(axis=1).min() > 0
    table.data *= 2.0
    after = ls.batch_losses(model, batch)["mlm"]
    assert after.item() != pytest.approx(before.item())


def test_token_heads_score_every_weighted_slot(float64_mode):
    # the loss over the (B*L, H) rows is the weighted squared error of one
    # output per slot, or the cross-entropy over each head's classes at
    # the slots with positive weight
    model, cfg = small_model()
    rng = np.random.default_rng(4)
    weights = (rng.random((2, 6)) < 0.6).astype(float)
    labels = {t: {"values": rng.normal(size=(2, 6)), "weights": weights}
              for t in ("tf", "tfidf", "tlp")}
    labels.update({t: {"labels": rng.integers(0, 2, size=(2, 6)),
                       "weights": weights} for t in ("cap", "tcp")})
    batch = FakeBatch(np.zeros((2, 6), dtype=int), labels=labels)
    rows = tz.constant(rng.normal(size=(12, cfg.hidden)))
    sel, p = weights.reshape(-1) > 0, model.params
    for task, lab in labels.items():
        out = rows.data @ p[f"heads.{task}.weight"].data \
            + p[f"heads.{task}.bias"].data
        if "values" in lab:
            want = (((out[:, 0] - lab["values"].reshape(-1)) ** 2)
                    * weights.reshape(-1)).sum() / weights.sum()
        else:
            assert out.shape == (12, 2)
            want = mean_ce(out[sel], lab["labels"].reshape(-1)[sel])
        got = model.head_forward(task, rows, batch, None).item()
        assert got == pytest.approx(want, rel=1e-12), task


def test_tgs_head_reads_only_the_rows_with_a_trigram(float64_mode):
    model, cfg = small_model()
    starts, labels = np.array([-1, 2, 4]), np.array([0, 3, 5])
    batch = FakeBatch(np.zeros((3, 8), dtype=int), labels={
        "tgs": {"starts": starts, "labels": labels}})
    rows = tz.parameter(np.random.default_rng(6).normal(size=(24, cfg.hidden)))
    loss = model.head_forward("tgs", rows, batch, None)
    loss.backward()
    read = [8 * r + s + j for r, s in ((1, 2), (2, 4)) for j in range(3)]
    assert set(np.nonzero(np.abs(rows.grad).sum(axis=1))[0]) == set(read)
    feats = rows.data[read].reshape(2, 3 * cfg.hidden)
    logits = feats @ model.params["heads.tgs.weight"].data \
        + model.params["heads.tgs.bias"].data
    assert logits.shape == (2, 6)
    assert loss.item() == pytest.approx(mean_ce(logits, [3, 5]),
                                        rel=1e-12)


def test_tgs_without_trigrams_is_zero_loss_with_no_gradient():
    model, cfg = small_model()
    grid = np.ones((2, 8))
    batch = FakeBatch(np.zeros((2, 8), dtype=int), labels={
        "tgs": {"starts": np.array([-1, -1]), "labels": np.array([0, 0])},
        "tf": {"values": grid, "weights": grid}})
    batch.task_set = ("tgs", "tf")
    out = ls.batch_losses(model, batch)
    assert out["tgs"].item() == 0.0
    ls.combine_losses(out, batch.task_set).backward()
    assert model.params["heads.tf.weight"].grad is not None
    assert all(p.grad is None for name, p in model.params.items()
               if name.startswith("heads.tgs."))


def test_sentence_heads_read_the_pooled_rows_only(float64_mode):
    model, cfg = small_model()
    rng = np.random.default_rng(8)
    for task, k in (("nsp", 2), ("asp", 3), ("so", 2), ("sdp", 3),
                    ("scp", 2)):
        labels = rng.integers(0, k, size=4)
        batch = FakeBatch(np.zeros((4, 6), dtype=int), labels={task: labels})
        rows = tz.parameter(rng.normal(size=(24, cfg.hidden)))
        pooled = tz.parameter(rng.normal(size=(4, cfg.hidden)))
        loss = model.head_forward(task, rows, batch, pooled)
        loss.backward()
        assert rows.grad is None and pooled.grad is not None, task
        logits = pooled.data @ model.params[f"heads.{task}.weight"].data \
            + model.params[f"heads.{task}.bias"].data
        assert logits.shape == (4, k)
        assert loss.item() == pytest.approx(mean_ce(logits, labels),
                                            rel=1e-12), task


def test_similarity_heads_score_the_raw_cls_rows():
    model, cfg = small_model()
    batch = FakeBatch(np.zeros((4, 6), dtype=int))
    batch.special_mask = np.zeros((4, 6), dtype=bool)
    batch.special_mask[:, [0, 5]] = True
    rows = encoded(model, batch)
    cls = tz.constant(rows.data[::6])
    assert model.head_forward("qt", rows, batch, None).item() \
        == ls.loss_qt(cls).item()
    content = ~batch.special_mask
    assert model.head_forward("fs", rows, batch, None).item() \
        == ls.loss_fs(cls, tz.constant(rows.data), content).item()


def test_missing_labels_error_names_task():
    model, cfg = small_model()
    batch = FakeBatch(np.zeros((2, 6), dtype=int))
    rows = encoded(model, batch)
    for task in ("mlm", "sbo", "tf", "tgs", "nsp", "so"):
        with pytest.raises(TaskError, match=task):
            model.head_forward(task, rows, batch, None)
    with pytest.raises(TaskError):
        model.head_forward("nonsense", rows, batch, None)


def test_batch_losses_refuses_unknown_task_by_name():
    model, cfg = small_model()
    grid = np.ones((2, 6))
    batch = FakeBatch(np.zeros((2, 6), dtype=int),
                      labels={"tf": {"values": grid, "weights": grid}})
    batch.task_set = ("tf", "nonsense")
    with pytest.raises(TaskError, match="nonsense"):
        ls.batch_losses(model, batch)


# ------------------------- last layer at head rows, up to the longest row

#: the tasks whose heads read only the [CLS] row of each batch row
CLS_TASKS = {"nsp", "asp", "so", "sdp", "scp", "qt"}


def full_layer_losses(model, batch):
    """batch_losses' forward with the last layer run at every row of the
    full-width batch, trailing pad columns included."""
    rows = model.encode(model.embed(batch), batch.attention_mask)
    pooled = model.pool(rows, len(batch.input_ids))
    return {t: model.head_forward(t, rows, batch, pooled)
            for t in batch.task_set}


def loss_and_grads(model, losses, names):
    for p in model.params.values():
        p.grad = None
    total = ls.combine_losses(losses, names)
    total.backward()
    return total.item(), {k: p.grad for k, p in model.params.items()}


def _equivalence_sets():
    from mtpretrain.cli import GRADCHECK_SETS
    from test_taskbuild import GOLDEN_SETS
    sets = [(t,) for t in HEADS] + GRADCHECK_SETS + GOLDEN_SETS
    return list(dict.fromkeys(tuple(s) for s in sets))


@pytest.mark.parametrize("layers", [2, 0], ids=lambda n: f"layers{n}")
@pytest.mark.parametrize("task_set", _equivalence_sets(), ids=",".join)
def test_last_layer_at_head_rows_matches_full_layer(
        task_set, layers, small_reader, word_vocab, float64_mode,
        spy_encode_rows):
    from mtpretrain.taskbuild import assemble_batch
    cfg = ModelConfig(vocab=len(word_vocab), layers=layers, hidden=16,
                      heads=2, max_seq_len=24, task_vocab=4, dropout=0.0)
    model = Model(cfg, np.random.default_rng(3))
    batch = assemble_batch(small_reader, word_vocab, task_set, 8, 24,
                           seed=2, step=1)
    # the forward runs up to the longest row, short of the batch's width
    w = int(batch.attention_mask.sum(axis=1).max())
    assert w < 24
    seen = spy_encode_rows(model)
    pruned = ls.batch_losses(model, batch)
    loss, grads = loss_and_grads(model, pruned, task_set)
    assert seen == [(set(task_set) <= CLS_TASKS, w)]
    ref = full_layer_losses(model, batch)
    ref_loss, ref_grads = loss_and_grads(model, ref, task_set)
    for t in task_set:
        assert abs(pruned[t].item() - ref[t].item()) <= 1e-12, t
    assert abs(loss - ref_loss) <= 1e-12
    for name, g in grads.items():
        assert (g is None) == (ref_grads[name] is None), name
        if g is not None:
            np.testing.assert_allclose(g, ref_grads[name], rtol=0,
                                       atol=1e-12, err_msg=name)


def test_check_gradients_matches_the_per_entry_oracle(
        small_reader, word_vocab, float64_mode):
    # over every gradcheck set the joint probe of the unreached parameters
    # and the replayed differences give the per-entry check's result and
    # leave rng where it leaves it
    from mtpretrain.cli import GRADCHECK_SETS
    from mtpretrain.taskbuild import assemble_batch
    model, _ = small_model(vocab=len(word_vocab), layers=1, seq=24)
    rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
    for k, task_set in enumerate(GRADCHECK_SETS):
        batch = assemble_batch(small_reader, word_vocab, task_set, 8, 24,
                               seed=4, step=k)
        calls = []

        def loss_fn():
            calls.append(1)
            return ls.combine_losses(ls.batch_losses(model, batch), task_set)

        want = oracles.check_gradients_per_entry(
            loss_fn, model.params, max_entries=1, rng=rng_old)
        calls.clear()
        got = tz.check_gradients(loss_fn, model.params, max_entries=1,
                                 rng=rng_new)
        assert got == want, task_set
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        reached = sum(p.grad is not None for p in model.params.values())
        assert reached < len(model.params), task_set
        assert len(calls) == 1 + 1 + 1 + 2 * reached, task_set


VOCAB_TASKS = {"mlm", "sbo"}


def composed_vocab_cross_entropy(states, table, bias, targets):
    return tz.cross_entropy(tz.linear(states, table.transpose(), bias),
                            targets)


def composed_vocab_losses(model, batch, monkeypatch):
    """batch_losses' forward with mlm and sbo scored through the whole
    (n, V) logits: linear over the transposed table, then cross_entropy."""
    rows = model.encode(model.embed(batch), batch.attention_mask)
    pooled = model.pool(rows, len(batch.input_ids))
    with monkeypatch.context() as m:
        m.setattr(tz, "vocab_cross_entropy", composed_vocab_cross_entropy)
        return {t: model.head_forward(t, rows, batch, pooled)
                for t in batch.task_set}


def equivalence_model_and_batch(task_set, reader, vocab):
    from mtpretrain.taskbuild import assemble_batch
    cfg = ModelConfig(vocab=len(vocab), layers=2, hidden=16, heads=2,
                      max_seq_len=24, task_vocab=4, dropout=0.0)
    model = Model(cfg, np.random.default_rng(3))
    batch = assemble_batch(reader, vocab, task_set, 8, 24, seed=2, step=1)
    return model, batch


@pytest.mark.parametrize(
    "task_set", [s for s in _equivalence_sets() if VOCAB_TASKS & set(s)],
    ids=",".join)
def test_vocab_loss_matches_linear_and_cross_entropy(
        task_set, small_reader, word_vocab, float64_mode, monkeypatch):
    model, batch = equivalence_model_and_batch(task_set, small_reader,
                                               word_vocab)
    fused = ls.batch_losses(model, batch)
    loss, grads = loss_and_grads(model, fused, task_set)
    ref = composed_vocab_losses(model, batch, monkeypatch)
    ref_loss, ref_grads = loss_and_grads(model, ref, task_set)
    for t in task_set:
        assert abs(fused[t].item() - ref[t].item()) <= 1e-12, t
    assert abs(loss - ref_loss) <= 1e-12
    for name, g in grads.items():
        assert (g is None) == (ref_grads[name] is None), name
        if g is not None:
            np.testing.assert_allclose(g, ref_grads[name], rtol=0,
                                       atol=1e-12, err_msg=name)


# ------------------------------------------------ forward up to the longest row

def test_full_width_batch_reaches_the_forward_uncopied(small_reader,
                                                       word_vocab):
    from mtpretrain.taskbuild import trim
    model, batch = equivalence_model_and_batch(
        ("mlm", "sbo", "tcp", "scp", "tgs", "cap", "tfidf", "tlp"),
        small_reader, word_vocab)
    full = trim(batch)  # its longest row fills its width
    seen = []
    real = model.embed
    model.embed = lambda b, rng=None: seen.append(b) or real(b, rng=rng)
    ls.batch_losses(model, full)
    ls.batch_losses(model, batch)
    assert seen[0] is full
    assert seen[1] is not batch
    assert seen[1].input_ids.shape == full.input_ids.shape


def held_arrays(node):
    """The node's value, if anything still holds it, and every array its
    backward closure holds."""
    yield node.data
    for cell in node.backward.__closure__ or ():
        if isinstance(cell.cell_contents, np.ndarray):
            yield cell.cell_contents


def test_no_vocab_sized_array_outlives_the_forward(small_reader, word_vocab):
    task_set = ("mlm", "sbo")
    model, batch = equivalence_model_and_batch(task_set, small_reader,
                                               word_vocab)
    v, h = model.config.vocab, model.config.hidden
    n = len(batch.labels["mlm"]["targets"])
    b, seq = batch.input_ids.shape
    assert v not in (n, b, seq, b * seq, h, 2 * h, 4 * h, 2, h // 2)
    total = ls.combine_losses(ls.batch_losses(model, batch), task_set)
    seen, stack, non_leaf = {id(total.node)}, [total.node], 0
    while stack:
        node = stack.pop()
        if node.parents:
            non_leaf += 1
            for arr in held_arrays(node):
                # the table's and the bias's gradients are the only
                # vocabulary-sized arrays a node may keep
                assert v not in arr.shape or arr.shape in ((v, h), (v,)), \
                    arr.shape
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    assert non_leaf > 20
    assert id(model.params["embeddings.token"].node) in seen


def test_no_encoder_node_outlives_the_walk_past_it(small_reader, word_vocab,
                                                  monkeypatch):
    # by the time the token embedding's backward runs, backward has freed
    # every encoder-layer node, though the caller still holds the loss
    task_set = ("mlm", "sbo", "tgs")
    model, batch = equivalence_model_and_batch(task_set, small_reader,
                                               word_vocab)
    table = model.params["embeddings.token"]
    encoder, alive = set(), []
    real_index_rows, real_encode = tz.index_rows, model.encode

    def spy_index_rows(source, indices):
        out = real_index_rows(source, indices)
        if source is table:
            inner = out.node.backward

            def backward(g):
                alive.append(len(encoder & oracles.live_node_ids()))
                inner(g)

            out.node.backward = backward
        return out

    def spy_encode(x, *args, **kwargs):
        rows = real_encode(x, *args, **kwargs)
        encoder.update(oracles.graph_ids([rows]) - oracles.graph_ids([x]))
        return rows

    monkeypatch.setattr(tz, "index_rows", spy_index_rows)
    model.encode = spy_encode
    total = ls.combine_losses(ls.batch_losses(model, batch), task_set)
    assert len(encoder) > 20
    total.backward()
    assert alive == [0]
    assert total.parents == () and np.isfinite(total.item())


def test_forward_values_no_backward_reads_die_with_the_forward(
        small_reader, word_vocab, monkeypatch):
    # the embedding's partial sums, the residual sums only layer_norm
    # reads, the projection outputs only dropout reads and the ff.w1
    # outputs only gelu reads are gone once the forward returns, though
    # the caller holds the loss and its graph
    from mtpretrain.taskbuild import assemble_batch
    task_set = ("mlm", "sbo", "so")
    cfg = ModelConfig(vocab=len(word_vocab), layers=2, hidden=16, heads=2,
                      max_seq_len=24, task_vocab=4, dropout=0.1)
    model = Model(cfg, np.random.default_rng(3))
    batch = assemble_batch(small_reader, word_vocab, task_set, 8, 24,
                           seed=2, step=1)
    refs, inside = [], []
    real_add, real_rows, real_dropout, real_gelu = (
        tz.Tensor.__add__, tz.index_rows, tz.dropout, tz.gelu)

    def spy_add(a, b):
        out = real_add(a, b)
        if inside:
            refs.append(weakref.ref(out.data))
        return out

    def spy_index_rows(table, indices):
        out = real_rows(table, indices)
        if inside:
            refs.append(weakref.ref(out.data))
        return out

    def spy_dropout(x, p, rng):
        if inside:
            refs.append(weakref.ref(x.data))
        return real_dropout(x, p, rng)

    def spy_gelu(x):
        if inside:
            refs.append(weakref.ref(x.data))
        return real_gelu(x)

    def spy(real):
        def method(*args, **kwargs):
            inside.append(real)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()
        return method

    monkeypatch.setattr(tz.Tensor, "__add__", spy_add)
    monkeypatch.setattr(tz, "index_rows", spy_index_rows)
    monkeypatch.setattr(tz, "dropout", spy_dropout)
    monkeypatch.setattr(tz, "gelu", spy_gelu)
    model.embed, model.encode = spy(model.embed), spy(model.encode)
    total = ls.combine_losses(
        ls.batch_losses(model, batch, rng=np.random.default_rng(5)), task_set)
    # embed: three tables gathered, three sums and a dropout; each layer
    # two residual sums, two dropouts and a gelu
    assert len(refs) == 7 + 5 * cfg.layers
    assert [i for i, ref in enumerate(refs) if ref() is not None] == []
    total.backward()
    assert np.isfinite(total.item())
    assert model.params["embeddings.token"].grad is not None


def test_empty_row_union_runs_and_gives_no_gradient(float64_mode,
                                                    spy_encode_rows):
    model, cfg = small_model()
    none = np.zeros((0, 2), dtype=np.int64)
    batch = FakeBatch(np.ones((2, 8), dtype=int), labels={
        "mlm": {"positions": none, "targets": np.zeros(0, dtype=np.int64),
                "left": none, "right": none},
        "tgs": {"starts": np.array([-1, -1]), "labels": np.array([0, 0])}})
    batch.task_set = ("mlm", "sbo", "tgs")
    seen = spy_encode_rows(model)
    out = ls.batch_losses(model, batch)
    assert seen == [(False, 8)]
    assert all(out[t].item() == 0.0 for t in batch.task_set)
    ls.combine_losses(out, batch.task_set).backward()
    assert all(p.grad is None for p in model.params.values())


def test_every_head_gathers_its_slots_through_slot_rows_in_one_call(
        small_reader, word_vocab, monkeypatch):
    # while a head runs, every index_rows call on a table with the encoder
    # rows' leading size (the rows, or a dense output over them) takes an
    # array that slot_rows returned; past the [CLS] rows of
    # Model.cls_rows, a head makes at most one such call
    from mtpretrain import model as md
    from mtpretrain.cli import GRADCHECK_SETS
    from mtpretrain.taskbuild import assemble_batch, slot_rows, trim
    model, _ = small_model(vocab=len(word_vocab), seq=24)
    real_index_rows, real_cls_rows = tz.index_rows, Model.cls_rows
    returned, gathers, in_cls, n_rows = [], [], [], []

    def spy_slot_rows(*args):
        returned.append(slot_rows(*args))
        return returned[-1]

    def spy_index_rows(table, indices):
        if table.shape[0] == n_rows[-1]:
            gathers.append((indices, bool(in_cls)))
        return real_index_rows(table, indices)

    def spy_cls_rows(self, rows, b):
        in_cls.append(True)
        try:
            return real_cls_rows(self, rows, b)
        finally:
            in_cls.pop()

    gatherers = set()
    for k, task_set in enumerate(GRADCHECK_SETS):
        batch = trim(assemble_batch(small_reader, word_vocab, task_set, 8,
                                    24, seed=4, step=k))
        rows = model.encode(model.embed(batch), batch.attention_mask)
        pooled = model.pool(rows, len(batch.input_ids))
        n_rows.append(rows.shape[0])
        with monkeypatch.context() as m:
            m.setattr(md, "slot_rows", spy_slot_rows)
            m.setattr(ls, "slot_rows", spy_slot_rows)
            m.setattr(tz, "index_rows", spy_index_rows)
            m.setattr(Model, "cls_rows", spy_cls_rows)
            for task in task_set:
                returned.clear()
                gathers.clear()
                model.head_forward(task, rows, batch, pooled)
                assert all(any(idx is out for out in returned)
                           for idx, _ in gathers), task
                slots = [idx for idx, cls in gathers if not cls]
                assert len(slots) <= 1, task
                if slots:
                    gatherers.add(task)
    assert gatherers == {"mlm", "sbo", "cap", "tcp", "tgs", "fs"}


# ------------------------------------------------ golden training bits

# sha256 over each gradcheck set's task losses and every parameter's
# gradient (name, then bytes; "-" for none), in order, for a float32 model
# with dropout on; a refactor of the forward or the heads must keep it
GOLDEN_TRAINING_BITS = \
    "f78907c91aec7829bd26430f004c5d64eef721781ab8700d5bc18ae9f01b9331"


def test_golden_loss_and_gradient_digest(small_reader, word_vocab):
    from mtpretrain.cli import GRADCHECK_SETS
    from mtpretrain.taskbuild import assemble_batch
    cfg = ModelConfig(vocab=len(word_vocab), layers=2, hidden=16, heads=2,
                      max_seq_len=24, task_vocab=4, dropout=0.1)
    model = Model(cfg, np.random.default_rng(3))
    assert model.params["embeddings.token"].data.dtype == np.float32
    rng = np.random.default_rng(11)
    h = hashlib.sha256()
    for k, task_set in enumerate(GRADCHECK_SETS):
        batch = assemble_batch(small_reader, word_vocab, task_set, 8, 24,
                               seed=5, step=k)
        for p in model.params.values():
            p.grad = None
        out = ls.batch_losses(model, batch, rng=rng)
        ls.combine_losses(out, task_set).backward()
        for t in task_set:
            h.update(t.encode() + np.ascontiguousarray(out[t].data).tobytes())
        for name, p in model.params.items():
            h.update(name.encode())
            h.update(b"-" if p.grad is None
                     else np.ascontiguousarray(p.grad).tobytes())
    assert h.hexdigest() == GOLDEN_TRAINING_BITS
