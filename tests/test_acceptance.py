"""End-to-end acceptance checks for the whole package.

Each test covers one numbered criterion and emits exactly one visible
PASS/FAIL line (written past the capture plugin so the line always shows
up in plain pytest output). Tolerances are pinned in the assertions.

The training criteria (7, 8, 9) run real optimization on the synthetic
chained-sentence corpus from conftest; together they take a few minutes.
"""

import math
import time

import numpy as np
import pytest

from conftest import synthetic_corpus_text
from mtpretrain import analysis as an
from mtpretrain import corpus as cp
from mtpretrain import scheduler as sch
from mtpretrain import tasks as tsk
from mtpretrain import taskbuild as tb
from mtpretrain import tensor as tz
from mtpretrain import trainer as tr
from mtpretrain.cli import GRADCHECK_SETS, bundled_demo_runs, main, run_gradcheck
from mtpretrain.model import HEADS, Model, ModelConfig
from mtpretrain.tokenizer import load_vocab
from oracles import brute_force_tf, brute_force_tfidf


@pytest.fixture
def report(capfd):
    """One visible PASS/FAIL line per criterion, bypassing capture."""

    def _report(num: int, title: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        line = f"criterion {num:>2} {status}: {title}"
        if detail:
            line += f" [{detail}]"
        with capfd.disabled():
            print(f"\n{line}", flush=True)
        assert passed, line

    return _report


# --------------------------------------------------------------------- 1

def test_criterion_01_staged_accounting(report, capfd):
    t0 = time.monotonic()
    code = main(["schedule", "--strategy", "cmtl", "--tasks", "4",
                 "--tokens", "200000"])
    out = capfd.readouterr().out
    rows_ok = (code == 0
               and "20,000" in out and "30,000" in out
               and "40,000" in out and "50,000" in out)
    alloc4 = sch.cmtl_allocation(4, 200_000, 1)
    table4 = alloc4.task_major()
    want4 = [[20_000, 10_000, 10_000, 10_000],
             [0, 30_000, 10_000, 10_000],
             [0, 0, 40_000, 10_000],
             [0, 0, 0, 50_000]]
    c = 10_000_000_000 // 12
    alloc3 = sch.cmtl_allocation(3, 10_000_000_000, 1)
    table3 = alloc3.task_major()
    want3 = [[2 * c, c, c],
             [0, 3 * c, c],
             [0, 0, 4 * c + 4]]
    elapsed = time.monotonic() - t0
    ok = rows_ok and table4 == want4 and table3 == want3 and elapsed < 1.0
    report(1, "staged schedule reproduces both reference tables", ok,
           f"4-task exact, 3-task remainder {alloc3.remainder}, "
           f"{elapsed:.2f}s")


# --------------------------------------------------------------------- 2

def test_criterion_02_run_table_statistics(report):
    t0 = time.monotonic()
    runs = an.load_runs_csv(bundled_demo_runs())
    rep = an.analyze_runs(runs, "mlm")
    stats = {label: (m, s, lp) for label, m, s, lp in rep.summaries}
    comps = {c.label: c for c in rep.comparisons}
    checks = [
        abs(stats["mlm"][0] - 78.13) < 0.005,
        abs(stats["nsp"][0] - 77.483) < 0.005,
        abs(stats["cmtl_plus"][0] - 80.60) < 0.005,
        abs(stats["mlm"][1] - 0.198) < 0.005,
        abs(stats["nsp"][1] - 0.222) < 0.005,
        abs(stats["cmtl_plus"][1] - 0.273) < 0.005,
        abs(comps["nsp"].p_corrected - 2.547e-03) < 2e-05,
        abs(comps["cmtl_plus"].p_corrected - 1.069e-06) < 1e-08,
        abs(stats["mlm"][2] - 0.712) < 0.05,
        abs(stats["nsp"][2] - 0.148) < 0.05,
        abs(stats["cmtl_plus"][2] - 0.659) < 0.05,
    ]
    elapsed = time.monotonic() - t0
    ok = all(checks) and elapsed < 30.0
    report(2, "demo run table reproduces its reference statistics", ok,
           f"p={comps['nsp'].p_corrected:.3e}/"
           f"{comps['cmtl_plus'].p_corrected:.3e}, {elapsed:.1f}s")


# --------------------------------------------------------------------- 3

def test_criterion_03_gradient_fidelity(report):
    t0 = time.monotonic()
    covered = set()
    for task_set in GRADCHECK_SETS:
        covered.update(task_set)
    worst = run_gradcheck(layers=2, hidden=32, heads=2, batch_size=8,
                          seq_len=24, seed=0, max_entries=2,
                          verbose=lambda *_: None)
    elapsed = time.monotonic() - t0
    ok = (covered == set(HEADS) and worst < 1e-4
          and elapsed < 300.0)
    report(3, "finite differences confirm every head's gradients", ok,
           f"max rel err {worst:.3e} over {len(HEADS)} heads, "
           f"{elapsed:.1f}s")


# --------------------------------------------------------------------- 4

def test_criterion_04_masking_statistics(report, small_reader, word_vocab):
    n_content = 0
    n_selected = 0
    n_mask = 0
    n_keep = 0
    for step in range(20):
        batch = tb.assemble_batch(small_reader, word_vocab, ("mlm",),
                                  32, 64, seed=400, step=step)
        content = batch.attention_mask & ~batch.special_mask
        n_content += int(content.sum())
        lab = batch.labels["mlm"]
        pos = lab["positions"]
        n_selected += pos.shape[0]
        inputs = batch.input_ids[pos[:, 0], pos[:, 1]]
        n_mask += int((inputs == word_vocab.mask_id).sum())
        n_keep += int((inputs == lab["targets"]).sum())
    sel_sigma = math.sqrt(n_content * 0.15 * 0.85)
    mask_sigma = math.sqrt(n_selected * 0.8 * 0.2)
    p_keep = 0.1 + 0.1 / len(word_vocab.sampleable_ids)
    keep_sigma = math.sqrt(n_selected * p_keep * (1 - p_keep))
    ok = (n_content >= 10_000
          and abs(n_selected - 0.15 * n_content) < 3 * sel_sigma
          and abs(n_mask - 0.8 * n_selected) < 3 * mask_sigma
          and abs(n_keep - p_keep * n_selected) < 3 * keep_sigma)
    report(4, "mask selection and 80/10/10 split within 3 sigma", ok,
           f"{n_selected}/{n_content} selected, "
           f"{n_mask}/{n_selected} masked")


# --------------------------------------------------------------------- 5

def test_criterion_05_frequency_oracle(report):
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(10):
        n_docs = int(rng.integers(2, 11))
        token_lists = [rng.integers(5, 105,
                                    size=int(rng.integers(5, 51))).tolist()
                       for _ in range(n_docs)]
        got_tf, got_tfidf = cp.score_segments(
            np.concatenate(token_lists), [len(t) for t in token_lists])
        at = 0
        for toks in token_lists:
            want_tf = brute_force_tf(toks)
            want_tfidf = brute_force_tfidf(toks, token_lists)
            for pos, t in enumerate(toks, at):
                worst = max(worst, abs(got_tf[pos] - want_tf[t]),
                            abs(got_tfidf[pos] - want_tfidf[t]))
            at += len(toks)
    ok = worst < 1e-9
    report(5, "tf and tf-idf match the brute-force oracle", ok,
           f"10 corpora, max abs diff {worst:.2e}")


# --------------------------------------------------------------------- 6

def test_criterion_06_compatibility_gate(report):
    rejected = False
    try:
        tsk.validate_compatibility(("so", "nsp"))
    except ValueError:
        rejected = True
    accepted = True
    try:
        tsk.validate_compatibility(("mlm", "qt", "so", "tfidf"))
    except ValueError:
        accepted = False
    ok = rejected and accepted
    report(6, "task compatibility gate rejects and accepts correctly", ok,
           "so+nsp rejected, mlm+qt+so+tfidf accepted")


# --------------------------------------------------------------------- 7

def _smoke_config(small_store, word_vocab_path, tmp_path, name, **kw):
    base = dict(
        corpus=str(small_store), vocab=str(word_vocab_path),
        total_tokens=200_000, tasks=["mlm"], strategy="sum",
        batch_size=32, max_seq_len=32, seed=0, layers=2, hidden=96,
        heads=4, dropout=0.0, task_vocab=16, base_lr=1.5e-3,
        warmup_frac=0.05, checkpoint_path=str(tmp_path / name))
    base.update(kw)
    return tr.TrainConfig(**base)


def test_criterion_07_learning_smoke(report, small_store, word_vocab_path,
                                     tmp_path):
    t0 = time.monotonic()
    cfg = _smoke_config(small_store, word_vocab_path, tmp_path, "c7a.mtpt")
    result = tr.train(cfg)
    curve = [r.losses["mlm"] for r in result.records]
    vocab_size = len(load_vocab(word_vocab_path).id_to_token)
    threshold = 0.8 * math.log(vocab_size)
    cfg2 = _smoke_config(small_store, word_vocab_path, tmp_path, "c7b.mtpt")
    curve2 = [r.losses["mlm"] for r in tr.train(cfg2).records]
    max_dev = max(abs(a - b) for a, b in zip(curve, curve2))
    elapsed = time.monotonic() - t0
    ok = (curve[-1] < threshold and curve[-1] < curve[9]
          and len(curve) == len(curve2) and max_dev < 1e-6
          and elapsed < 600.0)
    report(7, "single-task training learns and reruns identically", ok,
           f"final {curve[-1]:.4f} < {threshold:.4f}, step-10 {curve[9]:.4f}, "
           f"rerun dev {max_dev:.1e}, {elapsed:.0f}s")


# --------------------------------------------------------------------- 8

def test_criterion_08_multi_task_smoke(report, small_store,
                                       word_vocab_path, tmp_path):
    t0 = time.monotonic()
    cfg = _smoke_config(small_store, word_vocab_path, tmp_path, "c8.mtpt",
                        tasks=["mlm", "tfidf", "so", "qt"],
                        strategy="cmtl_plus", total_tokens=1_200_000)
    result = tr.train(cfg)
    records = result.records
    shared_everywhere = all("mlm" in r.losses for r in records)
    schedule = sch.make_schedule("cmtl_plus", cfg.tasks, cfg.total_tokens,
                                 cfg.batch_size * cfg.max_seq_len)
    accounting_ok = result.accounting == sch.token_accounting(schedule)
    drops = {}
    for aux in ("tfidf", "so", "qt"):
        active = [r.losses[aux] for r in records if aux in r.losses]
        head = float(np.mean(active[:10]))
        tail = float(np.mean(active[-10:]))
        drops[aux] = 1.0 - tail / head
    elapsed = time.monotonic() - t0
    ok = (shared_everywhere and accounting_ok
          and all(d >= 0.10 for d in drops.values())
          and elapsed < 1200.0)
    detail = ", ".join(f"{k} -{100 * v:.0f}%" for k, v in drops.items())
    report(8, "staged multi-task run completes with all losses improving",
           ok, f"{len(records)} steps, {detail}, {elapsed:.0f}s")


# --------------------------------------------------------------------- 9

def test_criterion_09_probe_directionality(report, small_store,
                                           word_vocab_path, word_vocab,
                                           tmp_path):
    t0 = time.monotonic()
    text = synthetic_corpus_text(seed=7, n_docs=40)
    blocks = [b for b in text.split("\n\n") if b.strip()]
    head_txt = tmp_path / "train_docs.txt"
    head_txt.write_text("\n\n".join(blocks[:30]) + "\n", encoding="utf-8")
    train_store = tmp_path / "train.mtpc"
    cp.build_corpus([head_txt], train_store, word_vocab)

    full = cp.load_corpus(small_store)
    train_reader = cp.load_corpus(train_store)
    assert len(train_reader.documents) == 30
    for i, doc in enumerate(train_reader.documents):
        assert np.array_equal(doc.token_ids, full.documents[i].token_ids)
    held_out = full.subset(range(30, 40))

    gaps = []
    for seed in (0, 1, 2):
        cfg = tr.TrainConfig(
            corpus=str(train_store), vocab=str(word_vocab_path),
            total_tokens=2400 * 32 * 32, tasks=["so"], strategy="sum",
            batch_size=32, max_seq_len=32, seed=seed, layers=2, hidden=64,
            heads=4, dropout=0.0, task_vocab=16, base_lr=1e-3,
            warmup_frac=0.1, checkpoint_path=str(tmp_path / f"c9_{seed}.mtpt"))
        result = tr.train(cfg)
        ck = tz.load_checkpoint(result.checkpoint_path)
        mc = ModelConfig.from_dict(ck.config["model"])
        trained = Model(mc, np.random.default_rng(0))
        trained.load_values(ck.params)
        fresh = Model(mc, np.random.default_rng([seed, 77]))
        spec = tr.ProbeSpec(seed=seed, max_seq_len=32)
        acc = tr.evaluate_probe(trained, held_out, word_vocab, spec)
        base = tr.evaluate_probe(fresh, held_out, word_vocab, spec)
        gaps.append(100.0 * (acc - base))
    mean_gap = float(np.mean(gaps))
    elapsed = time.monotonic() - t0
    ok = mean_gap >= 5.0
    report(9, "order pre-training beats random init on held-out probe", ok,
           f"gaps {', '.join(f'{g:+.1f}' for g in gaps)} pts, "
           f"mean {mean_gap:+.1f}, {elapsed:.0f}s")


# -------------------------------------------------------------------- 10

CONTINUATION_SETS = [("qt",), ("fs",), ("qt", "fs"),
                     ("mlm", "qt"), ("mlm", "so", "qt"), ("so", "qt")]


def test_criterion_10_batch_topology(report, small_reader, word_vocab):
    batch_size = 16
    half = batch_size // 2
    violations = 0
    checked = 0
    for step in range(1000):
        task_set = CONTINUATION_SETS[step % len(CONTINUATION_SETS)]
        batch = tb.assemble_batch(small_reader, word_vocab, task_set,
                                  batch_size, 40, seed=1000, step=step)
        if not batch.continuation_paired:
            violations += 1
            continue
        stream = batch.input_ids.copy()
        if "mlm" in batch.labels:
            lab = batch.labels["mlm"]
            stream[lab["positions"][:, 0],
                   lab["positions"][:, 1]] = lab["targets"]
        content = batch.attention_mask & ~batch.special_mask
        for r in range(batch_size):
            seg_a = stream[r][(batch.type_ids[r] == 0) & content[r]]
            seg_b = stream[r][(batch.type_ids[r] == 1) & content[r]]
            if "so" in batch.labels and batch.labels["so"][r] == 1:
                restored = np.concatenate([seg_b, seg_a])
            else:
                restored = np.concatenate([seg_a, seg_b])
            meta = batch.meta[r]
            source = small_reader.documents[meta.doc_index].token_ids[
                meta.token_start:meta.token_end]
            if not np.array_equal(restored, source):
                violations += 1
        for i in range(half):
            a, b = batch.meta[i], batch.meta[i + half]
            if a.doc_index != b.doc_index or a.token_end != b.token_start:
                violations += 1
        checked += 1
    ok = violations == 0 and checked == 1000
    report(10, "paired batches stay contiguous with the corpus", ok,
           f"{checked} batches, {violations} violations")
