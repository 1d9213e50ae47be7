import json
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import synthetic_corpus_text, write_word_vocab
from mtpretrain import arrayfile, corpus, tensor
from mtpretrain.cli import main, run_gradcheck


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- schedule

def test_schedule_staged_table(capsys):
    code, out, err = run(capsys, "schedule", "--strategy", "cmtl",
                         "--tasks", "4", "--tokens", "200000")
    assert code == 0 and not err
    lines = out.splitlines()
    assert "stage 1" in lines[0] and "total" in lines[0]
    assert lines[1].split() == ["task1", "20,000", "10,000", "10,000",
                                "10,000", "50,000"]
    assert lines[2].split() == ["task2", "0", "30,000", "10,000",
                                "10,000", "50,000"]
    assert lines[3].split() == ["task3", "0", "0", "40,000",
                                "10,000", "50,000"]
    assert lines[4].split() == ["task4", "0", "0", "0", "50,000", "50,000"]
    assert "chunk C = 10,000" in lines[5]


def test_schedule_staged_with_shared_task(capsys):
    code, out, err = run(capsys, "schedule", "--strategy", "cmtl_plus",
                         "--tasks", "mlm,tfidf,so,qt", "--tokens", "1.2e6",
                         "--batch-tokens", "1024")
    assert code == 0
    assert "tfidf" in out and "joins every step" in out
    assert "remainder 8,064" in out


def test_schedule_flat_strategy_totals(capsys):
    code, out, err = run(capsys, "schedule", "--strategy", "sum",
                         "--tasks", "mlm", "--tokens", "4096",
                         "--batch-tokens", "1024")
    assert code == 0
    assert "strategy sum: 4 steps of 1,024 tokens" in out
    assert "4,096" in out


def test_schedule_alias_accepted(capsys):
    code, out, _ = run(capsys, "schedule", "--strategy", "alt+",
                       "--tasks", "mlm,tfidf", "--tokens", "2048",
                       "--batch-tokens", "1024")
    assert code == 0 and "alt_plus" in out


def test_schedule_rejects_conflicting_tasks(capsys):
    code, out, err = run(capsys, "schedule", "--strategy", "sum",
                         "--tasks", "so,nsp", "--tokens", "2048",
                         "--batch-tokens", "1024")
    assert code == 1
    assert err.startswith("error:")


def test_schedule_staged_needs_shared_task(capsys):
    code, _, err = run(capsys, "schedule", "--strategy", "cmtl_plus",
                       "--tasks", "tfidf,so", "--tokens", "2048")
    assert code == 1 and "mlm" in err


@pytest.mark.parametrize("strategy", ["cmtl_plus", "alt_plus"])
def test_schedule_shared_task_alone_is_refused_by_name(capsys, strategy):
    code, _, err = run(capsys, "schedule", "--strategy", strategy,
                       "--tasks", "mlm", "--tokens", "2048",
                       "--batch-tokens", "1024")
    assert code == 1
    assert err.strip() == (f"error: strategy {strategy} needs at least one "
                           f"auxiliary task besides mlm")


@pytest.mark.parametrize("tokens", ["1e400", "inf", "nan"])
def test_schedule_refuses_non_finite_budget(capsys, tokens):
    code, out, err = run(capsys, "schedule", "--strategy", "sum",
                         "--tasks", "mlm", "--tokens", tokens)
    assert code == 1 and not out
    assert err.startswith("error: token budget must be finite")


def test_schedule_budget_is_parsed_exactly(capsys):
    # 2**53 + 1 has no float64; its stage cells must still sum to it
    code, out, err = run(capsys, "schedule", "--strategy", "cmtl",
                         "--tasks", "3", "--tokens", "9007199254740993")
    assert code == 0 and not err
    totals = [int(line.split()[-1].replace(",", ""))
              for line in out.splitlines()[1:4]]
    assert sum(totals) == 9007199254740993


@pytest.mark.parametrize("tokens", ["1.5", "2048.25", "1e-3"])
def test_schedule_refuses_a_fractional_budget(capsys, tokens):
    code, out, err = run(capsys, "schedule", "--strategy", "sum",
                         "--tasks", "mlm", "--tokens", tokens)
    assert code == 1 and not out
    assert err.strip() == f"error: token budget must be a whole number, " \
        f"got {tokens}"


def test_train_refuses_a_fractional_budget(capsys, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("corpus = a\nvocab = b\ntotal_tokens = 1.5\n")
    code, out, err = run(capsys, "train", "--config", str(cfg))
    assert code == 1 and not out
    assert err.strip() == "error: token budget must be a whole number, got 1.5"


def test_schedule_columns_fit_the_paper_budget(capsys):
    code, out, err = run(capsys, "schedule", "--strategy", "cmtl",
                         "--tasks", "mlm,so,asp", "--tokens", "1.3e11")
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[0].split() == ["stage", "1", "stage", "2", "stage", "3",
                                "total"]
    assert lines[1].split() == ["mlm", "21,666,666,666", "10,833,333,333",
                                "10,833,333,333", "43,333,333,332"]
    assert lines[3].split() == ["asp", "0", "0", "43,333,333,336",
                                "43,333,333,336"]
    # every cell ends where its column's header ends
    ends = [m.end() for m in re.finditer(r"\S+(?: \d)?", lines[0])]
    for line in lines[1:4]:
        assert [m.end() for m in re.finditer(r"\S+", line)][1:] == ends


# ----------------------------------------------------------------- analyze

def test_analyze_bundled_table(capsys):
    code, out, err = run(capsys, "analyze", "--simulations", "2000")
    assert code == 0 and not err
    assert "mlm" in out and "cmtl_plus" in out
    assert "p = 1.273e-03" in out
    assert "bonferroni x2 = 2.547e-03" in out
    assert "bonferroni x2 = 1.069e-06" in out


def test_analyze_custom_csv_and_baseline(capsys, tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("label,r1,r2,r3,r4\n"
                    "small,70.0,70.5,69.5,70.2\n"
                    "big,75.0,75.4,74.8,75.1\n")
    code, out, _ = run(capsys, "analyze", "--runs", str(path),
                       "--baseline", "big", "--simulations", "2000")
    assert code == 0
    assert "small vs big" in out and "bonferroni x1" in out


def test_analyze_equal_var_changes_p(capsys, tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("label,r1,r2,r3,r4\n"
                    "a,70.0,70.5,69.5,70.1\n"
                    "b,75.0,76.4,74.8,75.6\n")
    _, welch, _ = run(capsys, "analyze", "--runs", str(path),
                      "--simulations", "1000")
    _, pooled, _ = run(capsys, "analyze", "--runs", str(path),
                       "--equal-var", "--simulations", "1000")
    welch_p = [l for l in welch.splitlines() if "b vs a" in l]
    pooled_p = [l for l in pooled.splitlines() if "b vs a" in l]
    assert welch_p and pooled_p and welch_p != pooled_p


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "--runs", "/no/such/file.csv")
    assert code == 1 and err.startswith("error:")


def test_analyze_refuses_a_repeated_label(capsys, tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("label,r1,r2,r3,r4\n"
                    "base,70.0,70.5,69.5,70.2\n"
                    "new,75.0,75.4,74.8,75.1\n"
                    "base,71.0,71.5,70.5,71.2\n")
    code, out, err = run(capsys, "analyze", "--runs", str(path),
                         "--simulations", "1000")
    assert code == 1 and not out
    assert err.strip() == f"error: {path}:4: label 'base' repeats line 2"


# --------------------------------------------------------------- gradcheck

def test_gradcheck_passes_at_small_scale(capsys):
    code, out, err = run(capsys, "gradcheck", "--samples", "1",
                         "--layers", "1")
    assert code == 0, err
    assert "overall max relative error" in out
    assert "qt,fs" in out


def test_gradcheck_leaves_a_float64_caller_in_float64(float64_mode):
    worst = run_gradcheck(layers=1, max_entries=1, verbose=lambda *_: None)
    assert worst < 1e-4
    assert tensor.default_dtype() is np.float64


def test_gradcheck_of_no_entries_is_refused(capsys):
    code, out, err = run(capsys, "gradcheck", "--samples", "0")
    assert code == 1
    assert "overall max relative error" not in out
    assert err.startswith("error: gradient check needs at least one entry")


# an odd size is refused by the last set alone, qt,fs: no set may run first
GRADCHECK_REFUSALS = {"0": "batch size must be at least 1",
                      "-2": "batch size must be at least 1",
                      "3": "continuation pairing needs an even batch size"}


@pytest.mark.parametrize("size", list(GRADCHECK_REFUSALS))
def test_gradcheck_of_an_empty_batch_is_refused(capsys, size):
    code, out, err = run(capsys, "gradcheck", "--samples", "1",
                         "--batch-size", size)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {GRADCHECK_REFUSALS[size]}, got {size}")


# ----------------------------------------------------------------- prepare

def test_prepare_and_rerun_up_to_date(capsys, tmp_path):
    vocab_path = write_word_vocab(tmp_path / "vocab.txt")
    text = tmp_path / "docs.txt"
    text.write_text(synthetic_corpus_text(seed=3, n_docs=6))
    store = tmp_path / "store.mtpc"
    code, out, _ = run(capsys, "prepare", "--input", str(text),
                       "--vocab", str(vocab_path), "--out", str(store))
    assert code == 0
    assert "documents accepted 6" in out
    assert store.exists()
    code, out, _ = run(capsys, "prepare", "--input", str(text),
                       "--vocab", str(vocab_path), "--out", str(store))
    assert code == 0
    assert "store up to date" in out


def test_prepare_missing_vocab(capsys, tmp_path):
    text = tmp_path / "docs.txt"
    text.write_text("Hello there.\n")
    code, _, err = run(capsys, "prepare", "--input", str(text),
                       "--vocab", str(tmp_path / "none.txt"),
                       "--out", str(tmp_path / "s.mtpc"))
    assert code == 1 and err.startswith("error:")


# ----------------------------------------------------- train, then probe

@pytest.fixture()
def train_config(small_store, word_vocab_path, tmp_path):
    ck = tmp_path / "model.mtpt"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        f"corpus = {small_store}\n"
        f"vocab = {word_vocab_path}\n"
        "total_tokens = 1024   # four steps\n"
        "tasks = mlm\n"
        "strategy = sum\n"
        "batch_size = 8\n"
        "max_seq_len = 32\n"
        "layers = 1\n"
        "hidden = 32\n"
        "heads = 2\n"
        "dropout = 0.0\n"
        f"checkpoint_path = {ck}\n")
    return cfg, ck


def test_train_and_probe_round_trip(capsys, train_config, small_store,
                                    word_vocab_path):
    cfg, ck = train_config
    code, out, err = run(capsys, "train", "--config", str(cfg))
    assert code == 0, err
    assert "completed 4 steps, 1,024 tokens" in out
    assert "final mlm loss:" in out
    assert ck.exists()

    code, out, err = run(capsys, "probe", "--checkpoint", str(ck),
                         "--corpus", str(small_store),
                         "--vocab", str(word_vocab_path),
                         "--epochs", "0", "--against-random")
    assert code == 0, err
    assert "probe accuracy:" in out
    assert "random-init accuracy:" in out
    assert "gap:" in out


@pytest.mark.parametrize("line", ["warmup_frac = 2", "base_lr = -0.1",
                                  "checkpoint_interval = -5"])
def test_train_refuses_a_config_that_trains_silently_wrong(capsys,
                                                           train_config,
                                                           line):
    cfg, ck = train_config
    cfg.write_text(cfg.read_text() + line + "\n")
    code, out, err = run(capsys, "train", "--config", str(cfg))
    field = line.split()[0]
    assert code == 1 and not out
    assert err.startswith("error:") and field in err
    assert not ck.exists()


def test_resuming_a_finished_run_takes_no_step(capsys, small_store,
                                              word_vocab_path, tmp_path):
    ck, metrics = tmp_path / "model.mtpt", tmp_path / "metrics.jsonl"
    cfg = tmp_path / "train.cfg"
    settings = (f"corpus = {small_store}\n"
                f"vocab = {word_vocab_path}\n"
                "total_tokens = 2048   # eight steps\n"
                "tasks = mlm\n"
                "batch_size = 8\n"
                "max_seq_len = 32\n"
                "layers = 1\n"
                "hidden = 16\n"
                "heads = 2\n"
                f"checkpoint_path = {ck}\n"
                f"metrics_path = {metrics}\n")
    cfg.write_text(settings)
    code, out, err = run(capsys, "train", "--config", str(cfg))
    assert code == 0, err
    assert "completed 8 steps, 2,048 tokens" in out
    written, stat = ck.read_bytes(), ck.stat()
    cfg.write_text(settings + f"resume_from = {ck}\n")
    code, out, err = run(capsys, "train", "--config", str(cfg))
    assert code == 0, err
    assert out.splitlines() == ["completed 0 steps, 2,048 tokens",
                                f"checkpoint: {ck}"]
    # the checkpoint is not written again
    assert ck.read_bytes() == written
    assert (ck.stat().st_ino, ck.stat().st_mtime_ns) == \
        (stat.st_ino, stat.st_mtime_ns)
    assert [json.loads(line)["step"] for line in
            metrics.read_text(encoding="utf-8").splitlines()] == list(range(8))


def test_probe_without_model_config_fails(capsys, small_store,
                                          word_vocab_path, tmp_path):
    ck = tmp_path / "bare.mtpt"
    params = {"w.bias": tensor.parameter(np.zeros(3))}
    tensor.save_checkpoint(ck, params, tensor.Adam(params),
                           config={"layers": 1}, step=0, tokens_seen=0)
    code, _, err = run(capsys, "probe", "--checkpoint", str(ck),
                       "--corpus", str(small_store),
                       "--vocab", str(word_vocab_path))
    assert code == 1
    assert err.startswith("error:") and "bare.mtpt" in err


def test_train_conflicting_tasks_fails(capsys, small_store, word_vocab_path,
                                       tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        f"corpus = {small_store}\n"
        f"vocab = {word_vocab_path}\n"
        "total_tokens = 1024\n"
        "tasks = so, nsp\n"
        "batch_size = 8\n"
        "max_seq_len = 32\n")
    code, _, err = run(capsys, "train", "--config", str(cfg))
    assert code == 1 and err.startswith("error:")


def test_train_refuses_a_store_id_outside_the_vocabulary(tmp_path,
                                                         word_vocab_path,
                                                         word_vocab):
    # header and block sizes intact, one token id past the vocabulary:
    # the store is refused at load with a typed error naming the store,
    # the document and the id, before any batch is built
    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "mtpretrain", *argv],
                              capture_output=True, text=True)

    text = tmp_path / "docs.txt"
    text.write_text(synthetic_corpus_text(seed=3, n_docs=6))
    store = tmp_path / "store.mtpc"
    assert cli("prepare", "--input", str(text), "--vocab",
               str(word_vocab_path), "--out", str(store)).returncode == 0
    header, blocks = arrayfile.read(store, corpus.STORE_MAGIC,
                                    corpus.STORE_VERSION, corpus.CorpusError)
    blocks = [b.copy() for b in blocks]
    starts = corpus.load_corpus(store).doc_starts
    bad = len(word_vocab) + 5
    blocks[3][starts[3] + 1] = bad    # the token block, document 3
    store.write_bytes(arrayfile.pack(corpus.STORE_MAGIC, corpus.STORE_VERSION,
                                     header, blocks))
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"corpus = {store}\nvocab = {word_vocab_path}\n"
                   "total_tokens = 512\ntasks = tlp\nbatch_size = 8\n"
                   f"max_seq_len = 32\ncheckpoint_path = {tmp_path / 'm'}\n")
    proc = cli("train", "--config", str(cfg))
    assert proc.returncode == 1 and proc.stderr.startswith("error:"), \
        proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{store}: document 3 " in proc.stderr
    assert f"token id {bad} outside" in proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mtpretrain", "schedule", "--strategy", "sum",
         "--tasks", "mlm", "--tokens", "2048", "--batch-tokens", "1024"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "strategy sum" in proc.stdout
