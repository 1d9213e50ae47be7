"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

They run each workload in quick mode and check the shape of its output,
show that each correctness check fails on a known-bad input, and exercise
the compare mode. The file name keeps them out of the repository's own
test collection.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_quick_run_output_shape(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in last["metrics"].items()}
    for value in last["metrics"].values():
        assert math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    for line in ("loss digest", "BLAS threads", "count        steps"
                 if workload != "gradcheck-15" else "loss_evaluations"):
        assert line in proc.stdout


def _copy_benchmark(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run("--workload", "so-pretrain", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_run_fails_when_a_binding_is_gone(tmp_path):
    """A trainer that reaches assemble_batch through its module still
    trains, but the traced run can no longer see its step boundaries."""
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    trainer = tmp_path / "src" / "mtpretrain" / "trainer.py"
    text = trainer.read_text()
    text = text.replace("from .taskbuild import assemble_batch",
                        "from . import taskbuild")
    trainer.write_text(text.replace("assemble_batch(",
                                    "taskbuild.assemble_batch("))
    args = ("--workload", "so-pretrain", "--seed", "3", "--seconds", "0.1",
            "--quick", "--trace")
    plain = _run(*args, "0", cwd=tmp_path)
    assert plain.returncode == 0, plain.stdout + plain.stderr
    traced = _run(*args, "1", cwd=tmp_path)
    assert traced.returncode != 0
    assert "trainer.assemble_batch is missing" in traced.stderr
    assert '"correct"' not in traced.stdout


def test_tracer_names_a_missing_method_and_restores_the_rest(
        pkg, monkeypatch):
    monkeypatch.delattr(pkg.model.Model, "cls_rows")
    original = pkg.taskbuild.assemble_batch
    tracer = spans.Tracer()
    try:
        with pytest.raises(AttributeError, match="Model.cls_rows is missing"):
            spans.install(tracer, pkg)
        assert pkg.taskbuild.assemble_batch is not original
    finally:
        tracer.uninstall()
    assert pkg.taskbuild.assemble_batch is original


def test_per_layer_fails_without_step_boundaries():
    tracer = spans.Tracer()
    train = tracer.begin("trainer.train")
    for name in ("model.embed", "tensor.backward", "tensor.adam"):
        tracer.end(tracer.begin(name))
    tracer.end(train)
    res = wl.RunResult(step_s=[0.1], round_wall_s=[1.0],
                       round_tokens_per_s=[1.0])
    with pytest.raises(RuntimeError, match="no step boundaries"):
        layers.per_layer(tracer, res, wl.SO_PRETRAIN)
    with pytest.raises(RuntimeError, match="no loss evaluation spans"):
        layers.per_layer(tracer, res, wl.GRADCHECK_15)


# ------------------------------------------------- checks on bad inputs

@pytest.fixture(scope="module")
def pkg():
    import mtpretrain
    from mtpretrain import (cli, corpus, scheduler, taskbuild,  # noqa: F401
                            tensor, tokenizer, trainer)
    return mtpretrain


@pytest.fixture(scope="module")
def mix_run(pkg, tmp_path_factory):
    run = wl.TrainingRun(pkg, wl.TOKEN_MIX, seed=5,
                         workdir=tmp_path_factory.mktemp("mix"), quick=True)
    run.setup()
    return run


def _losses(pkg, run, **changes):
    config = run.config
    for key, value in changes.items():
        setattr(config, key, value)
    return [r.losses for r in pkg.trainer.train(config).records]


def test_learning_check_fails_when_lr_is_zero(pkg, mix_run):
    spec = wl.TOKEN_MIX
    learned = _losses(pkg, mix_run, base_lr=spec.base_lr)
    frozen = _losses(pkg, mix_run, base_lr=0.0)
    assert checks.learning(learned, spec.tasks, spec.order_only) == []
    failed = checks.learning(frozen, spec.tasks, spec.order_only)
    assert len(failed) == len(spec.tasks) - len(spec.order_only)


def test_initial_loss_check_fails_on_a_shifted_loss():
    assert checks.initial_losses({"so": math.log(2)}, {"so": 2}) == []
    assert checks.initial_losses({"so": 0.9}, {"so": 2})
    ln2 = math.log(2)
    k2 = {"tcp": 2, "scp": 2}
    assert checks.initial_losses({"tcp": 1.2 * ln2, "scp": ln2}, k2) == []
    assert checks.initial_losses({"tcp": 1.3 * ln2, "scp": ln2}, k2)
    assert checks.initial_losses({"tcp": ln2, "scp": 1.15 * ln2}, k2)


def test_order_only_cap_fails_on_a_tail_above_it():
    ln2 = math.log(2)
    flat = [{"so": ln2 + 0.01 * (-1) ** i} for i in range(60)]
    assert checks.learning(flat, ("so",), {"so": 2}) == []
    high = flat[:54] + [{"so": 1.15 * ln2}] * 6
    assert checks.learning(high, ("so",), {"so": 2})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_finite_check_fails_on_a_non_finite_loss(bad):
    rows = [{"mlm": 7.5, "tcp": 0.69}] * 4
    assert checks.finite_losses(rows) == []
    assert checks.finite_losses(rows[:2] + [{"mlm": 7.4, "tcp": bad}])


def test_digest_check_fails_on_two_digests():
    assert checks.same_digests(["a1b2"] * 3) == []
    assert checks.same_digests(["a1b2", "a1b2", "c3d4"])


def test_batch_checks_fail_on_one_flipped_label(pkg, mix_run):
    s = wl.TOKEN_MIX
    batch = pkg.taskbuild.assemble_batch(
        mix_run.reader, mix_run.vocab, s.tasks, s.batch_size, s.seq_len,
        seed=5, step=2)
    assert checks.token_labels(batch) == []
    batch.labels["scp"][0] = 1 - batch.labels["scp"][0]
    assert checks.token_labels(batch)
    batch.labels["scp"][0] = 1 - batch.labels["scp"][0]
    batch.labels["tcp"]["labels"][0, 0] = 1     # [CLS] position
    assert checks.token_labels(batch)


def test_mask_tally_fails_on_skipped_or_undercounted_masking(pkg, mix_run):
    """Over a full round's batches, unmasked inputs fail, and so does a
    selection rate of 14.5% (every 30th selected position dropped)."""
    s = wl.TOKEN_MIX
    good, sparse, unmasked = (checks.MaskTally(), checks.MaskTally(),
                              checks.MaskTally())
    for step in range(s.steps):
        batch = pkg.taskbuild.assemble_batch(
            mix_run.reader, mix_run.vocab, s.tasks, s.batch_size, s.seq_len,
            seed=5, step=step)
        good.add(batch, mix_run.vocab.mask_id)
        lab = batch.labels["mlm"]
        full = dict(lab)
        keep = np.arange(len(lab["positions"])) % 30 != 29
        lab["positions"] = full["positions"][keep]
        lab["targets"] = full["targets"][keep]
        sparse.add(batch, mix_run.vocab.mask_id)
        lab.update(full)
        pos = lab["positions"]
        batch.input_ids[pos[:, 0], pos[:, 1]] = lab["targets"]
        unmasked.add(batch, mix_run.vocab.mask_id)
    n = len(mix_run.vocab.sampleable_ids)
    assert good.verdict(n) == []
    assert [m.split()[0] for m in sparse.verdict(n)] == ["selected"]
    assert unmasked.verdict(n)


@pytest.fixture(scope="module")
def so_run(pkg, tmp_path_factory):
    run = wl.TrainingRun(pkg, wl.SO_PRETRAIN, seed=2,
                         workdir=tmp_path_factory.mktemp("so"), quick=True)
    run.setup()
    return run


def test_descent_check_fails_when_lr_is_zero(so_run):
    lr = so_run.pkg.tensor.lr_at(so_run.batch_tokens, so_run.total_tokens,
                                 base_lr=wl.SO_PRETRAIN.base_lr,
                                 warmup_frac=wl.SO_PRETRAIN.warmup_frac)
    assert checks.descent(*so_run.first_step_losses(lr)) == []
    assert checks.descent(*so_run.first_step_losses(0.0))
    assert checks.descent(*so_run.first_step_losses(-lr))


def test_so_rows_fail_on_a_flipped_swap_label(pkg, so_run):
    run = so_run
    s = wl.SO_PRETRAIN
    doc_ids = run.generated.doc_token_ids()
    batch = pkg.taskbuild.assemble_batch(run.reader, run.vocab, s.tasks,
                                         s.batch_size, s.seq_len, seed=2,
                                         step=7)
    assert checks.so_rows(batch, doc_ids) == []
    batch.labels["so"][3] = 1 - batch.labels["so"][3]
    assert checks.so_rows(batch, doc_ids)
    assert checks.corpus_store(run.reader, doc_ids,
                               run.generated.capitalized_ids(),
                               pkg.corpus.FLAG_CAPITALIZED) == []
    assert checks.corpus_store(run.reader, doc_ids[1:] + doc_ids[:1],
                               run.generated.capitalized_ids(),
                               pkg.corpus.FLAG_CAPITALIZED)


def test_gradient_comparison_fails_on_a_perturbed_gradient(pkg):
    tz = pkg.tensor
    with wl.float64(tz):
        rng = np.random.default_rng(0)
        w = tz.parameter(rng.normal(size=(4, 3)), name="w")
        x = tz.constant(rng.normal(size=(5, 4)))

        def loss_fn():
            return tz.cross_entropy(tz.gelu(x @ w), np.arange(5) % 3)

        loss_fn().backward()
        index = (2, 1)
        numeric = checks.central_difference(loss_fn, w, index)
        analytic = float(w.grad[index])
    assert checks.fd_agreement([("w", analytic, numeric)]) == []
    assert checks.fd_agreement([("w", analytic * 1.01 + 1e-3, numeric)])


def test_closed_form_checkpoint_count():
    # 120 steps, a checkpoint every twelfth step, and the final one
    assert checks.checkpoint_writes(120, 1024, 120 * 1024) == 11
    assert checks.checkpoint_writes(5, 1024, 5 * 1024) == 6


def _off_by_one(out, ck, n_writes):
    """Each closed-form count of a round, in turn, one off."""
    def tokens_seen(o, c):
        o.records[-1].tokens_seen += 1

    def step_index(o, c):
        o.records[3].step += 1

    def accounting(o, c):
        task = next(iter(o.accounting))
        o.accounting[task] -= 1

    def train_state(o, c):
        c.train_state["tokens_seen"] += 1

    def adam_t(o, c):
        c.adam_t -= 1

    for change in (tokens_seen, step_index, accounting, train_state, adam_t):
        o, c = copy.deepcopy(out), copy.deepcopy(ck)
        change(o, c)
        yield change.__name__, o, c, n_writes
    yield "checkpoints written", out, ck, n_writes + 1


def test_closed_form_checks_fail_when_a_count_is_one_off(pkg, so_run):
    so_run.round()
    assert so_run.result.failures == []
    n_writes = so_run.result.counts["checkpoints"]
    out = pkg.trainer.train(so_run.config)
    ck = pkg.tensor.load_checkpoint(out.checkpoint_path)
    assert so_run.closed_form_checks(out, n_writes, ck) == []
    for label, o, c, w in _off_by_one(out, ck, n_writes):
        assert so_run.closed_form_checks(o, w, c), label


def test_gradcheck_checks_fail_on_a_large_error_and_a_missing_task(pkg):
    tz = pkg.tensor
    with wl.float64(tz):
        rng = np.random.default_rng(1)
        w = tz.parameter(rng.normal(size=(4, 3)), name="w")
        x = tz.constant(rng.normal(size=(5, 4)))
        result = tz.check_gradients(
            lambda: tz.cross_entropy(tz.gelu(x @ w), np.arange(5) % 3),
            {"w": w})
    assert checks.max_error(result.max_error) == []
    bad = tz.GradCheckResult(max_error=3e-3, worst_param="w")
    assert checks.max_error(bad.max_error)
    assert checks.max_error(math.nan)
    sets = [tuple(ts) for ts in pkg.cli.GRADCHECK_SETS]
    assert checks.task_cover(sets, wl.ALL_TASKS) == []
    assert checks.task_cover([tuple(t for t in ts if t != "qt")
                              for ts in sets], wl.ALL_TASKS)


# ------------------------------------------------------------- compare

def _record(seed, tokens, digest="abc"):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in BENCH["end_to_end"]}
    metrics["tokens_per_s"]["value"] = tokens
    return {"workload": "so-pretrain", "seed": seed, "trace": 0,
            "attempted": 10, "failed": 0, "metrics": metrics,
            "loss_digest": digest}


def test_compare_agrees_and_flags(capsys):
    side = [_record(s, 100.0 + s) for s in range(5)]
    assert compare.compare(side, side, BENCH)
    slower = [_record(s, 50.0 + s) for s in range(5)]
    assert not compare.compare(side, slower, BENCH)
    other_digest = [_record(0, 100.0, digest="def")] + side[1:]
    assert not compare.compare(side, other_digest, BENCH)
    assert "DIGEST MISMATCH" in capsys.readouterr().out
