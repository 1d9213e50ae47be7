"""Command-line entry point binding corpus, scheduler, trainer, and stats.

Subcommands:
  prepare    tokenize raw text into a binary corpus store
  schedule   print a strategy's per-task token budgets (staged table for
             the cmtl variants)
  train      run pre-training from a key=value config file
  gradcheck  finite-difference check of every task head at a tiny scale
  analyze    significance testing over a CSV of per-run scores
  probe      frozen-encoder adjacency probe accuracy for a checkpoint
"""

from __future__ import annotations

import argparse
import math
import sys
from decimal import Decimal, InvalidOperation
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, losses, scheduler, tensor, trainer
from .corpus import CorpusError, CorpusReader, build_corpus, load_corpus
from .model import Model, ModelConfig
from .taskbuild import assemble_batch
from .tasks import canonical_task
from .tokenizer import SPECIAL_TOKENS, Vocabulary, load_vocab

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_DOCS = 12  # documents in the fabricated gradient-check corpus


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------- prepare

def cmd_prepare(args) -> int:
    vocab = load_vocab(args.vocab)
    result = build_corpus(args.input, args.out, vocab)
    if result.up_to_date:
        print(f"store up to date: {args.out}")
    print(f"files read:        {result.files_read}")
    print(f"blocks parsed:     {result.blocks_parsed}")
    print(f"documents accepted {result.accepted} / rejected {result.rejected}")
    print(f"stored segments:   {result.stored_segments}")
    print(f"total tokens:      {result.total_tokens}")
    return 0


# --------------------------------------------------------------- schedule

def _parse_schedule_tasks(raw: str) -> "list[str]":
    try:
        count = int(raw)
    except ValueError:
        return [canonical_task(t) for t in raw.split(",") if t.strip()]
    if count < 1:
        raise ValueError("task count must be positive")
    return [f"task{i + 1}" for i in range(count)]


def _parse_budget(raw: str) -> int:
    """The token budget, exactly: a whole number, in scientific notation
    or not, no larger than a float can hold."""
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise ValueError(f"token budget must be a number, got {raw}") from None
    if not math.isfinite(float(value)):
        raise ValueError(f"token budget must be finite, got {raw}")
    if value != value.to_integral_value():
        raise ValueError(f"token budget must be a whole number, got {raw}")
    return int(value)


def _print_stage_table(names, alloc) -> None:
    label = max(12, max(len(n) for n in names) + 2)
    header = [f"stage {i + 1}" for i in range(alloc.n_tasks)] + ["total"]
    rows = [[f"{v:,}" for v in row + [sum(row)]]
            for row in alloc.task_major()]
    # each column two spaces wider than its widest cell
    widths = [max(map(len, col)) + 2 for col in zip(header, *rows)]
    for name, cells in zip([""] + names, [header] + rows):
        print(name.ljust(label)
              + "".join(c.rjust(w) for c, w in zip(cells, widths)))
    print("".ljust(label) + f"chunk C = {alloc.chunk:,}"
          f" (remainder {alloc.remainder:,} folded into the last stage)")


def cmd_schedule(args) -> int:
    names = _parse_schedule_tasks(args.tasks)
    tokens = _parse_budget(args.tokens)
    strategy = scheduler.canonical_strategy(args.strategy)
    if strategy in ("cmtl", "cmtl_plus"):
        basis = scheduler.task_basis(strategy, names)
        alloc = scheduler.cmtl_allocation(len(basis), tokens,
                                          args.batch_tokens)
        _print_stage_table(basis, alloc)
        if strategy == "cmtl_plus":
            print("mlm".ljust(max(12, max(len(n) for n in basis) + 2))
                  + "joins every step")
        return 0
    schedule = scheduler.make_schedule(strategy, names, tokens,
                                       args.batch_tokens)
    totals = scheduler.token_accounting(schedule)
    print(f"strategy {strategy}: {len(schedule)} steps of "
          f"{args.batch_tokens:,} tokens")
    for name in names:
        print(f"{name.ljust(12)}{totals[name]:>14,}")
    return 0


# ------------------------------------------------------------------ train

def cmd_train(args) -> int:
    config = trainer.load_config(args.config)
    result = trainer.train(config)
    print(f"completed {len(result.records)} steps, "
          f"{result.tokens_seen:,} tokens")
    # a run resumed from its own final checkpoint takes no step
    if result.records:
        for task, value in sorted(result.records[-1].losses.items()):
            print(f"final {task} loss: {value:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


# -------------------------------------------------------------- gradcheck

def _fabricated_reader(vocab, rng) -> CorpusReader:
    """A tiny in-memory corpus with plausible per-token labels."""
    regular = vocab.sampleable_ids
    rows = []
    for _ in range(GRADCHECK_DOCS):
        n_sent = int(rng.integers(4, 9))
        counts = rng.integers(4, 9, size=n_sent)
        total = int(counts.sum())
        rows.append(([total], [n_sent], np.cumsum(np.r_[0, counts]),
                     rng.choice(regular, size=total),
                     rng.uniform(0, 10, size=total),
                     rng.uniform(0, 10, size=total),
                     rng.integers(0, 4, size=total)))
    return CorpusReader([f"demo{d}" for d in range(GRADCHECK_DOCS)],
                        vocab.content_hash,
                        [np.concatenate(column) for column in zip(*rows)],
                        "fabricated corpus")


GRADCHECK_SETS = [
    ("mlm", "sbo", "tf", "tfidf", "tlp", "cap"),
    ("tcp", "scp", "tgs"),
    ("nsp",),
    ("asp",),
    ("sdp",),
    ("so",),
    ("qt", "fs"),
]


def run_gradcheck(layers: int = 2, hidden: int = 32, heads: int = 2,
                  batch_size: int = 8, seq_len: int = 24, seed: int = 0,
                  max_entries: int = 4, verbose=print):
    """Finite-difference gradient check over every task head.

    Returns the max relative error across all checked task sets. Runs in
    float64 with dropout off; samples max_entries elements per parameter.
    The default dtype is set back to the caller's on return.
    """
    dtype = tensor.default_dtype()
    tensor.set_default_dtype("float64")
    try:
        vocab = Vocabulary(list(SPECIAL_TOKENS)
                           + [f"word{i:02d}" for i in range(60)] + ["."])
        rng = np.random.default_rng(seed)
        reader = _fabricated_reader(vocab, rng)
        config = ModelConfig(vocab=len(vocab.id_to_token), layers=layers,
                             hidden=hidden, heads=heads, max_seq_len=seq_len,
                             task_vocab=16, dropout=0.0)
        model = Model(config, np.random.default_rng([seed, 1]))
        # every batch first, so a size a set refuses stops the command
        # before any check runs
        batches = [assemble_batch(reader, vocab, task_set, batch_size,
                                  seq_len, seed=seed, step=k)
                   for k, task_set in enumerate(GRADCHECK_SETS)]
        worst = 0.0
        check_rng = np.random.default_rng([seed, 2])
        for task_set, batch in zip(GRADCHECK_SETS, batches):

            def loss_fn():
                loss_map = losses.batch_losses(model, batch)
                return losses.combine_losses(loss_map, batch.task_set)

            result = tensor.check_gradients(loss_fn, model.params,
                                            max_entries=max_entries,
                                            rng=check_rng)
            verbose(f"{','.join(task_set):<28} max rel err "
                    f"{result.max_error:.3e}  (worst: {result.worst_param})")
            worst = max(worst, result.max_error)
        return worst
    finally:
        tensor.set_default_dtype(dtype)


def cmd_gradcheck(args) -> int:
    worst = run_gradcheck(layers=args.layers, hidden=args.hidden,
                          heads=args.heads, batch_size=args.batch_size,
                          seq_len=args.seq_len, seed=args.seed,
                          max_entries=args.samples)
    print(f"overall max relative error: {worst:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:.0e})")
    if worst >= GRADCHECK_TOLERANCE:
        return _fail("gradient check failed")
    return 0


# ---------------------------------------------------------------- analyze

def bundled_demo_runs() -> Path:
    return Path(str(resources.files("mtpretrain").joinpath(
        "data/demo_runs.csv")))


def cmd_analyze(args) -> int:
    path = Path(args.runs) if args.runs else bundled_demo_runs()
    runs = analysis.load_runs_csv(path)
    baseline = args.baseline or runs[0].label
    report = analysis.analyze_runs(runs, baseline,
                                   equal_var=args.equal_var,
                                   n_simulations=args.simulations)
    for label, mean, std, lp in report.summaries:
        print(f"{label:<12} mean {mean:8.3f}  std {std:6.3f}  "
              f"lilliefors p {lp:.3f}")
    m = len(report.comparisons)
    for comp in report.comparisons:
        print(f"{comp.label} vs {baseline}: t = {comp.t:+.3f}, "
              f"p = {comp.p_raw:.3e}, bonferroni x{m} = {comp.p_corrected:.3e}")
    return 0


# ------------------------------------------------------------------ probe

def cmd_probe(args) -> int:
    ck = tensor.load_checkpoint(args.checkpoint)
    try:
        mc = ModelConfig.from_dict(ck.config["model"])
    except (KeyError, TypeError) as exc:
        raise tensor.CheckpointError(
            f"{args.checkpoint}: no usable model config ({exc!r})") from None
    vocab = load_vocab(args.vocab)
    reader = load_corpus(args.corpus)
    reader.check_vocab(vocab)
    model = Model(mc, np.random.default_rng(0))
    model.load_values(ck.params)
    spec = trainer.ProbeSpec(seed=args.seed, epochs=args.epochs,
                             max_seq_len=min(64, mc.max_seq_len))
    acc = trainer.evaluate_probe(model, reader, vocab, spec)
    print(f"probe accuracy: {acc:.4f}")
    if args.against_random:
        fresh = Model(mc, np.random.default_rng([args.seed, 99]))
        base = trainer.evaluate_probe(fresh, reader, vocab, spec)
        print(f"random-init accuracy: {base:.4f}")
        print(f"gap: {100 * (acc - base):+.1f} points")
    return 0


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtpretrain",
        description="multi-task language model pre-training toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build a binary corpus store")
    p.add_argument("--input", nargs="+", required=True,
                   help="text files or directories of .txt files")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--out", required=True, help="output store path")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("schedule", help="print per-task token budgets")
    p.add_argument("--strategy", required=True,
                   help="sum | inc | alt | alt_plus | cmtl | cmtl_plus")
    p.add_argument("--tasks", required=True,
                   help="comma-separated task names, or a task count for "
                        "the cmtl table")
    p.add_argument("--tokens", required=True,
                   help="total token budget, a whole number (scientific "
                        "notation ok)")
    p.add_argument("--batch-tokens", type=int, default=1,
                   help="tokens per step for rounding (default 1)")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("train", help="run pre-training")
    p.add_argument("--config", required=True,
                   help="key=value config file; keys: corpus, vocab, "
                        "total_tokens, tasks, strategy, batch_size, "
                        "max_seq_len, seed, layers, hidden, heads, dropout, "
                        "task_vocab, base_lr, warmup_frac, "
                        "checkpoint_interval, checkpoint_path, metrics_path, "
                        "resume_from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of all task heads")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--seq-len", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=4,
                   help="elements sampled per parameter")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("analyze", help="significance tests over run scores")
    p.add_argument("--runs", default="",
                   help="CSV with header label,run1,...; defaults to the "
                        "bundled demo table")
    p.add_argument("--baseline", default="",
                   help="label compared against (default: first row)")
    p.add_argument("--equal-var", action="store_true",
                   help="use the pooled-variance t-test instead of Welch")
    p.add_argument("--simulations", type=int,
                   default=analysis.LILLIEFORS_SIMULATIONS)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("probe", help="adjacency probe for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--against-random", action="store_true",
                   help="also score a randomly initialized encoder")
    p.set_defaults(func=cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CorpusError, OSError, trainer.TrainingError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
