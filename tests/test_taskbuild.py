import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from mtpretrain import taskbuild as tb
from mtpretrain.corpus import FLAG_CAPITALIZED

import oracles


def content_mask(batch):
    return batch.attention_mask & ~batch.special_mask


def doc_tokens(reader, meta):
    return reader.documents[meta.doc_index].token_ids[
        meta.token_start:meta.token_end]


# ---------------------------------------------------------------- masking

def test_masking_statistics_three_sigma(small_reader, word_vocab):
    n_content = 0
    n_selected = 0
    bucket_mask = 0
    bucket_keep = 0
    for step in range(20):
        batch = tb.assemble_batch(small_reader, word_vocab, ("mlm",), 32, 64,
                                  seed=100, step=step)
        content = content_mask(batch)
        n_content += int(content.sum())
        lab = batch.labels["mlm"]
        pos = lab["positions"]
        n_selected += pos.shape[0]
        inputs = batch.input_ids[pos[:, 0], pos[:, 1]]
        bucket_mask += int((inputs == word_vocab.mask_id).sum())
        bucket_keep += int((inputs == lab["targets"]).sum())
    assert n_content > 10_000
    sigma = math.sqrt(n_content * tb.MLM_RATE * (1 - tb.MLM_RATE))
    assert abs(n_selected - tb.MLM_RATE * n_content) < 3 * sigma

    sigma = math.sqrt(n_selected * 0.8 * 0.2)
    assert abs(bucket_mask - 0.8 * n_selected) < 3 * sigma
    # a random replacement can coincide with the original id, so the
    # observed keep rate is 10% plus 10%/|regular vocab|
    p_keep = 0.1 + 0.1 / len(word_vocab.sampleable_ids)
    sigma = math.sqrt(n_selected * p_keep * (1 - p_keep))
    assert abs(bucket_keep - p_keep * n_selected) < 3 * sigma


def test_every_row_gets_at_least_one_mask(small_reader, word_vocab):
    for step in range(5):
        batch = tb.assemble_batch(small_reader, word_vocab, ("mlm",), 16, 24,
                                  seed=4, step=step)
        rows_hit = set(batch.labels["mlm"]["positions"][:, 0].tolist())
        assert rows_hit == set(range(16))


def test_mask_targets_match_source_document(small_reader, word_vocab):
    batch = tb.assemble_batch(small_reader, word_vocab, ("mlm",), 8, 48,
                              seed=5, step=0)
    lab = batch.labels["mlm"]
    for (r, c), target in zip(lab["positions"], lab["targets"]):
        meta = batch.meta[r]
        src = doc_tokens(small_reader, meta)
        assert target == src[c - 1]  # column 0 is the [CLS] slot


def test_masked_positions_never_special(small_reader, word_vocab):
    batch = tb.assemble_batch(small_reader, word_vocab, ("mlm",), 8, 32,
                              seed=6, step=0)
    pos = batch.labels["mlm"]["positions"]
    assert not batch.special_mask[pos[:, 0], pos[:, 1]].any()
    left, right = batch.labels["mlm"]["left"], batch.labels["mlm"]["right"]
    assert np.array_equal(left, pos - np.array([0, 1]))
    assert np.array_equal(right, pos + np.array([0, 1]))


def test_random_replacements_are_regular_tokens(small_reader, word_vocab):
    replaced = []
    for step in range(20):
        batch = tb.assemble_batch(small_reader, word_vocab, ("mlm",), 16, 48,
                                  seed=7, step=step)
        lab = batch.labels["mlm"]
        pos = lab["positions"]
        inputs = batch.input_ids[pos[:, 0], pos[:, 1]]
        rand = (inputs != word_vocab.mask_id) & (inputs != lab["targets"])
        replaced.extend(inputs[rand].tolist())
    assert replaced
    special = set(word_vocab.special_ids)
    assert not (set(replaced) & special)


# ------------------------------------------------------------- determinism

def test_batches_deterministic_in_seed_and_step(small_reader, word_vocab):
    a = tb.assemble_batch(small_reader, word_vocab, ("mlm", "tfidf"), 8, 32,
                          seed=9, step=3)
    b = tb.assemble_batch(small_reader, word_vocab, ("mlm", "tfidf"), 8, 32,
                          seed=9, step=3)
    c = tb.assemble_batch(small_reader, word_vocab, ("mlm", "tfidf"), 8, 32,
                          seed=9, step=4)
    assert np.array_equal(a.input_ids, b.input_ids)
    assert np.array_equal(a.labels["mlm"]["positions"],
                          b.labels["mlm"]["positions"])
    assert not np.array_equal(a.input_ids, c.input_ids)


def test_explicit_rng_matches_seed_step_derivation(small_reader, word_vocab):
    a = tb.assemble_batch(small_reader, word_vocab, ("mlm",), 4, 32,
                          seed=9, step=3)
    b = tb.assemble_batch(small_reader, word_vocab, ("mlm",), 4, 32,
                          rng=np.random.default_rng([9, 3, 11]))
    assert np.array_equal(a.input_ids, b.input_ids)


# ------------------------------------------------------------ token labels

def test_tf_tfidf_values_copied_from_store(small_reader, word_vocab):
    batch = tb.assemble_batch(small_reader, word_vocab, ("tf", "tfidf"),
                              8, 40, seed=11, step=0)
    content = content_mask(batch)
    for task in ("tf", "tfidf"):
        lab = batch.labels[task]
        assert np.array_equal(lab["weights"] > 0, content)
        for r in range(8):
            meta = batch.meta[r]
            doc = small_reader.documents[meta.doc_index]
            stored = getattr(doc, task)[meta.token_start:meta.token_end]
            cols = np.nonzero(content[r])[0]
            assert np.allclose(lab["values"][r, cols],
                               stored.astype(np.float64))


def test_tlp_values_are_piece_character_lengths(small_reader, word_vocab):
    batch = tb.assemble_batch(small_reader, word_vocab, ("tlp",), 8, 40,
                              seed=12, step=0)
    lab = batch.labels["tlp"]
    content = content_mask(batch)
    lengths = np.asarray(word_vocab.piece_char_lengths)
    for r in range(8):
        cols = np.nonzero(content[r])[0]
        assert np.array_equal(lab["values"][r, cols],
                              lengths[batch.input_ids[r, cols]])


def test_cap_labels_match_store_flags(small_reader, word_vocab):
    batch = tb.assemble_batch(small_reader, word_vocab, ("cap",), 8, 40,
                              seed=13, step=0)
    lab = batch.labels["cap"]
    content = content_mask(batch)
    assert np.array_equal(lab["weights"] > 0, content)
    for r in range(8):
        meta = batch.meta[r]
        doc = small_reader.documents[meta.doc_index]
        flags = doc.flags[meta.token_start:meta.token_end]
        want = (flags & FLAG_CAPITALIZED) > 0
        cols = np.nonzero(content[r])[0]
        assert np.array_equal(lab["labels"][r, cols].astype(bool), want)
        assert lab["labels"][r].sum() > 0  # sentence-initial words


# -------------------------------------------------------------- corruption

def test_corruption_labels_and_sentence_flag(small_reader, word_vocab):
    n_content = 0
    n_corrupt = 0
    for step in range(10):
        batch = tb.assemble_batch(small_reader, word_vocab,
                                  ("tf", "tcp", "scp"), 16, 40,
                                  seed=14, step=step)
        tcp = batch.labels["tcp"]
        content = content_mask(batch)
        assert np.array_equal(tcp["weights"] > 0, content)
        row_any = (tcp["labels"] * (tcp["weights"] > 0)).any(axis=1)
        assert np.array_equal(batch.labels["scp"].astype(bool), row_any)
        # inserted/replaced tokens score for corruption detection but are
        # excluded from the source-grounded regressions
        synthetic = content & (batch.labels["tf"]["weights"] == 0)
        assert np.all(tcp["labels"][synthetic] == 1)
        n_content += int(content.sum())
        n_corrupt += int(tcp["labels"][content].sum())
    rate = n_corrupt / n_content
    assert 0.05 < rate < 0.30


def test_corruption_preserves_shapes_and_determinism(small_reader, word_vocab):
    a = tb.assemble_batch(small_reader, word_vocab, ("tcp", "scp"), 8, 32,
                          seed=15, step=2)
    b = tb.assemble_batch(small_reader, word_vocab, ("tcp", "scp"), 8, 32,
                          seed=15, step=2)
    assert a.input_ids.shape == (8, 32)
    assert np.array_equal(a.input_ids, b.input_ids)
    assert np.array_equal(a.labels["scp"], b.labels["scp"])


def test_uncorrupted_rows_get_label_zero(small_reader, word_vocab):
    labels = []
    for step in range(10):
        batch = tb.assemble_batch(small_reader, word_vocab, ("scp",), 16, 40,
                                  seed=16, step=step)
        labels.extend(batch.labels["scp"].tolist())
    assert 0 in labels and 1 in labels


# ---------------------------------------------------------- trigram shuffle

def test_trigram_shuffle_matches_permutation_table(small_reader, word_vocab):
    for step in range(6):
        batch = tb.assemble_batch(small_reader, word_vocab, ("tgs",), 16, 40,
                                  seed=17, step=step)
        lab = batch.labels["tgs"]
        for r in range(16):
            start, klass = int(lab["starts"][r]), int(lab["labels"][r])
            if start < 0:
                continue
            perm = tb.TRIGRAM_PERMS[klass]
            src = doc_tokens(small_reader, batch.meta[r])
            origin = start - 1  # visible column 1 is the first content token
            visible = batch.input_ids[r, start:start + 3]
            expect = [src[origin + perm[i]] for i in range(3)]
            assert visible.tolist() == expect


def test_trigram_classes_roughly_uniform(small_reader, word_vocab):
    counts = np.zeros(6, dtype=int)
    for step in range(40):
        batch = tb.assemble_batch(small_reader, word_vocab, ("tgs",), 16, 40,
                                  seed=18, step=step)
        lab = batch.labels["tgs"]
        for klass in lab["labels"][lab["starts"] >= 0]:
            counts[klass] += 1
    n = counts.sum()
    sigma = math.sqrt(n * (1 / 6) * (5 / 6))
    assert np.all(np.abs(counts - n / 6) < 4 * sigma)


def test_trigram_too_short_rows_flagged_invalid(small_reader, word_vocab):
    # two content slots per row: no trigram fits anywhere
    batch = tb.assemble_batch(small_reader, word_vocab, ("tgs",), 8, 4,
                              seed=19, step=0)
    lab = batch.labels["tgs"]
    assert np.all(lab["starts"] == -1)
    assert np.all(lab["labels"] == -1)


# -------------------------------------------------------------- pair tasks

def pair_batches(reader, vocab, mode, n=25, batch_size=16, seq=32, seed=20):
    for step in range(n):
        yield tb.assemble_batch(reader, vocab, (mode,), batch_size, seq,
                                seed=seed, step=step)


def test_pair_row_layout(small_reader, word_vocab):
    batch = tb.assemble_batch(small_reader, word_vocab, ("nsp",), 16, 32,
                              seed=21, step=0)
    budget_a = (32 - 3) // 2
    for r in range(16):
        row = batch.input_ids[r]
        att = batch.attention_mask[r]
        n = int(att.sum())
        assert row[0] == word_vocab.cls_id
        seps = np.nonzero(row[:n] == word_vocab.sep_id)[0]
        assert len(seps) == 2 and seps[1] == n - 1
        assert np.all(row[n:] == word_vocab.pad_id)
        # type 0 through the first separator, type 1 after it
        assert np.all(batch.type_ids[r, :seps[0] + 1] == 0)
        assert np.all(batch.type_ids[r, seps[0] + 1:n] == 1)
        assert seps[0] - 1 <= budget_a
        # specials are exactly [CLS], the two [SEP]s, and padding
        specials = np.nonzero(batch.special_mask[r])[0]
        assert set(specials.tolist()) == {0, *seps.tolist(),
                                          *range(n, 32)}


def test_nsp_labels_and_provenance(small_reader, word_vocab):
    ones = 0
    total = 0
    for batch in pair_batches(small_reader, word_vocab, "nsp"):
        for r, label in enumerate(batch.labels["nsp"]):
            m = batch.meta[r]
            if label == 1:
                assert m.b_doc_index == m.doc_index
                assert m.b_token_start == m.token_end
            else:
                assert m.b_doc_index != m.doc_index
            ones += int(label)
            total += 1
    sigma = math.sqrt(total * 0.25)
    assert abs(ones - total / 2) < 3 * sigma


def test_asp_three_way_labels(small_reader, word_vocab):
    counts = np.zeros(3, dtype=int)
    for batch in pair_batches(small_reader, word_vocab, "asp"):
        for r, label in enumerate(batch.labels["asp"]):
            m = batch.meta[r]
            if label == 0:       # B continues A
                assert m.b_doc_index == m.doc_index
                assert m.b_token_start == m.token_end
            elif label == 1:     # B immediately precedes A
                assert m.b_doc_index == m.doc_index
                assert m.b_token_end == m.token_start
            else:                # B foreign
                assert m.b_doc_index != m.doc_index
            counts[label] += 1
    n = counts.sum()
    sigma = math.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - n / 3) < 4 * sigma)


def test_sdp_three_way_labels(small_reader, word_vocab):
    counts = np.zeros(3, dtype=int)
    for batch in pair_batches(small_reader, word_vocab, "sdp"):
        for r, label in enumerate(batch.labels["sdp"]):
            m = batch.meta[r]
            if label == 0:
                assert m.b_doc_index == m.doc_index
                assert m.b_token_start == m.token_end
            elif label == 1:     # same document, at least one sentence apart
                assert m.b_doc_index == m.doc_index
                assert m.b_token_start > m.token_end
            else:
                assert m.b_doc_index != m.doc_index
            counts[label] += 1
    n = counts.sum()
    sigma = math.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - n / 3) < 4 * sigma)


def test_so_standalone_swap_semantics(small_reader, word_vocab):
    ones = 0
    total = 0
    for batch in pair_batches(small_reader, word_vocab, "so"):
        for r, label in enumerate(batch.labels["so"]):
            m = batch.meta[r]
            assert m.b_doc_index == m.doc_index
            if label == 1:       # swapped: visible A is really the later run
                assert m.token_start == m.b_token_end
            else:
                assert m.b_token_start == m.token_end
            ones += int(label)
            total += 1
    sigma = math.sqrt(total * 0.25)
    assert abs(ones - total / 2) < 3 * sigma


def test_foreign_segment_needs_second_document(small_reader, word_vocab):
    single = small_reader.subset([0])
    with pytest.raises(tb.TaskBuildError):
        tb.assemble_batch(single, word_vocab, ("nsp",), 4, 32, seed=1)


def test_pairs_need_room_for_two_segments(small_reader, word_vocab):
    with pytest.raises(tb.TaskBuildError, match="too small for pairs"):
        tb.assemble_batch(small_reader, word_vocab, ("nsp",), 4, 4)


# ------------------------------------------------------------ continuation

def test_continuation_rows_contiguous(small_reader, word_vocab):
    for task_set in (("qt",), ("fs",), ("qt", "fs"), ("mlm", "qt")):
        batch = tb.assemble_batch(small_reader, word_vocab, task_set, 16, 32,
                                  seed=23, step=1)
        assert batch.continuation_paired
        for i in range(8):
            a, b = batch.meta[i], batch.meta[i + 8]
            assert a.doc_index == b.doc_index
            assert a.token_end == b.token_start


def test_continuation_visible_tokens_match_corpus(small_reader, word_vocab):
    batch = tb.assemble_batch(small_reader, word_vocab, ("qt", "fs"), 8, 32,
                              seed=24, step=0)
    content = content_mask(batch)
    for r in range(8):
        cols = np.nonzero(content[r])[0]
        visible = batch.input_ids[r, cols]
        assert np.array_equal(visible, doc_tokens(small_reader, batch.meta[r]))


def test_continuation_odd_batch_rejected(small_reader, word_vocab):
    with pytest.raises(tb.TaskBuildError):
        tb.assemble_batch(small_reader, word_vocab, ("qt",), 7, 32)


def test_continuation_mid_sentence_fallback(small_reader, word_vocab):
    """At capacity 3 no sentence fits, so the halves are cut mid-sentence;
    each second-half row still starts where its partner ends."""
    batch = tb.assemble_batch(small_reader, word_vocab, ("qt",), 8, 5,
                              seed=31, step=0)
    content = content_mask(batch)
    aligned = 0
    for i in range(4):
        a, b = batch.meta[i], batch.meta[i + 4]
        assert a.doc_index == b.doc_index and a.token_end == b.token_start
        assert 0 < a.token_end - a.token_start <= 3
        assert 0 < b.token_end - b.token_start <= 3
        offsets = small_reader.documents[a.doc_index].sentence_offsets
        aligned += a.token_start in offsets and b.token_end in offsets
    assert aligned < 4
    for r in range(8):
        visible = batch.input_ids[r, content[r]]
        assert np.array_equal(visible, doc_tokens(small_reader, batch.meta[r]))
    assert batch_digest(batch) == "54f55557c35c4b67"


def test_so_within_continuation_unswap_restores_corpus(small_reader,
                                                       word_vocab):
    for step in range(10):
        batch = tb.assemble_batch(small_reader, word_vocab,
                                  ("mlm", "so", "qt"), 16, 40,
                                  seed=25, step=step)
        stream = batch.input_ids.copy()
        lab = batch.labels["mlm"]
        stream[lab["positions"][:, 0], lab["positions"][:, 1]] = lab["targets"]
        for r in range(16):
            types = batch.type_ids[r]
            content = content_mask(batch)[r]
            seg_a = stream[r][(types == 0) & content]
            seg_b = stream[r][(types == 1) & content]
            if batch.labels["so"][r] == 1:
                restored = np.concatenate([seg_b, seg_a])
            else:
                restored = np.concatenate([seg_a, seg_b])
            assert np.array_equal(restored,
                                  doc_tokens(small_reader, batch.meta[r]))
        for i in range(8):
            a, b = batch.meta[i], batch.meta[i + 8]
            assert a.doc_index == b.doc_index and a.token_end == b.token_start


def test_so_in_continuation_has_two_visible_segments(small_reader, word_vocab):
    batch = tb.assemble_batch(small_reader, word_vocab, ("so", "qt"), 8, 40,
                              seed=26, step=0)
    for r in range(8):
        att = batch.attention_mask[r]
        assert set(batch.type_ids[r][att].tolist()) == {0, 1}
    assert batch.labels["so"].shape == (8,)


# ------------------------------------------------------------ batch schema

def test_final_set_schema(small_reader, word_vocab):
    batch = tb.assemble_batch(small_reader, word_vocab,
                              ("mlm", "qt", "so", "tfidf"), 8, 40,
                              seed=27, step=0)
    assert batch.task_set == ("mlm", "qt", "so", "tfidf")
    assert batch.input_ids.shape == (8, 40)
    assert batch.input_ids.dtype == np.int64
    assert batch.type_ids.shape == (8, 40)
    assert batch.attention_mask.dtype == np.bool_
    assert batch.special_mask.dtype == np.bool_
    lab = batch.labels
    assert set(lab) == {"mlm", "so", "tfidf"}
    n_masked = lab["mlm"]["positions"].shape[0]
    assert lab["mlm"]["positions"].shape == (n_masked, 2)
    assert lab["mlm"]["targets"].shape == (n_masked,)
    assert lab["tfidf"]["values"].shape == (8, 40)
    assert lab["tfidf"]["weights"].shape == (8, 40)
    assert lab["so"].dtype == np.int64
    assert len(batch.meta) == 8


def test_task_id_passes_through(small_reader, word_vocab):
    batch = tb.assemble_batch(small_reader, word_vocab, ("mlm",), 4, 24,
                              seed=28, step=0, task_id=5)
    assert batch.task_id == 5


def test_incompatible_set_rejected(small_reader, word_vocab):
    with pytest.raises(Exception):
        tb.assemble_batch(small_reader, word_vocab, ("so", "nsp"), 4, 24)


def test_padding_rows_marked_special_and_unattended(small_reader, word_vocab):
    batch = tb.assemble_batch(small_reader, word_vocab, ("mlm",), 8, 60,
                              seed=29, step=0)
    pad = ~batch.attention_mask
    assert pad.any()
    assert batch.special_mask[pad].all()
    assert np.all(batch.input_ids[pad] == word_vocab.pad_id)


@pytest.mark.parametrize("size", [0, -2])
def test_batch_size_below_one_is_refused(small_reader, word_vocab, size):
    with pytest.raises(tb.TaskBuildError, match="batch size must be at least"):
        tb.assemble_batch(small_reader, word_vocab, ("mlm",), size, 16)


def test_row_longer_than_max_seq_len_is_refused(small_reader, word_vocab):
    # at max_seq_len 2 a single row still takes one token: [CLS] t [SEP]
    with pytest.raises(tb.TaskBuildError,
                       match="row length 3 exceeds max_seq_len 2"):
        tb.assemble_batch(small_reader, word_vocab, ("mlm",), 4, 2)


# ------------------------------------------------------------------ trim

@pytest.mark.parametrize("task_set", [
    ("tf", "tfidf", "tlp", "cap", "tcp", "mlm", "sbo", "tgs", "scp"),
    ("nsp",), ("qt", "fs")], ids=",".join)
def test_trim_cuts_inputs_and_label_grids_to_views(small_reader, word_vocab,
                                                   task_set):
    batch = tb.assemble_batch(small_reader, word_vocab, task_set, 8, 40,
                              seed=3, step=2)
    w = int(batch.attention_mask.sum(axis=1).max())
    assert w < 40
    # past the longest row every column is padding
    assert not batch.attention_mask[:, w:].any()
    assert batch.special_mask[:, w:].all()
    cut = tb.trim(batch)
    for name in ("input_ids", "type_ids", "attention_mask", "special_mask"):
        full, part = getattr(batch, name), getattr(cut, name)
        assert part.shape == (8, w) and np.shares_memory(part, full), name
        assert np.array_equal(part, full[:, :w]), name
    for task, lab in batch.labels.items():
        if task in tb.GRID_TASKS:
            for key, grid in lab.items():
                assert cut.labels[task][key].shape == (8, w), (task, key)
                assert np.shares_memory(cut.labels[task][key], grid)
                assert not grid[:, w:].any(), (task, key)
        else:
            assert cut.labels[task] is lab, task
    if "mlm" in batch.labels:
        assert batch.labels["mlm"]["right"][:, 1].max() < w
    if "tgs" in batch.labels:
        assert batch.labels["tgs"]["starts"].max() + 2 < w
    assert (cut.meta, cut.task_set, cut.task_id) \
        == (batch.meta, batch.task_set, batch.task_id)
    # the batch itself keeps its full width
    assert batch.input_ids.shape == (8, 40)
    assert tb.trim(cut) is cut


# ------------------------------------------------------------ span drawing

def test_sentence_runs_match_loop_forms():
    """The run ends found by search equal the sentence-by-sentence loops,
    on random offsets that include zero-length sentences."""
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        off = np.concatenate([[0], np.cumsum(rng.integers(0, 5, n))])
        doc = SimpleNamespace(sentence_offsets=off)
        for budget in range(-1, int(off[-1]) + 3):
            for s0 in range(n):
                for limit in range(s0, n + 1):
                    assert tb._greedy_end(off, s0, limit, budget) == \
                        oracles.greedy_end_loop(off, s0, limit, budget)
            for s_end in range(1, n + 1):
                assert tb._run_backward(doc, s_end, budget) == \
                    oracles.run_backward_loop(off, s_end, budget)


# ------------------------------------------- whole-batch stages vs per row

ORACLE_CASES = [
    (("tcp", "scp", "tgs", "mlm"), 16, 64),
    (("nsp", "tcp", "tgs", "sbo"), 16, 5),  # one-slot segments
    (("asp", "tcp", "mlm"), 8, 7),
    (("so", "tcp", "scp", "tgs", "mlm"), 8, 32),
    (("qt", "fs", "mlm", "tcp", "tgs"), 8, 48),
    (("mlm", "sbo", "tcp", "scp", "tgs", "cap", "tfidf", "tlp"), 8, 24),
]


def _queues(rec, vocab, kinds):
    """The draws one stage made, one queue per call in order: a high-bound
    draw keeps each value with its bound, an id draw maps to the id."""
    calls = list(rec.calls)
    rec.calls.clear()
    assert len(calls) == len(kinds)
    queues = {}
    for kind, (_, args, values) in zip(kinds, calls):
        if kind in ("partner", "start", "fallback"):
            values = zip(args[0].tolist(), values.tolist())
        elif kind in ("fresh", "id"):
            values = vocab.sampleable_ids[values]
        queues[kind] = oracles.DrawQueue(values)
    return queues


def _assert_rows(grid, lengths, rows, vocab):
    for r, row in enumerate(rows):
        n = int(lengths[r])
        assert row.shape[1] == n
        assert np.array_equal(grid[:, r, :n], row)
        assert (grid[tb.POS, r, n:] == tb.SPECIAL).all()
        assert (grid[tb.ID, r, n:] == vocab.pad_id).all()
        assert (grid[tb.CORRUPT, r, n:] == 0).all()


def test_whole_batch_stages_match_per_row_oracle(small_reader, word_vocab):
    """Stages 2-4 over the batch build the rows that the per-row stages
    build from the same draws."""
    fallbacks = 0
    for task_set, b, seq in ORACLE_CASES:
        names = set(task_set)
        for step in range(15):
            rec = oracles.RecordingRng(np.random.default_rng([41, step, 11]))
            rows, _, _ = tb._draw_rows(small_reader, names, rec, b, seq)
            rec.calls.clear()
            want = oracles.layout_rows(small_reader, word_vocab, rows)
            grid, lengths, _ = tb._layout(small_reader, word_vocab, rows, seq)
            _assert_rows(grid, lengths, want, word_vocab)
            queues = {}
            if names & tb.CORRUPTION_TASKS:
                grid = tb._corrupt(grid, rec, word_vocab)
                q = _queues(rec, word_vocab,
                            ("uniform", "op", "partner", "fresh"))
                want = [oracles.corrupt_row(row, q) for row in want]
                fallbacks += (np.count_nonzero(np.array(q["op"].values)
                                               == tb.PERMUTE)
                              - len(q["partner"].values))
                queues.update(corrupt=q)
            if "tgs" in names:
                starts, classes = tb._shuffle_trigram(grid, rec)
                q = _queues(rec, word_vocab, ("start", "class"))
                hits = [oracles.shuffle_trigram_row(row, q) for row in want]
                assert starts.tolist() == [s for s, _ in hits]
                assert classes.tolist() == [k for _, k in hits]
                queues.update(tgs=q)
            if names & tb.MASKING_TASKS:
                positions, targets = tb._mask(grid, rec, word_vocab)
                q = _queues(rec, word_vocab,
                            ("uniform", "fallback", "split", "id"))
                want_positions, want_targets = [], []
                for r, row in enumerate(want):
                    cols, t = oracles.mask_row(row, q, word_vocab.mask_id)
                    want_positions += [[r, c] for c in cols]
                    want_targets += t
                assert positions.tolist() == want_positions
                assert targets.tolist() == want_targets
                queues.update(mask=q)
            _assert_rows(grid, lengths, want, word_vocab)
            assert all(q.done() for stage in queues.values()
                       for q in stage.values())
            batch = tb.assemble_batch(small_reader, word_vocab, task_set, b,
                                      seq, seed=41, step=step)
            assert np.array_equal(batch.input_ids, grid[tb.ID])
    assert fallbacks > 0  # a permutation without a partner became a replace


def test_corruption_and_mask_split_rates_five_sigma(small_reader, word_vocab):
    """Over 200 batches: 10% of segment slots selected, each op on a third
    of them, and the 80/10/10 split of the masked slots."""
    slots = selected = inserts = replaces = permutes = fallbacks = 0
    content = chosen = masked = kept = 0
    names = {"tcp", "mlm"}
    for step in range(200):
        rec = oracles.RecordingRng(np.random.default_rng([43, step, 11]))
        rows, _, _ = tb._draw_rows(small_reader, names, rec, 16, 64)
        rec.calls.clear()
        grid, lengths, _ = tb._layout(small_reader, word_vocab, rows, 64)
        slots += int(lengths.sum()) - 2 * len(rows)
        grid = tb._corrupt(grid, rec, word_vocab)
        ops = rec.calls[1][2]
        selected += ops.size
        inserts += int((ops == tb.INSERT).sum())
        permutes += rec.calls[2][2].size  # one partner per permutation
        replaces += rec.calls[3][2].size - int((ops == tb.INSERT).sum())
        fallbacks += int((ops == tb.PERMUTE).sum()) - rec.calls[2][2].size
        positions, targets = tb._mask(grid, rec, word_vocab)
        visible = grid[tb.ID][positions[:, 0], positions[:, 1]]
        content += int((grid[tb.POS] != tb.SPECIAL).sum())
        chosen += targets.size
        masked += int((visible == word_vocab.mask_id).sum())
        kept += int((visible == targets).sum())

    def within(got, n, p, slack=0):
        return abs(got - p * n) < 5 * math.sqrt(n * p * (1 - p)) + slack

    assert slots > 100_000
    assert within(selected, slots, 0.10)
    assert inserts + replaces + permutes == selected
    assert within(inserts, selected, 1 / 3)
    assert within(permutes, selected, 1 / 3, slack=fallbacks)
    assert within(replaces, selected, 1 / 3, slack=fallbacks)
    assert within(chosen, content, 0.15)
    assert within(masked, chosen, 0.8)
    p_keep = 0.1 + 0.1 / len(word_vocab.sampleable_ids)
    assert within(kept, chosen, p_keep)
    assert within(chosen - masked - kept, chosen, 0.1 - 0.1 / len(
        word_vocab.sampleable_ids))


# ----------------------------------------------------------- golden batches

GOLDEN_SETS = [
    ("mlm", "sbo", "tf", "tfidf", "tlp", "cap"),
    ("tcp", "scp", "tgs"),
    ("nsp",),
    ("asp",),
    ("sdp",),
    ("so",),
    ("qt", "fs"),
    ("mlm", "sbo", "tcp", "scp", "tgs", "cap", "tfidf", "tlp"),
    ("qt", "fs", "mlm", "tcp", "tgs"),
    ("so", "qt"),
    ("qt", "fs", "so", "mlm"),
]
GOLDEN_SHAPES = [(8, 24), (16, 64)]
GOLDEN_STEPS = [0, 3]


def _digest_array(h, arr):
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def batch_digest(batch) -> str:
    """sha256 over every array, label, row provenance and flag of a batch."""
    h = hashlib.sha256()
    for arr in (batch.input_ids, batch.type_ids, batch.attention_mask,
                batch.special_mask):
        _digest_array(h, arr)
    for task in sorted(batch.labels):
        h.update(task.encode())
        lab = batch.labels[task]
        for key in sorted(lab) if isinstance(lab, dict) else [None]:
            h.update(str(key).encode())
            _digest_array(h, lab if key is None else lab[key])
    for m in batch.meta:
        h.update(repr(dataclasses.astuple(m)).encode())
    h.update(repr((batch.task_set, batch.continuation_paired)).encode())
    return h.hexdigest()[:16]


# digests of assembled batches: stage 1 draws row by row, stages 2-4 take
# each kind of draw as one whole-batch array in row-major slot order. A
# change to any stage's draws (kind, order or arguments) or output moves them
GOLDEN_DIGESTS = {
    ("mlm,sbo,tf,tfidf,tlp,cap", 8, 24, 0): "d47911981073cc11",
    ("mlm,sbo,tf,tfidf,tlp,cap", 8, 24, 3): "f4da5ae8f0048519",
    ("mlm,sbo,tf,tfidf,tlp,cap", 16, 64, 0): "31f8a60303ecad90",
    ("mlm,sbo,tf,tfidf,tlp,cap", 16, 64, 3): "25eeda5ede993e06",
    ("tcp,scp,tgs", 8, 24, 0): "91d56f0ec764b927",
    ("tcp,scp,tgs", 8, 24, 3): "8304ff05bb9c7036",
    ("tcp,scp,tgs", 16, 64, 0): "1a311286390a24e2",
    ("tcp,scp,tgs", 16, 64, 3): "d9dae05e98d8b121",
    ("nsp", 8, 24, 0): "a64c04010c699535",
    ("nsp", 8, 24, 3): "9467d7d44e340b76",
    ("nsp", 16, 64, 0): "18d605f4364233ad",
    ("nsp", 16, 64, 3): "66d2160f494f62a2",
    ("asp", 8, 24, 0): "016a96cf9116f95f",
    ("asp", 8, 24, 3): "384f27b722c60f35",
    ("asp", 16, 64, 0): "202dda3ace63a510",
    ("asp", 16, 64, 3): "54b1120f67ddda71",
    ("sdp", 8, 24, 0): "cb8cae1942b683a1",
    ("sdp", 8, 24, 3): "ec16e3c2d85672f2",
    ("sdp", 16, 64, 0): "3b6f9abc17310ed1",
    ("sdp", 16, 64, 3): "b20f08bd3e8c0a2a",
    ("so", 8, 24, 0): "a5dd76d64a13639b",
    ("so", 8, 24, 3): "20c397ba93469f79",
    ("so", 16, 64, 0): "f7ebb6dff7c09f5e",
    ("so", 16, 64, 3): "6a7034371d96b583",
    ("qt,fs", 8, 24, 0): "b9a611dbceccbb3b",
    ("qt,fs", 8, 24, 3): "b82f0df31730d663",
    ("qt,fs", 16, 64, 0): "f1a1fa137be168be",
    ("qt,fs", 16, 64, 3): "23f14c59c12fc075",
    ("mlm,sbo,tcp,scp,tgs,cap,tfidf,tlp", 8, 24, 0): "00aba97ed8a1112c",
    ("mlm,sbo,tcp,scp,tgs,cap,tfidf,tlp", 8, 24, 3): "a5fa17b993b428da",
    ("mlm,sbo,tcp,scp,tgs,cap,tfidf,tlp", 16, 64, 0): "01890c2338d2dc67",
    ("mlm,sbo,tcp,scp,tgs,cap,tfidf,tlp", 16, 64, 3): "b9622632e09da890",
    ("qt,fs,mlm,tcp,tgs", 8, 24, 0): "e11c8e92d1135a87",
    ("qt,fs,mlm,tcp,tgs", 8, 24, 3): "7cad154ba8a040ae",
    ("qt,fs,mlm,tcp,tgs", 16, 64, 0): "f53eeed0302c419d",
    ("qt,fs,mlm,tcp,tgs", 16, 64, 3): "93d07b36a22ef68d",
    ("so,qt", 8, 24, 0): "f17178d309a0616a",
    ("so,qt", 8, 24, 3): "149d7eaca95213c2",
    ("so,qt", 16, 64, 0): "29fc9a56a8e7432e",
    ("so,qt", 16, 64, 3): "b30eab1a499d18d6",
    ("qt,fs,so,mlm", 8, 24, 0): "be7978dcf46f13d1",
    ("qt,fs,so,mlm", 8, 24, 3): "9ed0eda642013724",
    ("qt,fs,so,mlm", 16, 64, 0): "af051abc05c0c030",
    ("qt,fs,so,mlm", 16, 64, 3): "c71b2c667ee89b75",
}


def test_golden_batch_digests(small_reader, word_vocab):
    got = {}
    for task_set in GOLDEN_SETS:
        for b, seq in GOLDEN_SHAPES:
            for step in GOLDEN_STEPS:
                batch = tb.assemble_batch(small_reader, word_vocab, task_set,
                                          b, seq, seed=31, step=step)
                got[(",".join(task_set), b, seq, step)] = batch_digest(batch)
    assert got == GOLDEN_DIGESTS
