"""Training example construction and fixed-shape batch assembly.

A batch is a (3, B, L) int64 grid with one column per token slot:

- ``grid[POS]`` is the slot's position in the reader-wide token table
  (``CorpusReader.token_ids``), or a negative code: ``SPECIAL`` for [CLS],
  [SEP] and padding, ``FRESH`` for a token that corruption inserted or
  substituted. A slot's TF, TF-IDF, capitalization and piece-length labels
  follow its position, so a moved slot keeps them and a fresh or special
  slot has none.
- ``grid[ID]`` is the slot's current input id.
- ``grid[CORRUPT]`` is 1 where corruption inserted, replaced or moved the
  slot.

A batch is built in stages. Stage 1 draws the text of every row; stages 2-4
then each run over the whole batch:

1. topology: draw each row's segments, (document, start, end) token spans
   in row order. Sets containing qt/fs use the continuation layout (row
   i + B/2 holds the exact token continuation of row i); sets with a pair
   task draw [CLS] A [SEP] B [SEP] rows; anything else gets single-segment
   rows. The segments are laid out in the grid, and each row's RowMeta is
   derived from them: a pair or single row's is its segments flattened in
   row order, a continuation row's the one document span its segments
   cover, however so split or swapped it.
2. corruption (tcp/scp): insert/replace/permute within each segment, then
   trim back to the segment's original length so row lengths stay fixed.
3. trigram shuffle (tgs): permute one uniformly chosen trigram per row.
4. masking (mlm/sbo): hide 15% of content positions with the 80/10/10
   replacement split, recording targets against the visible (post-stage-3)
   stream.

The token labels are then gathered for the whole batch from the grid of
positions.

Each stage sees the previous stage's output as ground truth, so jointly
scheduled tasks stay mutually consistent. All randomness flows from one
generator seeded by (seed, step), making batches pure functions of those.
Stage 1 draws row by row; each later stage takes each kind of draw as one
array over the whole batch, in row-major slot order, one kind after the
other (the stage functions list them). The order of the draws and their
arguments are part of that contract: a change to either changes every
later batch (tests/test_taskbuild.py pins digests of assembled batches).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import FLAG_CAPITALIZED
from .tasks import (CONTINUATION_TASKS, CORRUPTION_TASKS, MASKING_TASKS,
                    PAIR_TASKS, canonical_task, validate_compatibility)

MLM_RATE = 0.15
MASK_SPLIT = (0.8, 0.1, 0.1)  # [MASK] / random id / keep
CORRUPTION_RATE = 0.10
MAX_DRAW_TRIES = 200

# the six trigram permutations in lexicographic one-line order
TRIGRAM_PERMS = np.array(list(itertools.permutations(range(3))))

# the rows of the grid, and the negative position codes
POS, ID, CORRUPT = 0, 1, 2
SPECIAL, FRESH = -1, -2
# corruption ops, in the order their draws index them
INSERT, REPLACE, PERMUTE = 0, 1, 2


class TaskBuildError(ValueError):
    pass


@dataclass
class RowMeta:
    doc_index: int = -1
    token_start: int = -1
    token_end: int = -1
    b_doc_index: int = -1
    b_token_start: int = -1
    b_token_end: int = -1


@dataclass
class TrainingBatch:
    input_ids: np.ndarray
    type_ids: np.ndarray
    attention_mask: np.ndarray
    special_mask: np.ndarray
    task_id: int
    task_set: "tuple[str, ...]"
    continuation_paired: bool
    labels: dict = field(default_factory=dict)
    meta: "list[RowMeta]" = field(default_factory=list)


def trim(batch: TrainingBatch) -> TrainingBatch:
    """The batch cut to w, the length of its longest row: views over
    columns [0, w) of the four input grids, the labels as they are. A
    batch whose longest row fills it comes back as is.

    Batches keep their (B, max_seq_len) shape, which the token accounting
    counts; the forward and backward run on the cut, since the columns
    past w hold only padding. No label cell at or past w is nonzero, so a
    head reads its label grids at the slots it picks, or cuts them to w."""
    w = int(batch.attention_mask.sum(axis=1).max())
    if w == batch.input_ids.shape[1]:
        return batch
    return replace(batch, input_ids=batch.input_ids[:, :w],
                   type_ids=batch.type_ids[:, :w],
                   attention_mask=batch.attention_mask[:, :w],
                   special_mask=batch.special_mask[:, :w])


def slot_rows(rows, b: int, r, c=0) -> np.ndarray:
    """The rows of slots (r, c) of b batch rows in the encoder's flat rows,
    m per batch row: the trimmed width, or 1 for the [CLS] rows only."""
    return np.asarray(r) * (rows.shape[0] // b) + c


# ------------------------------------------------------------ span drawing
#
# A segment is a (document, start, end) token span within one document;
# stage 1 describes each row by its segments, in row order. Sentence
# offsets never decrease, so each end of a run of whole sentences is one
# binary search: bisect, bounded to the sentences the run may end at,
# which costs less than one np.searchsorted call on a scalar.

def _greedy_end(off, s0: int, limit: int, budget: int) -> int:
    """The end of the longest run of whole sentences from s0, ending at or
    before sentence limit, whose tokens fit the budget (s0 when none fit)."""
    return bisect.bisect_right(off, off[s0] + budget, s0 + 1, limit + 1) - 1


def _run_forward(doc, s0: int, budget: int, max_sentence_end: "int | None" = None):
    """Greedy whole-sentence run from s0; mid-sentence truncation fallback.

    Returns (token_start, token_end, sentence_end). token_end - token_start
    is at most budget and at least min(budget, 1)."""
    off = doc.sentence_offsets
    limit = doc.n_sentences if max_sentence_end is None else max_sentence_end
    start = int(off[s0])
    s = _greedy_end(off, s0, limit, budget)
    if s == s0:
        return start, start + max(1, min(budget, int(off[s0 + 1]) - start)), s0 + 1
    return start, int(off[s]), s


def _run_backward(doc, s_end: int, budget: int):
    """Greedy run of whole sentences ending exactly at sentence s_end."""
    off = doc.sentence_offsets
    end = int(off[s_end])
    s = bisect.bisect_left(off, end - budget, 0, s_end)
    if s == s_end:
        start = max(int(off[s_end - 1]), end - max(1, budget))
        return start, end, s_end - 1
    return int(off[s]), end, s


def _a_then_next(doc, rng, budget_a: int, total_budget: int):
    """A from a sentence before the last, ending before the last sentence;
    B the run that follows A in the same document."""
    n = doc.n_sentences
    a0, a1, a_end = _run_forward(doc, int(rng.integers(n - 1)), budget_a,
                                 max_sentence_end=n - 1)
    b0, b1, _ = _run_forward(doc, a_end, total_budget - (a1 - a0))
    return (a0, a1), (b0, b1)


def _foreign_b(reader, rng, exclude: int, budget: int):
    """B from a uniformly drawn sentence of another document than exclude,
    as a segment."""
    n = len(reader.documents)
    if n < 2:
        raise TaskBuildError(
            "task needs a segment from a different document but the corpus "
            "has a single document")
    dj = int(rng.integers(n - 1))
    dj = dj if dj < exclude else dj + 1
    other = reader.documents[dj]
    b0, b1, _ = _run_forward(other, int(rng.integers(other.n_sentences)),
                             budget)
    return dj, b0, b1


def _draw_pair(reader, mode: str, rng, max_seq_len: int):
    """One pair row's two segments, in row order, and its label."""
    total_budget = max_seq_len - 3
    if total_budget < 2:
        raise TaskBuildError(f"max_seq_len {max_seq_len} too small for pairs")
    budget_a = total_budget // 2
    docs = reader.documents
    for _ in range(MAX_DRAW_TRIES):
        di = int(rng.integers(len(docs)))
        doc = docs[di]
        n = doc.n_sentences
        if mode == "nsp":
            label = int(rng.random() < 0.5)
            a, b = _a_then_next(doc, rng, budget_a, total_budget)
            if label == 1:
                return [(di, *a), (di, *b)], 1
            return [(di, *a), _foreign_b(reader, rng, di,
                                         total_budget - (a[1] - a[0]))], 0
        if mode == "so":
            a, b = _a_then_next(doc, rng, budget_a, total_budget)
            if rng.random() < 0.5:
                return [(di, *b), (di, *a)], 1
            return [(di, *a), (di, *b)], 0
        # asp and sdp: label 0 is the next run, 2 a foreign B, 1 differs
        label = int(rng.integers(3))
        if label == 0:
            a, b = _a_then_next(doc, rng, budget_a, total_budget)
            return [(di, *a), (di, *b)], 0
        if label == 2:
            a0, a1, _ = _run_forward(doc, int(rng.integers(n)), budget_a)
            return [(di, a0, a1), _foreign_b(reader, rng, di,
                                             total_budget - (a1 - a0))], 2
        if mode == "asp":
            # B precedes A
            s0 = 1 + int(rng.integers(n - 1))
            a0, a1, _ = _run_forward(doc, s0, budget_a)
            b0, b1, _ = _run_backward(doc, s0, total_budget - (a1 - a0))
            return [(di, a0, a1), (di, b0, b1)], 1
        # sdp: B from the same document, at least one sentence after A
        if n < 3:
            continue
        s0 = int(rng.integers(n - 2))
        a0, a1, a_end = _run_forward(doc, s0, budget_a,
                                     max_sentence_end=n - 2)
        if a_end + 1 >= n:
            continue
        b_start = a_end + 1 + int(rng.integers(n - a_end - 1))
        b0, b1, _ = _run_forward(doc, b_start, total_budget - (a1 - a0))
        return [(di, a0, a1), (di, b0, b1)], 1
    raise TaskBuildError(f"could not draw a {mode} pair after "
                         f"{MAX_DRAW_TRIES} attempts")


def _draw_continuation(reader, rng, capacity: int, min_sentences: int):
    """A document and three token cuts: the first row holds [c0, c1), its
    continuation row [c1, c2). Also the sentences at the cuts when the rows
    are whole-sentence runs, else None."""
    docs = reader.documents
    for _ in range(MAX_DRAW_TRIES):
        di = int(rng.integers(len(docs)))
        doc = docs[di]
        off = doc.sentence_offsets
        n = doc.n_sentences
        if n < 2 * min_sentences:
            continue
        s0 = int(rng.integers(n - 2 * min_sentences + 1))
        a_end = _greedy_end(off, s0, n - min_sentences, capacity)
        if a_end - s0 < min_sentences:
            continue
        b_end = _greedy_end(off, a_end, n, capacity)
        if b_end - a_end < min_sentences:
            continue
        sentences = (s0, a_end, b_end)
        return di, [int(off[s]) for s in sentences], sentences
    if min_sentences > 1:
        raise TaskBuildError(
            "no document supports continuation pairing with a sentence-"
            f"boundary split at capacity {capacity}")
    # mid-sentence fallback: exact token spans without sentence alignment
    for _ in range(MAX_DRAW_TRIES):
        di = int(rng.integers(len(docs)))
        doc = docs[di]
        if doc.n_tokens < 2:
            continue
        half = min(capacity, max(1, doc.n_tokens // 2))
        t0 = int(rng.integers(max(1, doc.n_tokens - 2 * half + 1)))
        mid = t0 + half
        end = min(doc.n_tokens, mid + half)
        if mid <= t0 or end <= mid:
            continue
        return di, [t0, mid, end], None
    raise TaskBuildError("no document long enough for continuation pairing")


def _draw_rows(reader, names, rng, batch_size, max_seq_len):
    """Stage 1: choose text.

    Returns each row's segments, the pair labels (None for a set without a
    pair task) and the continuation flag.
    """
    docs = reader.documents
    if CONTINUATION_TASKS & names:
        if batch_size % 2 != 0:
            raise TaskBuildError(
                f"continuation pairing needs an even batch size, got {batch_size}")
        with_so = "so" in names
        capacity = max_seq_len - (3 if with_so else 2)
        half = batch_size // 2
        rows = [None] * batch_size
        labels = [0] * batch_size if with_so else None
        for i in range(half):
            di, cuts, sentences = _draw_continuation(
                reader, rng, capacity, 2 if with_so else 1)
            # row i holds the first run, row i + half its continuation; so
            # splits each at a sentence inside it and may swap the halves
            for r, k in ((i, 0), (i + half, 1)):
                if not with_so:
                    rows[r] = [(di, cuts[k], cuts[k + 1])]
                    continue
                s_lo, s_hi = sentences[k], sentences[k + 1]
                split = s_lo + 1 + int(rng.integers(s_hi - s_lo - 1))
                cut = int(docs[di].sentence_offsets[split])
                labels[r] = int(rng.random() < 0.5)
                a, b = (di, cuts[k], cut), (di, cut, cuts[k + 1])
                rows[r] = [b, a] if labels[r] else [a, b]
        return rows, labels, True

    pair_mode = next((t for t in ("nsp", "asp", "sdp", "so") if t in names), None)
    if pair_mode is not None:
        drawn = [_draw_pair(reader, pair_mode, rng, max_seq_len)
                 for _ in range(batch_size)]
        return [s for s, _ in drawn], [label for _, label in drawn], False

    budget = max_seq_len - 2
    rows = []
    for _ in range(batch_size):
        di = int(rng.integers(len(docs)))
        doc = docs[di]
        a0, a1, _ = _run_forward(doc, int(rng.integers(doc.n_sentences)),
                                 budget)
        rows.append([(di, a0, a1)])
    return rows, None, False


def _row_meta(segments, continuation: bool) -> RowMeta:
    """A row's provenance: a continuation row's one document span, however
    so split or swapped it; else its segments flattened in row order."""
    if continuation:
        di = segments[0][0]
        return RowMeta(di, min(s for _, s, _ in segments),
                       max(e for _, _, e in segments))
    return RowMeta(*(v for segment in segments for v in segment))


# ----------------------------------------------------------- batch stages

def _layout(reader, vocab, rows, seq: int):
    """The (3, B, L) grid of the [CLS] A [SEP] (B [SEP]) rows before stage 2,
    each row's length, and the first column of its second segment (L for a
    row with one segment)."""
    b = len(rows)
    counts = [len(segments) for segments in rows]
    segments = np.array([s for row in rows for s in row],
                        dtype=np.int64).reshape(-1, 3)
    # each segment's [start, end) in the reader-wide token table
    spans = reader.doc_starts[segments[:, :1]] + segments[:, 1:]
    seg_row = np.repeat(np.arange(b), counts)
    sizes = spans[:, 1] - spans[:, 0]
    # each segment starts after [CLS] and the earlier segments of its row,
    # each of those followed by its [SEP]
    before = np.cumsum(sizes + 1) - (sizes + 1)
    cols = 1 + before - np.repeat(before[np.cumsum(counts) - counts], counts)
    lengths = np.bincount(seg_row, sizes + 1, b).astype(np.int64) + 1
    too_long = np.flatnonzero(lengths > seq)
    if too_long.size:
        raise TaskBuildError(f"row length {lengths[too_long[0]]} exceeds "
                             f"max_seq_len {seq}")
    second = np.full(b, seq, dtype=np.int64)
    later = cols > 1
    second[seg_row[later]] = cols[later]

    starts = seg_row * seq + cols  # each segment's first flat slot
    offsets = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes,
                                                 sizes)
    slots = np.repeat(starts, sizes) + offsets
    grid = np.zeros((3, b * seq), dtype=np.int64)
    grid[POS] = SPECIAL
    grid[ID] = vocab.pad_id
    grid[POS, slots] = np.repeat(spans[:, 0], sizes) + offsets
    grid[ID, slots] = reader.token_ids[grid[POS, slots]]
    grid[ID, starts + sizes] = vocab.sep_id
    grid[ID, np.arange(b) * seq] = vocab.cls_id
    return grid.reshape(3, b, seq), lengths, second


def _corrupt(grid: np.ndarray, rng, vocab) -> np.ndarray:
    """Stage 2 on every segment of the batch: returns the corrupted grid,
    each segment trimmed back to its length.

    Draws, in order: one uniform per segment slot, one op per selected
    slot, one partner per permutation, one id per replaced or inserted
    slot, each in row-major order over the batch.
    """
    flat = grid.reshape(3, -1)
    size = flat.shape[1]
    # before this stage the non-special slots are exactly the segments',
    # and every segment lies between two specials of its row
    in_seg = flat[POS] >= 0
    head = in_seg.copy()
    head[1:] &= ~in_seg[:-1]
    tail = in_seg.copy()
    tail[:-1] &= ~in_seg[1:]
    seg_of = np.cumsum(head) - 1  # a segment slot's segment
    seg_head, seg_stop = head.nonzero()[0], tail.nonzero()[0] + 1

    slots = in_seg.nonzero()[0]
    at = slots[rng.random(slots.size) < CORRUPTION_RATE]
    ops = rng.integers(3, size=at.size)

    # a permutation's partner candidates: the other selected slots of its
    # segment in column order, then its unselected left and right neighbours
    seg = seg_of[at]
    lo = np.searchsorted(seg, seg, "left")
    others = np.searchsorted(seg, seg, "right") - lo - 1
    free = in_seg.copy()
    free[at] = False
    left, right = free[at - 1], free[at + 1]
    n_candidates = others + left + right
    ops[(ops == PERMUTE) & (n_candidates == 0)] = REPLACE
    swap = (ops == PERMUTE).nonzero()[0]
    pick = rng.integers(n_candidates[swap])
    # the pick-th other selected slot skips the slot itself; past the
    # others, extra is 0 for the first valid neighbour, 1 for the second
    other = lo[swap] + pick + (pick >= swap - lo[swap])
    extra = pick - others[swap]
    partner = np.where(
        extra < 0, at[np.minimum(other, at.size - 1)],
        np.where((extra == 0) & left[swap], at[swap] - 1, at[swap] + 1))

    # the swaps compose in column order; source[i] is the slot whose
    # token now sits at slot i
    source: "dict[int, int]" = {}
    moved = []
    for i, j in zip(at[swap].tolist(), partner.tolist()):
        a, b = source.get(i, i), source.get(j, j)
        source[i], source[j] = b, a
        moved += (a, b)
    take = np.arange(size)
    take[list(source)] = list(source.values())

    fresh = ops != PERMUTE
    fresh_at, inserts = at[fresh], ops[fresh] == INSERT
    new = np.empty((3, fresh_at.size), dtype=np.int64)
    new[POS] = FRESH
    new[ID] = vocab.random_regular_id(rng, fresh_at.size)
    new[CORRUPT] = 1
    table = np.concatenate([flat, new], axis=1)
    table[CORRUPT, moved] = 1
    fresh_col = size + np.arange(fresh_at.size)
    take[fresh_at[~inserts]] = fresh_col[~inserts]
    if inserts.any():
        # an insertion shifts the rest of its segment one slot right; what
        # passes the segment's end is dropped
        ins = np.zeros(size, dtype=np.int64)
        ins[fresh_at[inserts]] = 1
        earlier = np.cumsum(ins) - ins

        def moves(cols, after):
            seg = seg_of[cols]
            to = cols + earlier[cols] - earlier[seg_head[seg]] + after
            return to, to < seg_stop[seg]

        shifted = take.copy()
        to, stays = moves(slots, 0)
        shifted[to[stays]] = take[slots[stays]]
        to, stays = moves(fresh_at[inserts], 1)
        shifted[to[stays]] = fresh_col[inserts][stays]
        take = shifted
    return table[:, take].reshape(grid.shape)


def _first_true(where: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The column of the k-th (from 0) true cell in each row of where."""
    return (where.cumsum(axis=1) > k[:, None]).argmax(axis=1)


def _shuffle_trigram(grid: np.ndarray, rng) -> "tuple[np.ndarray, np.ndarray]":
    """Stage 3: permute one trigram of non-special slots per row in place.

    Draws one start per row with a trigram, then one class per such row.
    Returns each row's start and class, -1 where no trigram fits."""
    ok = grid[POS] != SPECIAL
    fits = ok[:, :-2] & ok[:, 1:-1] & ok[:, 2:]
    counts = fits.sum(axis=1)
    rows = (counts > 0).nonzero()[0]
    start = _first_true(fits[rows], rng.integers(counts[rows]))
    klass = rng.integers(6, size=rows.size)
    r = rows[:, None]
    grid[:, r, start[:, None] + np.arange(3)] = \
        grid[:, r, start[:, None] + TRIGRAM_PERMS[klass]]
    starts = np.full(grid.shape[1], -1, dtype=np.int64)
    classes = np.full(grid.shape[1], -1, dtype=np.int64)
    starts[rows], classes[rows] = start, klass
    return starts, classes


def _mask(grid: np.ndarray, rng, vocab) -> "tuple[np.ndarray, np.ndarray]":
    """Stage 4: overwrite the ids of chosen non-special slots in place.

    Draws one uniform per maskable slot, one fallback column per row that
    chose none, one split uniform per chosen slot and one id per random
    replacement. Returns the chosen (row, column) pairs in row-major order
    and their ids before masking."""
    maskable = grid[POS] != SPECIAL
    chosen = np.zeros_like(maskable)
    chosen[maskable] = rng.random(int(maskable.sum())) < MLM_RATE
    counts = maskable.sum(axis=1)
    rows = ((counts > 0) & ~chosen.any(axis=1)).nonzero()[0]
    fallback = _first_true(maskable[rows], rng.integers(counts[rows]))
    chosen[rows, fallback] = True
    ids = grid[ID]
    targets = ids[chosen]
    split = rng.random(targets.size)
    visible = targets.copy()
    visible[split < MASK_SPLIT[0]] = vocab.mask_id
    swapped = (split >= MASK_SPLIT[0]) \
        & (split < MASK_SPLIT[0] + MASK_SPLIT[1])
    visible[swapped] = vocab.random_regular_id(rng, int(swapped.sum()))
    ids[chosen] = visible
    return np.argwhere(chosen), targets


def _grid(where: np.ndarray, values, fill, dtype) -> np.ndarray:
    """values at the true cells of where, in row-major order; fill elsewhere."""
    grid = np.full(where.shape, fill, dtype=dtype)
    grid[where] = values
    return grid


def assemble_batch(reader, vocab, task_set, batch_size: int, max_seq_len: int,
                   seed: int = 0, step: int = 0, task_id: int = 0,
                   rng=None) -> TrainingBatch:
    """Build one fixed-shape batch for the given task set.

    Deterministic given (seed, step); the rng argument overrides that
    derivation when a caller manages its own stream.
    """
    if batch_size < 1:
        raise TaskBuildError(f"batch size must be at least 1, got {batch_size}")
    if seed < 0:
        raise TaskBuildError(f"seed must be non-negative, got {seed}")
    names = [canonical_task(t) for t in task_set]
    validate_compatibility(names)
    if rng is None:
        rng = np.random.default_rng([int(seed), int(step), 11])
    name_set = set(names)

    rows, pair_labels, continuation = _draw_rows(reader, name_set, rng,
                                                 batch_size, max_seq_len)
    grid, lengths, second = _layout(reader, vocab, rows, max_seq_len)
    if CORRUPTION_TASKS & name_set:
        grid = _corrupt(grid, rng, vocab)
    if "tgs" in name_set:
        tgs_starts, tgs_classes = _shuffle_trigram(grid, rng)

    labels: dict = {}
    if MASKING_TASKS & name_set:
        positions, targets = _mask(grid, rng, vocab)
        labels["mlm"] = {
            "positions": positions,
            "targets": targets,
            "left": positions - np.array([0, 1], dtype=np.int64),
            "right": positions + np.array([0, 1], dtype=np.int64),
        }
    columns = np.arange(max_seq_len)
    attention = columns < lengths[:, None]
    type_ids = (attention & (columns >= second[:, None])).astype(np.int64)
    position = grid[POS]
    special = position == SPECIAL
    source = position >= 0
    at = position[source]
    for task in ("tf", "tfidf", "tlp"):
        if task not in name_set:
            continue
        values = vocab.piece_char_lengths[reader.token_ids[at]] \
            if task == "tlp" else getattr(reader, task)[at]
        labels[task] = {"values": _grid(source, values, 0.0, np.float64),
                        "weights": source.astype(np.float64)}
    if "cap" in name_set:
        capitalized = (reader.flags[at] & FLAG_CAPITALIZED) != 0
        labels["cap"] = {"labels": _grid(source, capitalized, 0, np.int64),
                         "weights": source.astype(np.float64)}
    corrupted = grid[CORRUPT]
    if "tcp" in name_set:
        labels["tcp"] = {"labels": corrupted,
                         "weights": (~special).astype(np.float64)}
    if "scp" in name_set:
        labels["scp"] = corrupted.any(axis=1).astype(np.int64)
    if "tgs" in name_set:
        labels["tgs"] = {"starts": tgs_starts, "labels": tgs_classes}
    for task in PAIR_TASKS & name_set:
        labels[task] = np.asarray(pair_labels, dtype=np.int64)

    return TrainingBatch(input_ids=grid[ID], type_ids=type_ids,
                         attention_mask=attention, special_mask=special,
                         task_id=task_id, task_set=tuple(names),
                         continuation_paired=continuation, labels=labels,
                         meta=[_row_meta(segments, continuation)
                               for segments in rows])
