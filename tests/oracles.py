"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch with different
machinery than the library (plain loops, collections.Counter, quadrature)
so that agreement is meaningful. The fused tensor ops are checked against
chains of the library's primitive ops instead. The tape-liveness helpers at
the end find which nodes of a graph are still alive.
"""

from __future__ import annotations

import gc
import math
from collections import Counter

import numpy as np

from mtpretrain import tensor as tz
from mtpretrain.tensor import Tensor


def brute_force_tf(token_ids) -> dict[int, float]:
    counts = Counter(token_ids)
    if not counts:
        return {}
    top = counts.most_common(1)[0][1]
    return {t: 10.0 * c / top for t, c in counts.items()}


def brute_force_tfidf(doc_tokens, all_docs_tokens) -> dict[int, float]:
    """tf-idf for one document against a list of documents' token lists."""
    n_docs = len(all_docs_tokens)
    df = Counter()
    for toks in all_docs_tokens:
        for t in set(toks):
            df[t] += 1
    counts = Counter(doc_tokens)
    raw = {t: c * math.log(n_docs / df.get(t, 1)) for t, c in counts.items()}
    if not raw:
        return {}
    top = max(raw.values())
    if top <= 0:
        return {t: 0.0 for t in raw}
    return {t: 10.0 * v / top for t, v in raw.items()}


def greedy_fill_spans(counts, target) -> list[tuple[int, int]]:
    """Reference greedy segmentation over sentence token counts."""
    spans = []
    i = 0
    n = len(counts)
    while i < n:
        j = i + 1
        total = counts[i]
        while j < n and total + counts[j] <= target:
            total += counts[j]
            j += 1
        spans.append((i, j))
        i = j
    return spans


def merge_undersized_spans(spans, word_counts, min_sentences: int,
                           min_words: int) -> list[tuple[int, int]]:
    """Reference merge rule of segmentation: fold the first span under the
    filter into the span before it (the leading span into the one after
    it), then search again from the start."""
    spans = list(spans)
    merged = True
    while merged and len(spans) > 1:
        merged = False
        for k, (a, b) in enumerate(spans):
            if b - a < min_sentences or sum(word_counts[a:b]) < min_words:
                if k == 0:
                    spans[0:2] = [(spans[0][0], spans[1][1])]
                else:
                    spans[k - 1:k + 1] = [(spans[k - 1][0], b)]
                merged = True
                break
    return spans


def greedy_end_loop(off, s0: int, limit: int, budget: int) -> int:
    """The last sentence end from s0, at or before limit, whose run from s0
    fits the budget, stepped one sentence at a time (s0 when none fit)."""
    s = s0
    while s < limit and off[s + 1] - off[s0] <= budget:
        s += 1
    return s


def run_backward_loop(off, s_end: int, budget: int):
    """The greedy run of whole sentences ending at sentence s_end, grown one
    sentence at a time, with the mid-sentence fallback when none fits:
    (token_start, token_end, first sentence)."""
    end = int(off[s_end])
    s = s_end
    total = 0
    while s > 0 and total + (off[s] - off[s - 1]) <= budget:
        total += int(off[s] - off[s - 1])
        s -= 1
    if s == s_end:
        start = max(int(off[s_end - 1]), end - max(1, budget))
        return start, end, s_end - 1
    return end - total, end, s


def student_t_two_sided_p_quadrature(t_stat, df, n_points=2_000_001) -> float:
    """Two-sided p via Simpson integration of the t density over [0, |t|]."""
    t_abs = abs(float(t_stat))
    if t_abs == 0.0:
        return 1.0
    log_norm = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
                - 0.5 * math.log(df * math.pi))

    def density(x):
        return math.exp(log_norm - ((df + 1) / 2.0) * math.log1p(x * x / df))

    h = t_abs / (n_points - 1)
    acc = density(0.0) + density(t_abs)
    for k in range(1, n_points - 1):
        acc += density(k * h) * (4 if k % 2 else 2)
    central = acc * h / 3.0
    return max(0.0, 1.0 - 2.0 * central)


def adjacent_pair_accuracy_chance() -> float:
    return 0.5


# ------------------------------------------------------- fused tensor ops
# The fused tape nodes of mtpretrain.tensor written as chains of primitive
# nodes, the way the library built them before fusion. Their gradients come
# from the primitives' backward passes, not from the closed forms.

def _primitive_exp(x):
    data = np.exp(x.data)

    def backward(g):
        x._accumulate(g * data)

    return Tensor._result(data, (x,), backward)


def primitive_linear(x, weight, bias):
    return x @ weight + bias


def primitive_softmax(x):
    shift = tz.constant(x.data.max(axis=-1, keepdims=True))
    e = _primitive_exp(x - shift)
    return e * e.sum(axis=-1, keepdims=True) ** -1.0


def primitive_layer_norm(x, gamma, beta, eps=1e-12):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    return centered * inv * gamma + beta


def primitive_gelu(x):
    inner = 0.7978845608028654 * (x + 0.044715 * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def primitive_dropout(x, p, rng):
    keep = 1.0 - p
    mask = (rng.random(x.data.shape) < keep).astype(x.data.dtype) / keep
    return x * tz.constant(mask)


def primitive_attention(q, k, v, bias, heads, scale, p, rng):
    """tz.attention as the chain of ops it replaced in Model.encode: the
    flat rows reshaped and transposed into heads, q @ k, the scale, the
    (B, L) key bias as a constant, tz.softmax, tz.dropout, probs @ v, and
    the context transposed back to flat rows."""
    b, seq = bias.shape
    rows, h = q.shape
    m, d = rows // b, h // heads
    q4 = q.reshape(b, m, heads, d).transpose(0, 2, 1, 3)
    k4 = k.reshape(b, seq, heads, d).transpose(0, 2, 3, 1)
    v4 = v.reshape(b, seq, heads, d).transpose(0, 2, 1, 3)
    scores = (q4 @ k4) * scale + tz.constant(bias[:, None, None, :])
    probs = tz.dropout(tz.softmax(scores), p, rng)
    return (probs @ v4).transpose(0, 2, 1, 3).reshape(rows, h)


# ------------------------------------------------------ batch stages per row
# taskbuild's stages 2-4 the way they ran before they took whole-batch
# draws: one segment or row at a time, each slot in column order. They take
# the draws the library made, handed out front to back by DrawQueue, in
# place of a generator, so a row built here must equal the library's row.

POS, ID, CORRUPT = 0, 1, 2
SPECIAL, FRESH = -1, -2
INSERT, REPLACE, PERMUTE = 0, 1, 2
TRIGRAM_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                 (2, 1, 0)]


class RecordingRng:
    """A numpy Generator that records a copy of every draw's result, with
    the arguments it was called with."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.calls: "list[tuple[str, tuple, np.ndarray]]" = []

    def random(self, *args, **kwargs):
        out = self.rng.random(*args, **kwargs)
        self.calls.append(("random", args, np.copy(out)))
        return out

    def integers(self, *args, **kwargs):
        out = self.rng.integers(*args, **kwargs)
        self.calls.append(("integers", args, np.copy(out)))
        return out


class DrawQueue:
    """One kind of recorded draw, handed out front to back."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def take(self, n: int) -> list:
        out = self.values[self.used:self.used + n]
        assert len(out) == n, "the library drew fewer values than needed"
        self.used += n
        return out

    def next(self):
        return self.take(1)[0]

    def done(self) -> bool:
        return self.used == len(self.values)


def layout_rows(reader, vocab, rows) -> "list[np.ndarray]":
    """Stage 1's rows of (document, start, end) segments as (3, n) arrays:
    [CLS] A [SEP] (B [SEP])."""
    out = []
    for segments in rows:
        cols = [(SPECIAL, vocab.cls_id)]
        for doc, start, end in segments:
            base = int(reader.doc_starts[doc])
            tokens = reader.documents[doc].token_ids[start:end]
            cols += [(base + start + k, int(t)) for k, t in enumerate(tokens)]
            cols.append((SPECIAL, vocab.sep_id))
        row = np.zeros((3, len(cols)), dtype=np.int64)
        row[POS], row[ID] = zip(*cols)
        out.append(row)
    return out


def corrupt_segment(row, draws, trim_to: int) -> np.ndarray:
    """Stage 2 on one segment, from the queues uniform, op, partner (high,
    value) and fresh id: returns the corrupted, trimmed segment."""
    n = row.shape[1]
    special = row[POS] == SPECIAL
    uniform = np.array(draws["uniform"].take(n))
    selected = ((uniform < 0.10) & ~special).nonzero()[0].tolist()
    if not selected:
        return row[:, :trim_to]
    ops = draws["op"].take(len(selected))
    take = list(range(n))  # the source column of each output column
    moved = []
    for k, i in enumerate(selected):
        if ops[k] != PERMUTE:
            continue
        candidates = [j for j in selected if j != i]
        for j in (i - 1, i + 1):
            if 0 <= j < n and not special[j] and j not in candidates:
                candidates.append(j)
        if not candidates:
            ops[k] = REPLACE
            continue
        high, pick = draws["partner"].next()
        assert high == len(candidates)
        j = candidates[pick]
        take[i], take[j] = take[j], take[i]
        moved += [take[i], take[j]]
    row[CORRUPT, moved] = 1
    fresh = [(i, op) for i, op in zip(selected, ops) if op != PERMUTE]
    if fresh:
        cols = np.empty((3, len(fresh)), dtype=np.int64)
        cols[POS] = FRESH
        cols[ID] = draws["fresh"].take(len(fresh))
        cols[CORRUPT] = 1
        row = np.concatenate([row, cols], axis=1)
        # from the right, so an insertion shifts no column still to come
        for k in reversed(range(len(fresh))):
            i, op = fresh[k]
            if op == REPLACE:
                take[i] = n + k
            else:
                take.insert(i + 1, n + k)
    return row[:, take[:trim_to]]


def corrupt_row(row, draws) -> np.ndarray:
    """Stage 2 on each segment of a row, the specials kept in place."""
    parts, start = [], 0
    for end in (row[POS] == SPECIAL).nonzero()[0].tolist():
        if end > start:
            parts.append(corrupt_segment(row[:, start:end].copy(), draws,
                                         end - start))
        parts.append(row[:, end:end + 1])
        start = end + 1
    return np.concatenate(parts, axis=1)


def shuffle_trigram_row(row, draws) -> "tuple[int, int]":
    """Stage 3 on one row in place, from the queues start (high, value) and
    class: returns the start and class, or (-1, -1)."""
    ok = row[POS] != SPECIAL
    starts = (ok[:-2] & ok[1:-1] & ok[2:]).nonzero()[0]
    if not starts.size:
        return -1, -1
    high, pick = draws["start"].next()
    assert high == starts.size
    s = int(starts[pick])
    klass = int(draws["class"].next())
    row[:, s:s + 3] = row[:, [s + k for k in TRIGRAM_PERMS[klass]]]
    return s, klass


def mask_row(row, draws, mask_id: int) -> "tuple[list[int], list[int]]":
    """Stage 4 on one row in place, from the queues uniform, fallback
    (high, value), split and id: returns the chosen columns and their ids
    before masking."""
    maskable = (row[POS] != SPECIAL).nonzero()[0]
    if not maskable.size:
        return [], []
    uniform = np.array(draws["uniform"].take(maskable.size))
    chosen = maskable[uniform < 0.15]
    if not chosen.size:
        high, pick = draws["fallback"].next()
        assert high == maskable.size
        chosen = maskable[[pick]]
    targets = row[ID, chosen].tolist()
    for i in chosen.tolist():
        r = draws["split"].next()
        if r < 0.8:
            row[ID, i] = mask_id
        elif r < 0.8 + 0.1:
            row[ID, i] = draws["id"].next()
    return chosen.tolist(), targets


# ------------------------------------------------------- sentence splitting
# corpus.split_sentences as it ran before it looked only at terminal words:
# every word in turn is tested against the rule.

def _ends_sentence(word: str, next_word: "str | None", abbreviations,
                   closers: str, openers: str) -> bool:
    core = word.rstrip(closers)
    if not core or core[-1] not in ".!?":
        return False
    if core[-1] == ".":
        if core.lower() in abbreviations:
            return False
        if len(core) == 2 and core[0].isalpha() and core[0].isupper():
            return False
    if next_word is None:
        return True
    start = next_word[0]
    return start.isupper() or start.isdigit() or start in openers


def split_sentences_per_word(text: str, abbreviations, closers: str,
                             openers: str) -> "list[str]":
    words = text.split()
    sentences, current = [], []
    for i, word in enumerate(words):
        current.append(word)
        nxt = words[i + 1] if i + 1 < len(words) else None
        if _ends_sentence(word, nxt, abbreviations, closers, openers):
            sentences.append(" ".join(current))
            current = []
    if current:
        sentences.append(" ".join(current))
    return sentences


def fs_loss_per_pair(cls, hidden, content, floor: float) -> float:
    """loss_fs pair by pair: row i's [CLS] against row i + B/2's content
    tokens and back, one cosine per token, in plain float64 numpy."""
    b = len(cls)
    m = b // 2
    logs = []
    for i in range(m):
        for owner, source in ((i, i + m), (i + m, i)):
            for col in np.nonzero(content[source])[0]:
                u, v = cls[owner], hidden[source, col]
                cos = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
                logs.append(math.log(min(max((cos + 1) / 2, floor), 1.0)))
    return -sum(logs) / len(logs) if logs else 0.0


# ------------------------------------------------------------ tape liveness

def graph_ids(roots) -> "set[int]":
    """The ids of every tape node (a tensor with parents) under roots."""
    ids, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node.parents and id(node) not in ids:
            ids.add(id(node))
            stack.extend(node.parents)
    return ids


def live_tensor_ids() -> "set[int]":
    """The ids of every tensor still alive, as the garbage collector sees
    them. A dead node's id can be reused only by a tensor made after it
    died."""
    return {id(o) for o in gc.get_objects() if isinstance(o, Tensor)}
