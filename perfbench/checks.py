"""Correctness checks made apart from the program under test.

Each check compares the program's output with a value the benchmark works
out itself (closed-form counts, its own copy of the corpus, its own central
differences) or with a property the method must have. Every function
returns a list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np

LEARNING_SIGMAS = 3.0       # the tail must sit this many standard errors lower
INIT_LOSS_TOLERANCE = 0.1   # first-step loss within 10% of ln K
# tcp and cap label single tokens, about 90% of them 0. A logit offset b
# that the init gives every token alike moves such a head's loss by about
# 0.4 b, not by b^2 / 8 as on balanced labels: over 400 seeds of token-mix
# their step-0 losses lay between -12% and +15% of ln 2 (sd 4%).
SKEWED_HEADS = ("tcp", "cap")
SKEWED_INIT_TOLERANCE = 0.25
FD_TOLERANCE = 1e-4         # relative error floor-1e-4 form, as criterion 3
TALLY_SIGMAS = 5.0          # mask counts must lie this close to their rates


def finite_losses(loss_rows: "list[dict[str, float]]") -> "list[str]":
    bad = [(i, t) for i, row in enumerate(loss_rows)
           for t, v in row.items() if not math.isfinite(v)]
    return [f"non-finite {t} loss at step {i}" for i, t in bad[:5]]


def initial_losses(first: "dict[str, float]",
                   classes: "dict[str, int]") -> "list[str]":
    """Near-uniform init: a K-way head starts within 10% of ln K, or
    within 25% for the heads on skewed token labels."""
    out = []
    for task, k in classes.items():
        want = math.log(k)
        tol = SKEWED_INIT_TOLERANCE if task in SKEWED_HEADS \
            else INIT_LOSS_TOLERANCE
        if abs(first[task] - want) > tol * want:
            out.append(f"{task} first-step loss {first[task]:.4f} not within "
                       f"{tol:.0%} of ln {k} = {want:.4f}")
    return out


def learning(loss_rows: "list[dict[str, float]]", tasks,
             order_only: "dict[str, int]") -> "list[str]":
    """Each task's last-tenth mean sits clearly below its first-tenth mean.

    "Clearly" means by more than LEARNING_SIGMAS standard errors of the
    difference of the two window means. A task in order_only (name -> K)
    has labels that only a model of word order can predict; the run is too
    short for that, so it must instead stay within tolerance of ln K.
    """
    n = len(loss_rows)
    k = max(2, n // 10)
    out = []
    for task in tasks:
        seq = np.array([row[task] for row in loss_rows], dtype=np.float64)
        head, tail = seq[:k], seq[-k:]
        if task in order_only:
            cap = math.log(order_only[task]) * (1 + INIT_LOSS_TOLERANCE)
            if tail.mean() > cap:
                out.append(f"{task} last-tenth mean {tail.mean():.4f} above "
                           f"{cap:.4f}")
            continue
        se = math.sqrt(head.var(ddof=1) / k + tail.var(ddof=1) / k)
        drop = head.mean() - tail.mean()
        if not drop > LEARNING_SIGMAS * se:
            out.append(f"{task} did not learn: first-tenth mean "
                       f"{head.mean():.4f}, last-tenth {tail.mean():.4f}, "
                       f"needs a drop above {LEARNING_SIGMAS * se:.4f}")
    return out


def descent(before: float, after: float) -> "list[str]":
    """One optimizer step at the scheduled first-step learning rate lowers
    the loss on the batch it was taken on: the step follows the gradient,
    and that rate is small enough for the first-order term to win."""
    if after < before:
        return []
    return [f"first step did not lower its batch's loss: {before:.6f} "
            f"before, {after:.6f} after"]


def equal(label: str, got, want) -> "list[str]":
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


def same_digests(digests: "list[str]") -> "list[str]":
    """Rounds of one seed do identical work, so their losses are equal."""
    if len(set(digests)) <= 1:
        return []
    return [f"rounds with one seed gave different losses: "
            f"{sorted(set(digests))}"]


def checkpoint_writes(n_steps: int, batch_tokens: int, total_tokens: int) -> int:
    """Periodic writes every ceil(interval / batch) steps, plus the final one."""
    interval = max(batch_tokens, total_tokens // 10)
    every = -(-interval // batch_tokens)
    return n_steps // every + 1


# ------------------------------------------------------------ batch checks

def content_mask(batch) -> np.ndarray:
    return np.asarray(batch.attention_mask, bool) & \
        ~np.asarray(batch.special_mask, bool)


def so_rows(batch, doc_ids: "list[np.ndarray]") -> "list[str]":
    """Undoing the swap label restores a contiguous run of the document."""
    out = []
    content = content_mask(batch)
    ids = np.asarray(batch.input_ids)
    types = np.asarray(batch.type_ids)
    labels = np.asarray(batch.labels["so"])
    for r, meta in enumerate(batch.meta):
        seg_a = ids[r][(types[r] == 0) & content[r]]
        seg_b = ids[r][(types[r] == 1) & content[r]]
        first, second = (seg_b, seg_a) if labels[r] == 1 else (seg_a, seg_b)
        lo = min(meta.token_start, meta.b_token_start)
        hi = max(meta.token_end, meta.b_token_end)
        want = doc_ids[meta.doc_index][lo:hi]
        if meta.doc_index != meta.b_doc_index or \
                not np.array_equal(np.concatenate([first, second]), want):
            out.append(f"row {r}: segments do not restore to document "
                       f"{meta.doc_index}[{lo}:{hi}]")
    return out[:5]


class MaskTally:
    """Counts for the 15% selection and the 80/10/10 split, over batches.

    Each count is binomial, so it must lie within TALLY_SIGMAS standard
    deviations of its rate. At 3 sigma a correct program would fail one of
    the three counts in about one run of 120; at 5 sigma in one of about
    600,000. Over the batches of a whole round a selection rate of 14.5%
    instead of 15% still lies about 6 sigma out.
    """

    def __init__(self):
        self.content = 0
        self.selected = 0
        self.masked = 0
        self.kept = 0

    def add(self, batch, mask_id: int) -> None:
        lab = batch.labels["mlm"]
        pos = lab["positions"]
        inputs = np.asarray(batch.input_ids)[pos[:, 0], pos[:, 1]]
        self.content += int(content_mask(batch).sum())
        self.selected += int(pos.shape[0])
        self.masked += int((inputs == mask_id).sum())
        self.kept += int((inputs == lab["targets"]).sum())

    def verdict(self, n_sampleable: int) -> "list[str]":
        out = []
        p_keep = 0.1 + 0.1 / n_sampleable
        for label, got, n, p in (
                ("selected", self.selected, self.content, 0.15),
                ("[MASK]", self.masked, self.selected, 0.8),
                ("kept", self.kept, self.selected, p_keep)):
            sigma = math.sqrt(n * p * (1 - p))
            if abs(got - p * n) >= TALLY_SIGMAS * sigma:
                out.append(f"{label} {got} of {n}: outside "
                           f"{TALLY_SIGMAS:g} sigma of {p:.4f}")
        return out


def token_labels(batch) -> "list[str]":
    """tcp/cap are zero off content; scp is any(tcp) for each row."""
    out = []
    content = content_mask(batch)
    for task in ("tcp", "cap"):
        lab = batch.labels[task]
        for key in ("labels", "weights"):
            if np.any(np.asarray(lab[key])[~content] != 0):
                out.append(f"{task} {key} set on a special or pad position")
    tcp_any = np.asarray(batch.labels["tcp"]["labels"]).any(axis=1)
    scp = np.asarray(batch.labels["scp"]).astype(bool)
    rows = np.nonzero(tcp_any != scp)[0]
    if rows.size:
        out.append(f"scp label disagrees with any(tcp) on rows "
                   f"{rows[:5].tolist()}")
    return out


def corpus_store(reader, doc_ids: "list[np.ndarray]",
                 caps: "list[np.ndarray]", cap_flag: int) -> "list[str]":
    """The store holds the benchmark's documents, one record each, in order."""
    if len(reader.documents) != len(doc_ids):
        return [f"store holds {len(reader.documents)} documents, "
                f"want {len(doc_ids)}"]
    for i, (doc, want, cap) in enumerate(zip(reader.documents, doc_ids, caps)):
        if not np.array_equal(doc.token_ids, want):
            return [f"document {i}: stored token ids differ from the text"]
        if not np.array_equal((doc.flags & cap_flag) != 0, cap.astype(bool)):
            return [f"document {i}: capitalization flags differ"]
    return []


# -------------------------------------------------------- gradient checks

def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)


def central_difference(loss_fn, param, index, eps: float = 1e-5) -> float:
    saved = param.data[index]
    param.data[index] = saved + eps
    up = loss_fn().item()
    param.data[index] = saved - eps
    down = loss_fn().item()
    param.data[index] = saved
    return (up - down) / (2.0 * eps)


def max_error(worst: float) -> "list[str]":
    """The program's worst relative error over every checked entry."""
    if worst < FD_TOLERANCE:
        return []
    return [f"max relative error {worst:.3e} not below {FD_TOLERANCE:.0e}"]


def task_cover(sets, tasks) -> "list[str]":
    """The checked task sets together hold every task."""
    return equal("tasks covered", sorted({t for ts in sets for t in ts}),
                 sorted(tasks))


def fd_agreement(pairs: "list[tuple[str, float, float]]") -> "list[str]":
    """(name, analytic, numeric) triples must agree to FD_TOLERANCE."""
    bad = [(n, a, x, relative_error(a, x)) for n, a, x in pairs
           if not relative_error(a, x) < FD_TOLERANCE]
    return [f"{n}: analytic {a:.6e} vs central difference {x:.6e} "
            f"(rel err {e:.2e})" for n, a, x, e in bad[:5]]
