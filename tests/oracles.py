"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch with different
machinery than the library (plain loops, collections.Counter, quadrature)
so that agreement is meaningful. The fused tensor ops are checked against
chains of the library's primitive ops instead.
"""

from __future__ import annotations

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
