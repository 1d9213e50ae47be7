"""Significance testing over per-run score tables.

Implements the run-comparison pipeline: per-label mean and sample standard
deviation, a Monte Carlo Lilliefors normality check, two-sample t-tests
against a baseline, and Bonferroni correction.

The t-test defaults to the Welch (unequal-variance) form with the
Welch-Satterthwaite degrees of freedom; the pooled-variance form is
available via equal_var=True. The two-sided p-value is computed from the
Student-t CDF through the regularized incomplete beta function
I_x(df/2, 1/2) with x = df / (df + t^2), evaluated by the standard
continued-fraction expansion (modified Lentz iteration).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

LILLIEFORS_SIMULATIONS = 200_000
LILLIEFORS_SEED = 20260814


class AnalysisError(ValueError):
    pass


@dataclass
class RunStats:
    label: str
    scores: "list[float]"

    def __post_init__(self):
        self.scores = [float(s) for s in self.scores]
        if any(not math.isfinite(s) for s in self.scores):
            raise AnalysisError(f"{self.label}: non-finite score")


def mean_std(runs: RunStats) -> "tuple[float, float]":
    n = len(runs.scores)
    if n < 2:
        raise AnalysisError(
            f"{runs.label}: need at least 2 runs for a deviation, got {n}")
    arr = np.asarray(runs.scores, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1))


# ----------------------------------------------------- t distribution CDF

_BETACF_MAX_ITER = 300
_BETACF_EPS = 3e-14
_BETACF_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_FPMIN:
        d = _BETACF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise AnalysisError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    if df <= 0:
        raise AnalysisError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def ttest_independent(a: RunStats, b: RunStats,
                      equal_var: bool = False) -> "tuple[float, float]":
    """Two-sample t-test; Welch by default, pooled with equal_var=True."""
    mean_a, std_a = mean_std(a)
    mean_b, std_b = mean_std(b)
    na, nb = len(a.scores), len(b.scores)
    va, vb = std_a ** 2, std_b ** 2
    if va == 0.0 and vb == 0.0:
        raise AnalysisError(
            f"both samples have zero variance ({a.label} vs {b.label})")
    if equal_var:
        pooled = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
        if pooled == 0.0:
            raise AnalysisError("zero pooled variance")
        t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
        df = float(na + nb - 2)
    else:
        sa, sb = va / na, vb / nb
        t = (mean_a - mean_b) / math.sqrt(sa + sb)
        df = (sa + sb) ** 2 / (sa ** 2 / (na - 1) + sb ** 2 / (nb - 1))
    return t, student_t_two_sided_p(t, df)


def bonferroni(p_values, m: int) -> "list[float]":
    if m < len(list(p_values)):
        raise AnalysisError(
            f"correction factor {m} below the number of comparisons")
    return [min(1.0, p * m) for p in p_values]


# ------------------------------------------------------------- lilliefors

def _normal_cdf(z: np.ndarray) -> np.ndarray:
    scaled = (z / math.sqrt(2.0)).ravel().tolist()
    erf = np.fromiter(map(math.erf, scaled), np.float64, len(scaled))
    return 0.5 * (1.0 + erf.reshape(z.shape))


def _ks_distance(z: np.ndarray) -> np.ndarray:
    """KS distance of each sorted, standardized row from the standard
    normal CDF."""
    n = z.shape[-1]
    cdf = _normal_cdf(z)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return np.maximum((upper - cdf).max(axis=-1), (cdf - lower).max(axis=-1))


def lilliefors_statistic(samples) -> float:
    """KS distance of standardized samples from the standard normal CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    std = x.std(ddof=1)
    if std == 0.0:
        raise AnalysisError("constant sample has no normality statistic")
    return float(_ks_distance((x - x.mean()) / std))


def lilliefors_test(samples,
                    n_simulations: int = LILLIEFORS_SIMULATIONS) -> float:
    """Monte Carlo p-value for the Lilliefors normality test.

    Simulates the null distribution of the statistic (normal samples of the
    same size, mean and deviation re-estimated per sample, drawn from
    LILLIEFORS_SEED) and reports the fraction at least as extreme as the
    observed statistic.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n < 4:
        raise AnalysisError(f"need at least 4 samples, got {n}")
    observed = lilliefors_statistic(x)
    rng = np.random.default_rng(LILLIEFORS_SEED)
    sims = rng.standard_normal((n_simulations, n))
    sims = (sims - sims.mean(axis=1, keepdims=True)) \
        / sims.std(axis=1, ddof=1, keepdims=True)
    sims.sort(axis=1)
    return float((_ks_distance(sims) >= observed).mean())


# ------------------------------------------------------------ run tables

def load_runs_csv(path) -> "list[RunStats]":
    runs = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0].strip().lower() != "label":
            raise AnalysisError(f"{path}: expected a header starting with "
                                f"'label'")
        for lineno, row in enumerate(reader, 2):
            if not row or not "".join(row).strip():
                continue
            try:
                runs.append(RunStats(row[0].strip(),
                                     [float(v) for v in row[1:] if v.strip()]))
            except ValueError as exc:
                raise AnalysisError(f"{path}:{lineno}: {exc}") from exc
    if not runs:
        raise AnalysisError(f"{path}: no run rows")
    return runs


@dataclass
class Comparison:
    label: str
    t: float
    p_raw: float
    p_corrected: float


@dataclass
class AnalysisReport:
    summaries: "list[tuple[str, float, float, float]]"  # label, mean, std, lilliefors p
    baseline: str
    comparisons: "list[Comparison]"


def analyze_runs(runs: "list[RunStats]", baseline: str,
                 equal_var: bool = False,
                 n_simulations: int = LILLIEFORS_SIMULATIONS) -> AnalysisReport:
    by_label = {r.label: r for r in runs}
    if baseline not in by_label:
        raise AnalysisError(
            f"baseline {baseline!r} not among labels {sorted(by_label)}")
    summaries = []
    for r in runs:
        m, s = mean_std(r)
        summaries.append((r.label, m, s,
                          lilliefors_test(r.scores, n_simulations)))
    others = [r for r in runs if r.label != baseline]
    raw = []
    ts = []
    for r in others:
        t, p = ttest_independent(r, by_label[baseline], equal_var=equal_var)
        ts.append(t)
        raw.append(p)
    corrected = bonferroni(raw, len(others)) if others else []
    comparisons = [Comparison(r.label, t, p, pc)
                   for r, t, p, pc in zip(others, ts, raw, corrected)]
    return AnalysisReport(summaries=summaries, baseline=baseline,
                          comparisons=comparisons)
