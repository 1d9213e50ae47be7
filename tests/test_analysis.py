import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtpretrain import analysis as an
from oracles import student_t_two_sided_p_quadrature


# ----------------------------------------------------------- mean and std

@given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_mean_std_matches_loop_oracle(xs):
    m, s = an.mean_std(an.RunStats("x", xs))
    mean = sum(xs) / len(xs)
    var = sum((v - mean) ** 2 for v in xs) / (len(xs) - 1)
    assert m == pytest.approx(mean, abs=1e-9)
    assert s == pytest.approx(math.sqrt(var), abs=1e-9)


def test_mean_std_needs_two_runs():
    with pytest.raises(an.AnalysisError):
        an.mean_std(an.RunStats("x", [1.0]))


def test_non_finite_scores_rejected():
    with pytest.raises(an.AnalysisError):
        an.RunStats("x", [1.0, float("nan")])


# -------------------------------------------------------- t distribution

@pytest.mark.parametrize("t,df", [
    (0.5, 1), (1.0, 2), (2.0, 4), (2.5, 5), (4.87, 7),
    (16.19, 4.9), (0.1, 19), (3.3, 12), (8.0, 20),
])
def test_two_sided_p_matches_quadrature(t, df):
    got = an.student_t_two_sided_p(t, df)
    want = student_t_two_sided_p_quadrature(t, df)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-12)


def test_two_sided_p_symmetric_and_bounded():
    for t in (0.3, 1.7, 6.0):
        p = an.student_t_two_sided_p(t, 8)
        assert p == an.student_t_two_sided_p(-t, 8)
        assert 0.0 < p < 1.0
    assert an.student_t_two_sided_p(0.0, 8) == 1.0


def test_two_sided_p_monotone_in_t():
    ps = [an.student_t_two_sided_p(t, 6) for t in np.linspace(0.1, 10, 25)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_incomplete_beta_reflection():
    for a, b, x in [(2.5, 0.5, 0.3), (1.0, 4.0, 0.8), (3.0, 3.0, 0.5)]:
        lhs = an.regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - an.regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)
    assert an.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert an.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


def test_degrees_of_freedom_must_be_positive():
    with pytest.raises(an.AnalysisError):
        an.student_t_two_sided_p(1.0, 0)


# ----------------------------------------------------------------- t-test

def test_welch_test_matches_hand_computation():
    a = an.RunStats("a", [10.1, 10.5, 9.9, 10.3, 10.2])
    b = an.RunStats("b", [9.0, 9.8, 9.4])
    t, p = an.ttest_independent(a, b)
    ma, sa = an.mean_std(a)
    mb, sb = an.mean_std(b)
    wa, wb = sa ** 2 / 5, sb ** 2 / 3
    t_hand = (ma - mb) / math.sqrt(wa + wb)
    df_hand = (wa + wb) ** 2 / (wa ** 2 / 4 + wb ** 2 / 2)
    assert t == pytest.approx(t_hand, rel=1e-12)
    assert p == pytest.approx(an.student_t_two_sided_p(t_hand, df_hand),
                              rel=1e-12)


def test_pooled_test_uses_integer_dof():
    a = an.RunStats("a", [10.1, 10.5, 9.9, 10.3, 10.2])
    b = an.RunStats("b", [9.0, 9.8, 9.4])
    t, p = an.ttest_independent(a, b, equal_var=True)
    ma, sa = an.mean_std(a)
    mb, sb = an.mean_std(b)
    pooled = (4 * sa ** 2 + 2 * sb ** 2) / 6
    t_hand = (ma - mb) / math.sqrt(pooled * (1 / 5 + 1 / 3))
    assert t == pytest.approx(t_hand, rel=1e-12)
    assert p == pytest.approx(an.student_t_two_sided_p(t_hand, 6.0), rel=1e-12)
    t_w, p_w = an.ttest_independent(a, b)
    assert p != p_w


def test_ttest_antisymmetric():
    a = an.RunStats("a", [1.0, 2.0, 3.0, 4.0])
    b = an.RunStats("b", [2.5, 3.5, 4.5])
    ta, pa = an.ttest_independent(a, b)
    tb, pb = an.ttest_independent(b, a)
    assert ta == pytest.approx(-tb, rel=1e-12)
    assert pa == pytest.approx(pb, rel=1e-12)


def test_ttest_identical_constant_samples_rejected():
    a = an.RunStats("a", [2.0, 2.0, 2.0])
    with pytest.raises(an.AnalysisError):
        an.ttest_independent(a, a)


# -------------------------------------------------------------- bonferroni

def test_bonferroni_scales_and_clips():
    assert an.bonferroni([0.01, 0.4, 0.9], 3) == [0.03, 1.0, 1.0]
    assert an.bonferroni([], 0) == []
    # an iterator is read once
    assert an.bonferroni((p for p in [0.01, 0.02]), 2) == [0.02, 0.04]
    with pytest.raises(an.AnalysisError):
        an.bonferroni([0.1, 0.2], 1)


# -------------------------------------------------------------- lilliefors

def test_lilliefors_statistic_matches_loop_oracle():
    rng = np.random.default_rng(0)
    xs = rng.normal(3.0, 2.0, size=9)
    got = an.lilliefors_statistic(xs)
    z = np.sort((xs - xs.mean()) / xs.std(ddof=1))
    n = len(z)
    worst = 0.0
    for i in range(n):
        cdf = 0.5 * (1 + math.erf(z[i] / math.sqrt(2)))
        worst = max(worst, abs((i + 1) / n - cdf), abs(cdf - i / n))
    assert got == pytest.approx(worst, abs=1e-12)


def test_lilliefors_monte_carlo_is_stable():
    xs = [78.1, 78.3, 77.9, 78.0, 78.4]
    p1 = an.lilliefors_test(xs, n_simulations=50_000)
    p2 = an.lilliefors_test(xs, n_simulations=100_000)
    assert abs(p1 - p2) < 0.01


def test_lilliefors_separates_normal_from_bimodal():
    rng = np.random.default_rng(1)
    normal = rng.normal(size=40)
    bimodal = np.concatenate([rng.normal(-4, 0.2, 20),
                              rng.normal(4, 0.2, 20)])
    assert an.lilliefors_test(normal, n_simulations=20_000) > 0.05
    assert an.lilliefors_test(bimodal, n_simulations=20_000) < 0.01


def test_lilliefors_input_validation():
    with pytest.raises(an.AnalysisError):
        an.lilliefors_test([1.0, 2.0, 3.0])
    with pytest.raises(an.AnalysisError):
        an.lilliefors_statistic([5.0, 5.0, 5.0, 5.0])


# --------------------------------------------------------------- csv input

def test_load_runs_csv_roundtrip(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("label,run1,run2,run3\n"
                    "base,78.1,78.3,77.9\n"
                    "\n"
                    "variant,80.2,80.6,80.4\n")
    runs = an.load_runs_csv(path)
    assert [r.label for r in runs] == ["base", "variant"]
    assert runs[1].scores == [80.2, 80.6, 80.4]


def test_load_runs_csv_ragged_rows_ok(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("label,run1,run2,run3\nbase,78.1,78.3,\n")
    runs = an.load_runs_csv(path)
    assert runs[0].scores == [78.1, 78.3]


def test_load_runs_csv_header_required(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("base,78.1,78.3\n")
    with pytest.raises(an.AnalysisError):
        an.load_runs_csv(path)


def test_load_runs_csv_bad_value_reports_line(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("label,run1\nbase,78.1\nweird,oops\n")
    with pytest.raises(an.AnalysisError, match=r"runs\.csv:3"):
        an.load_runs_csv(path)


def test_load_runs_csv_empty_table_rejected(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("label,run1\n")
    with pytest.raises(an.AnalysisError):
        an.load_runs_csv(path)


# ----------------------------------------------------------- full pipeline

def test_analyze_runs_frozen_report():
    from mtpretrain.cli import bundled_demo_runs
    runs = an.load_runs_csv(bundled_demo_runs())
    report = an.analyze_runs(runs, "mlm")
    means = {label: m for label, m, _, _ in report.summaries}
    assert means["mlm"] == pytest.approx(78.134, abs=1e-9)
    assert means["nsp"] == pytest.approx(77.4828, abs=1e-9)
    assert means["cmtl_plus"] == pytest.approx(80.600, abs=1e-9)
    lill = {label: p for label, _, _, p in report.summaries}
    assert lill["mlm"] == pytest.approx(0.713295, abs=1e-6)
    assert lill["nsp"] == pytest.approx(0.139220, abs=1e-6)
    assert lill["cmtl_plus"] == pytest.approx(0.659435, abs=1e-6)
    by_label = {c.label: c for c in report.comparisons}
    assert by_label["nsp"].t == pytest.approx(-4.87088514, rel=1e-8)
    assert by_label["nsp"].p_corrected == pytest.approx(2.54677812e-03,
                                                        rel=1e-8)
    assert by_label["cmtl_plus"].t == pytest.approx(16.19497032, rel=1e-8)
    assert by_label["cmtl_plus"].p_corrected == pytest.approx(1.06920463e-06,
                                                              rel=1e-8)
    assert report.baseline == "mlm"


def test_analyze_runs_unknown_baseline():
    runs = [an.RunStats("a", [1.0, 2.0]), an.RunStats("b", [1.5, 2.5])]
    with pytest.raises(an.AnalysisError, match="baseline"):
        an.analyze_runs(runs, "zzz", n_simulations=1000)
