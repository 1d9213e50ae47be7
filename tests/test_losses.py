import math

import numpy as np
import pytest

from mtpretrain import losses as ls
from mtpretrain import tensor as tz
from mtpretrain.tasks import TaskError
from oracles import fs_loss_per_pair


# ------------------------------------------------------------ cross entropy

def test_token_ce_uniform_logits_ln_k():
    logits = tz.constant(np.zeros((5, 7)))
    out = ls.loss_token_ce(logits, np.arange(5) % 7)
    assert out.item() == pytest.approx(math.log(7), rel=1e-6)


def test_token_ce_empty_targets_are_zero():
    out = ls.loss_token_ce(tz.constant(np.zeros((0, 6))),
                           np.array([], dtype=int))
    assert out.item() == 0.0


def test_token_ce_perfect_prediction_near_zero():
    logits = np.full((3, 4), -30.0)
    logits[np.arange(3), [1, 2, 0]] = 30.0
    out = ls.loss_token_ce(tz.constant(logits), [1, 2, 0])
    assert out.item() < 1e-8


# -------------------------------------------------------------- regression

def test_regression_weighted_mean():
    preds = tz.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    values = np.array([[0.0, 2.0], [0.0, 0.0]])
    weights = np.array([[1.0, 1.0], [0.0, 2.0]])
    # contributions: (1-0)^2*1 + 0 + 0 + (4-0)^2*2 = 33 over weight 4
    out = ls.loss_regression(preds, values, weights)
    assert out.item() == pytest.approx(33.0 / 4.0, rel=1e-6)


def test_regression_zero_weights_zero_loss():
    preds = tz.constant(np.ones((2, 3)))
    out = ls.loss_regression(preds, np.zeros((2, 3)), np.zeros((2, 3)))
    assert out.item() == 0.0


# ------------------------------------------------------------- contrastive

def test_qt_identical_halves_is_uniform():
    # identical [CLS] for every row: all similarities equal, so the softmax
    # is uniform over the half-batch candidates
    cls = tz.constant(np.tile(np.array([1.0, 2.0, 3.0]), (8, 1)))
    out = ls.loss_qt(cls)
    assert out.item() == pytest.approx(math.log(4), rel=1e-6)


def test_qt_perfectly_matched_pairs_near_zero():
    rng = np.random.default_rng(0)
    half = rng.normal(size=(6, 16))
    cls = tz.constant(np.concatenate([half, half]))
    out = ls.loss_qt(cls)
    # cos(i, i) = 1 vs off-diagonal < 1, sharpened by the 0.1 temperature
    assert out.item() < 0.05


def test_qt_closed_form_two_pairs():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    cls = tz.constant(np.concatenate([a, a]))
    out = ls.loss_qt(cls)
    # each direction: ln(1 + e^-10) per row with cos in {1, 0} and tau 0.1;
    # float32 exp/log keeps about 4 digits at this magnitude
    want = math.log(1.0 + math.exp(-10.0))
    assert out.item() == pytest.approx(want, rel=1e-3)


def test_qt_scale_invariance():
    rng = np.random.default_rng(1)
    cls = rng.normal(size=(8, 12))
    a = ls.loss_qt(tz.constant(cls)).item()
    b = ls.loss_qt(tz.constant(cls * 37.0)).item()
    assert a == pytest.approx(b, rel=1e-6)


def test_qt_rejects_odd_batch():
    with pytest.raises(ValueError):
        ls.loss_qt(tz.constant(np.zeros((5, 4))))


# ----------------------------------------------------------- continuation

def test_fs_orthogonal_gives_ln2():
    # cos = 0 everywhere: p = 1/2, loss = ln 2
    cls = np.zeros((2, 4))
    cls[0, 0] = 1.0
    cls[1, 1] = 1.0
    hidden = np.zeros((2, 3, 4))
    hidden[:, :, 2] = 1.0
    content = np.ones((2, 3), dtype=bool)
    out = ls.loss_fs(tz.constant(cls), tz.constant(hidden), content)
    assert out.item() == pytest.approx(math.log(2), rel=1e-6)


def test_fs_aligned_better_than_opposed():
    cls = np.array([[1.0, 0.0], [1.0, 0.0]])
    aligned = np.ones((2, 2, 2)) * np.array([1.0, 0.0])
    opposed = np.ones((2, 2, 2)) * np.array([-1.0, 0.0])
    content = np.ones((2, 2), dtype=bool)
    lo = ls.loss_fs(tz.constant(cls), tz.constant(aligned), content).item()
    hi = ls.loss_fs(tz.constant(cls), tz.constant(opposed), content).item()
    assert lo < 1e-6
    assert hi > 10.0  # clamped at the probability floor, not infinite
    assert math.isfinite(hi)


def test_fs_excludes_non_content_positions():
    rng = np.random.default_rng(2)
    cls = rng.normal(size=(2, 4))
    hidden = rng.normal(size=(2, 5, 4))
    content = np.zeros((2, 5), dtype=bool)
    content[:, 1] = True
    out = ls.loss_fs(tz.constant(cls), tz.constant(hidden), content)
    # corrupt every excluded position: loss must not move
    hidden2 = hidden.copy()
    hidden2[:, [0, 2, 3, 4]] = 99.0
    out2 = ls.loss_fs(tz.constant(cls), tz.constant(hidden2), content)
    assert out.item() == pytest.approx(out2.item(), rel=1e-12)


def test_fs_empty_content_zero_loss():
    out = ls.loss_fs(tz.constant(np.zeros((2, 4))),
                     tz.constant(np.zeros((2, 3, 4))),
                     np.zeros((2, 3), dtype=bool))
    assert out.item() == 0.0


def test_fs_pairs_cross_batch_halves():
    # row 0's [CLS] must be scored against row 1's tokens (its continuation),
    # not its own
    cls = np.array([[1.0, 0.0], [0.0, 1.0]])
    hidden = np.zeros((2, 1, 2))
    hidden[0, 0] = [0.0, 1.0]   # row 0 tokens align with row 1's [CLS]
    hidden[1, 0] = [1.0, 0.0]   # row 1 tokens align with row 0's [CLS]
    content = np.ones((2, 1), dtype=bool)
    out = ls.loss_fs(tz.constant(cls), tz.constant(hidden), content)
    assert out.item() < 1e-6


def test_fs_matches_per_pair_reference(float64_mode):
    rng = np.random.default_rng(4)
    for b in (2, 4, 6, 10, 16):
        for density in (0.0, 0.1, 0.6, 1.0):
            cls = rng.normal(size=(b, 5))
            hidden = rng.normal(size=(b, 7, 5))
            content = rng.random((b, 7)) < density
            out = ls.loss_fs(tz.constant(cls), tz.constant(hidden), content)
            ref = fs_loss_per_pair(cls, hidden, content, ls.FS_PROB_FLOOR)
            assert out.item() == pytest.approx(ref, rel=1e-12, abs=1e-12)


# -------------------------------------------------------------- combining

def test_combine_losses_sums_unweighted():
    parts = {
        "mlm": tz.constant(1.5),
        "tf": tz.constant(0.25),
    }
    total = ls.combine_losses(parts, ("mlm", "tf"))
    assert total.item() == pytest.approx(1.75)


def test_combine_losses_empty_set_rejected():
    with pytest.raises(TaskError):
        ls.combine_losses({}, ())
    with pytest.raises(TaskError):
        ls.combine_losses({"mlm": tz.constant(1.0)}, ("mlm", "tf"))


def test_combined_loss_backward_reaches_both_tasks():
    w1 = tz.parameter(np.array([2.0]))
    w2 = tz.parameter(np.array([3.0]))
    parts = {
        "a": (w1 * w1).sum(),
        "b": (w2 * w2 * w2).sum(),
    }
    total = ls.combine_losses(parts, ("a", "b"))
    total.backward()
    assert w1.grad == pytest.approx(4.0)
    assert w2.grad == pytest.approx(27.0)
