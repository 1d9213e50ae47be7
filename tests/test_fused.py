"""The fused tape nodes against primitive-op chains, and gradient-buffer
ownership: a buffer handed to two parents must not be shared."""

import tracemalloc

import numpy as np
import pytest

import oracles
from mtpretrain import tensor as tz
from mtpretrain.model import MASK_BIAS
from mtpretrain.tensor import Tensor


pytestmark = pytest.mark.usefixtures("float64_mode")


def param(rng, *shape, scale=1.0, shift=0.0):
    return tz.parameter(rng.normal(size=shape) * scale + shift)


def run(fn, inputs, upstream):
    """fn's output, and the gradients of sum(fn(*inputs) * upstream)."""
    for t in inputs:
        t.grad = None
    out = fn(*inputs)
    (out * tz.constant(upstream)).sum().backward()
    return out.data, [t.grad for t in inputs]


def assert_matches_oracle(fused, oracle, inputs, rng):
    upstream = rng.normal(size=fused(*inputs).shape)
    got, got_grads = run(fused, inputs, upstream)
    want, want_grads = run(oracle, inputs, upstream)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
    for k, (g, w) in enumerate(zip(got_grads, want_grads)):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12,
                                   err_msg=f"input {k}")


# ----------------------------------------------------------- oracles

def test_linear_matches_primitive_chain():
    rng = np.random.default_rng(20)
    inputs = [param(rng, 2, 3, 5), param(rng, 5, 4), param(rng, 4)]
    assert_matches_oracle(tz.linear, oracles.primitive_linear, inputs, rng)


def test_layer_norm_matches_primitive_chain():
    rng = np.random.default_rng(21)
    inputs = [param(rng, 3, 4, 6, scale=2.0, shift=1.5),
              param(rng, 6, scale=0.3, shift=1.0), param(rng, 6, scale=0.3)]
    assert_matches_oracle(tz.layer_norm, oracles.primitive_layer_norm,
                          inputs, rng)
    # gamma and beta gradients sum over both leading axes
    assert inputs[1].grad.shape == inputs[2].grad.shape == (6,)


def test_gelu_matches_primitive_chain():
    rng = np.random.default_rng(22)
    inputs = [param(rng, 2, 3, 7, scale=3.0)]
    assert_matches_oracle(tz.gelu, oracles.primitive_gelu, inputs, rng)


def test_softmax_matches_primitive_chain():
    rng = np.random.default_rng(23)
    inputs = [param(rng, 2, 3, 5, scale=4.0)]
    assert_matches_oracle(tz.softmax, oracles.primitive_softmax, inputs, rng)


def test_softmax_under_mask_bias_is_exactly_zero():
    rng = np.random.default_rng(24)
    masked = np.zeros((2, 1, 6), dtype=bool)
    masked[0, 0, 4:] = True
    masked[1, 0, 1] = True
    bias = tz.constant(np.where(masked, MASK_BIAS, 0.0))
    scores = param(rng, 2, 3, 6, scale=3.0)

    def fused(x):
        return tz.softmax(x + bias)

    def oracle(x):
        return oracles.primitive_softmax(x + bias)

    assert_matches_oracle(fused, oracle, [scores], rng)
    full = np.broadcast_to(masked, (2, 3, 6))
    probs, (grad,) = run(fused, [scores], rng.normal(size=(2, 3, 6)))
    assert np.all(probs[full] == 0.0)
    assert np.all(grad[full] == 0.0)
    assert np.all(grad[~full] != 0.0)


def test_dropout_draws_the_same_mask_as_the_primitive_chain():
    rng = np.random.default_rng(25)
    x = param(rng, 3, 4, 5)
    upstream = rng.normal(size=(3, 4, 5))
    got, (got_grad,) = run(
        lambda t: tz.dropout(t, 0.3, np.random.default_rng(7)), [x], upstream)
    want, (want_grad,) = run(
        lambda t: oracles.primitive_dropout(t, 0.3, np.random.default_rng(7)),
        [x], upstream)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_grad, want_grad)
    assert (got == 0.0).any() and (got != 0.0).any()


def test_dropout_consumes_the_same_generator_stream():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    x = Tensor(np.ones((4, 6)), requires_grad=True)
    tz.dropout(x, 0.5, a)
    oracles.primitive_dropout(x, 0.5, b)
    assert a.random() == b.random()


# --------------------------------------------------------- attention

ATT_B, ATT_L, ATT_HEADS, ATT_H = 3, 5, 2, 8


def attention_inputs(rng, m):
    """Flat q (B*m, H), k and v (B*L, H), and a (B, L) key bias that pads
    the tail of row 0 and one key inside row 2."""
    q = param(rng, ATT_B * m, ATT_H)
    k, v = param(rng, ATT_B * ATT_L, ATT_H), param(rng, ATT_B * ATT_L, ATT_H)
    bias = np.zeros((ATT_B, ATT_L))
    bias[0, 3:] = MASK_BIAS
    bias[2, 1] = MASK_BIAS
    return [q, k, v], bias


@pytest.mark.parametrize("p", [0.0, 0.4])
@pytest.mark.parametrize("m", [ATT_L, 1])
def test_attention_matches_primitive_chain(m, p):
    rng = np.random.default_rng(50)
    inputs, bias = attention_inputs(rng, m)
    upstream = rng.normal(size=(ATT_B * m, ATT_H))
    results, states = [], []
    for fn in (tz.attention, oracles.primitive_attention):
        draws = np.random.default_rng(7)
        results.append(run(
            lambda *qkv: fn(*qkv, bias, ATT_HEADS, 0.35, p, draws),
            inputs, upstream))
        states.append(draws.bit_generator.state)
    (got, got_grads), (want, want_grads) = results
    np.testing.assert_array_equal(got, want)
    for k, (g, w) in enumerate(zip(got_grads, want_grads)):
        np.testing.assert_array_equal(g, w, err_msg=f"input {k}")
    # both drew the same mask, and nothing with dropout off
    assert states[0] == states[1]
    assert (states[0] == np.random.default_rng(7).bit_generator.state) \
        == (p == 0.0)
    # padded keys pass no gradient to their values
    value_grad = got_grads[2].reshape(ATT_B, ATT_L, ATT_H)
    assert np.all(value_grad[0, 3:] == 0.0) and np.all(value_grad[2, 1] == 0.0)
    if p == 0.0:
        assert np.all(value_grad[1] != 0.0)


@pytest.mark.parametrize("p", [0.0, 0.4])
@pytest.mark.parametrize("m", [ATT_L, 1])
def test_attention_gradient_check(m, p):
    rng = np.random.default_rng(51)
    (q, k, v), bias = attention_inputs(rng, m)
    c = tz.constant(rng.normal(size=(ATT_B * m, ATT_H)))

    def loss_fn():
        draws = np.random.default_rng(8)
        return (tz.attention(q, k, v, bias, ATT_HEADS, 0.35, p, draws)
                * c).sum()

    result = tz.check_gradients(loss_fn, {"q": q, "k": k, "v": v})
    assert result.max_error < 1e-4, result


@pytest.mark.parametrize("q_rows, kv_rows, bias_shape, heads", [
    (15, 15, (3, 5), 3),      # H=8 does not split into 3 heads
    (14, 15, (3, 5), 2),      # query rows not a multiple of B
    (15, 12, (3, 5), 2),      # key rows not B*L
    (15, 15, (15,), 2),       # bias not (B, L)
])
def test_attention_refuses_mismatched_shapes(q_rows, kv_rows, bias_shape,
                                             heads):
    rng = np.random.default_rng(52)
    q, k, v = (param(rng, n, ATT_H) for n in (q_rows, kv_rows, kv_rows))
    with pytest.raises(tz.ShapeError, match="attention shapes"):
        tz.attention(q, k, v, np.zeros(bias_shape), heads, 0.5, 0.0, None)


# ------------------------------------------------- buffer ownership

def test_constants_get_no_gradient():
    rng = np.random.default_rng(26)
    w = param(rng, 4, 3)
    x = tz.constant(rng.normal(size=(5, 4)))
    bias = tz.constant(rng.normal(size=3))
    tz.cross_entropy(tz.linear(x, w, bias), np.arange(5) % 3).backward()
    assert w.grad is not None
    assert x.grad is None and bias.grad is None


@pytest.mark.parametrize("order", ["x_plus_x_first", "x_plus_y_first"])
def test_gradient_through_x_plus_x(order):
    rng = np.random.default_rng(27)
    x, y = param(rng, 3, 4), param(rng, 3, 4)
    c, d = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    doubled = ((x + x) * tz.constant(c)).sum()
    mixed = ((x + y) * tz.constant(d)).sum()
    loss = doubled + mixed if order == "x_plus_x_first" else mixed + doubled
    loss.backward()
    np.testing.assert_allclose(x.grad, 2 * c + d, rtol=1e-12)
    np.testing.assert_allclose(y.grad, d, rtol=1e-12)


def test_gradient_through_residual():
    rng = np.random.default_rng(28)
    params = {"x": param(rng, 2, 3, 4), "w": param(rng, 4, 4, scale=0.5),
              "b": param(rng, 4), "gamma": param(rng, 4, shift=1.0),
              "beta": param(rng, 4)}
    c = tz.constant(rng.normal(size=(2, 3, 4)))

    def loss_fn():
        x = params["x"]
        y = tz.layer_norm(x + tz.linear(x, params["w"], params["b"]),
                          params["gamma"], params["beta"])
        return (tz.gelu(y) * c).sum()

    assert tz.check_gradients(loss_fn, params).max_error < 1e-6


@pytest.mark.parametrize("order", ["reshape_head_first", "dense_head_first"])
def test_gradient_through_state_shared_by_two_heads(order):
    rng = np.random.default_rng(29)
    params = {"x": param(rng, 6, 4), "w": param(rng, 4, 4, scale=0.5),
              "b": param(rng, 4), "w1": param(rng, 4, 4), "b1": param(rng, 4)}
    c = tz.constant(rng.normal(size=(6, 4)))

    def loss_fn():
        hidden = tz.linear(params["x"], params["w"], params["b"])
        plain = hidden.reshape(2, 3, 4).reshape(6, 4)
        dense = tz.linear(hidden, params["w1"], params["b1"])
        both = plain + dense if order == "reshape_head_first" else dense + plain
        return (tz.softmax(both) * c).sum()

    assert tz.check_gradients(loss_fn, params).max_error < 1e-6


def test_two_backward_calls_accumulate_through_fused_nodes():
    rng = np.random.default_rng(30)
    params = {"a": param(rng, 5, 4), "b": param(rng, 5, 4),
              "w": param(rng, 4, 3), "bias": param(rng, 3),
              "gamma": param(rng, 4, shift=1.0), "beta": param(rng, 4)}
    targets = np.array([0, 2, 1, 1, 0])
    c = tz.constant(rng.normal(size=(5, 3)))

    def loss():
        h = tz.layer_norm(params["a"] + params["b"], params["gamma"],
                          params["beta"])
        logits = tz.linear(tz.gelu(h), params["w"], params["bias"])
        return tz.cross_entropy(logits, targets) + (tz.softmax(logits) * c).sum()

    loss().backward()
    once = {k: p.grad.copy() for k, p in params.items()}
    for p in params.values():
        p.grad = None
    loss().backward()
    loss().backward()
    for k, p in params.items():
        np.testing.assert_allclose(p.grad, 2 * once[k], rtol=1e-12,
                                   err_msg=k)


def test_backward_from_a_second_root_over_a_shared_graph():
    rng = np.random.default_rng(31)
    x, w, b = param(rng, 4, 3), param(rng, 3, 3), param(rng, 3)
    c1 = tz.constant(rng.normal(size=(4, 3)))
    c2 = tz.constant(rng.normal(size=(4, 3)))

    def hidden():
        return tz.gelu(tz.linear(x, w, b))

    shared = hidden()
    (shared * c1).sum().backward(retain_graph=True)
    w.grad = None
    (shared * c2).sum().backward()
    via_shared = w.grad
    w.grad = None
    (hidden() * c2).sum().backward()
    np.testing.assert_array_equal(via_shared, w.grad)


# ------------------------------------------- vocabulary cross-entropy

CHUNK = tz.VOCAB_CHUNK_ROWS


def composed_vocab_ce(states, table, bias, targets):
    """The node's oracle: the (n, V) logits formed whole, then scored."""
    return tz.cross_entropy(tz.linear(states, table.transpose(), bias),
                            targets)


def loss_and_grads(loss_fn, inputs, scale):
    """loss_fn's value, and the gradients of scale * loss_fn()."""
    for t in inputs:
        t.grad = None
    loss = loss_fn()
    (loss * scale).backward()
    return loss.item(), [t.grad for t in inputs]


def assert_same_loss_and_grads(got, want):
    assert abs(got[0] - want[0]) <= 1e-12
    for k, (g, w) in enumerate(zip(got[1], want[1])):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12,
                                   err_msg=f"input {k}")


@pytest.mark.parametrize("scale", [1.0, -2.5])
# at 64-row blocks: 253 ends in a partial block, 256 fills four blocks,
# 513 is one row past eight
@pytest.mark.parametrize("n", [1, 253, 256, 513])
def test_vocab_cross_entropy_matches_linear_and_cross_entropy(n, scale):
    rng = np.random.default_rng(40)
    states, table, bias = param(rng, n, 5), param(rng, 7, 5), param(rng, 7)
    targets = rng.integers(0, 7, size=n)
    inputs = [states, table, bias]
    got = loss_and_grads(
        lambda: tz.vocab_cross_entropy(states, table, bias, targets),
        inputs, scale)
    want = loss_and_grads(
        lambda: composed_vocab_ce(states, table, bias, targets),
        inputs, scale)
    assert_same_loss_and_grads(got, want)


def token_mix_vocab_inputs(seed):
    """float32 states, table, bias and targets at token-mix's shape: 490
    masked rows scored against a 2,009-word table of width 16, which
    spans eight row blocks."""
    tz.set_default_dtype("float32")   # the float64_mode fixture resets it
    rng = np.random.default_rng(seed)
    n, vocab, hidden = 490, 2009, 16
    return (param(rng, n, hidden), param(rng, vocab, hidden, scale=0.5),
            param(rng, vocab, scale=0.1), rng.integers(0, vocab, size=n))


@pytest.mark.parametrize("scale", [1.0, -2.5])
def test_vocab_cross_entropy_matches_the_oracle_in_float32(scale):
    # float32 sums over 2,009 words in a different order: a gradient may
    # differ from the oracle's by 1e-5 of its largest entry (~80 float32
    # epsilons; the errors seen are under 7e-7), the loss by 1e-6 of itself
    states, table, bias, targets = token_mix_vocab_inputs(43)
    inputs = [states, table, bias]
    got = loss_and_grads(
        lambda: tz.vocab_cross_entropy(states, table, bias, targets),
        inputs, scale)
    want = loss_and_grads(
        lambda: composed_vocab_ce(states, table, bias, targets),
        inputs, scale)
    assert got[0] == pytest.approx(want[0], rel=1e-6, abs=0)
    for k, (g, w) in enumerate(zip(got[1], want[1])):
        assert g.dtype == np.float32
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-5 * np.abs(w).max(),
                                   err_msg=f"input {k}")


def test_vocab_cross_entropy_scratch_stays_under_one_mib():
    # one logit block of 64 rows is 0.5 MiB at V=2,009 in float32; the
    # whole peak past the three gradients the node keeps stays under 1 MiB
    states, table, bias, targets = token_mix_vocab_inputs(44)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = tz.vocab_cross_entropy(states, table, bias, targets)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    loss.backward()
    kept = sum(t.grad.nbytes for t in (states, table, bias))
    assert peak - kept <= 1 << 20, (peak, kept)


def tied_vocab_loss(ce, emb, w, table, bias, ids, targets):
    """ce over states built from the rows of emb that ids name, scored
    against table: emb is table for a tied model."""
    return ce(tz.gelu(tz.index_rows(emb, ids) @ w), table, bias, targets)


def test_vocab_cross_entropy_tied_table_sums_both_paths():
    rng = np.random.default_rng(41)
    table, w, bias = param(rng, 9, 4), param(rng, 4, 4), param(rng, 9)
    ids = rng.integers(0, 9, size=CHUNK + 2)
    targets = rng.integers(0, 9, size=CHUNK + 2)
    inputs = [table, w, bias]
    got = loss_and_grads(lambda: tied_vocab_loss(
        tz.vocab_cross_entropy, table, w, table, bias, ids, targets),
        inputs, 1.0)
    want = loss_and_grads(lambda: tied_vocab_loss(
        composed_vocab_ce, table, w, table, bias, ids, targets), inputs, 1.0)
    assert_same_loss_and_grads(got, want)
    # the same table as two leaves: the tied gradient is their sum
    emb, head = (tz.parameter(table.data.copy()) for _ in range(2))
    tied_vocab_loss(tz.vocab_cross_entropy, emb, w, head, bias, ids,
                    targets).backward()
    assert np.abs(emb.grad).sum() > 0 and np.abs(head.grad).sum() > 0
    np.testing.assert_allclose(got[1][0], emb.grad + head.grad, rtol=0,
                               atol=1e-12)


def test_vocab_cross_entropy_from_a_second_root_over_a_shared_graph():
    rng = np.random.default_rng(42)
    table, w, bias = param(rng, 9, 4), param(rng, 4, 4), param(rng, 9)
    ids, targets = rng.integers(0, 9, size=6), rng.integers(0, 9, size=6)
    inputs = [table, w, bias]

    def loss():
        return tied_vocab_loss(tz.vocab_cross_entropy, table, w, table, bias,
                               ids, targets)

    shared = loss()
    shared.backward(retain_graph=True)
    first = [t.grad.copy() for t in inputs]
    for t in inputs:
        t.grad = None
    (shared * -0.5).backward()
    via_shared = [t.grad for t in inputs]
    for t in inputs:
        t.grad = None
    (loss() * -0.5).backward()
    for k, t in enumerate(inputs):
        np.testing.assert_array_equal(via_shared[k], t.grad)
        np.testing.assert_allclose(first[k] * -0.5, t.grad, rtol=1e-12,
                                   atol=1e-15)
