import gc
import math
import subprocess
import sys
import types

import numpy as np
import pytest

import oracles
from mtpretrain import arrayfile
from mtpretrain import tensor as tz
from mtpretrain.tensor import Tensor


pytestmark = pytest.mark.usefixtures("float64_mode")


def finite_diff(loss_fn, params, eps=1e-6):
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            up = loss_fn().item()
            flat[i] = saved - eps
            down = loss_fn().item()
            flat[i] = saved
            gf[i] = (up - down) / (2 * eps)
        grads[name] = g
    return grads


def assert_grads_close(loss_fn, params, tol=1e-6):
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    numeric = finite_diff(loss_fn, params)
    for name, p in params.items():
        got = p.grad if p.grad is not None else np.zeros_like(p.data)
        np.testing.assert_allclose(got, numeric[name], rtol=tol, atol=tol,
                                   err_msg=name)


# ------------------------------------------------------------ forward values

def test_gelu_at_zero():
    assert tz.gelu(Tensor(0.0)).item() == 0.0


def test_gelu_matches_reference_points():
    # reference values from the tanh approximation evaluated with mpmath
    x = Tensor(np.array([1.0, -1.0, 2.0]))
    y = tz.gelu(x).data
    for xi, yi in zip([1.0, -1.0, 2.0], y):
        inner = math.sqrt(2 / math.pi) * (xi + 0.044715 * xi ** 3)
        assert yi == pytest.approx(0.5 * xi * (1 + math.tanh(inner)), abs=1e-12)


def test_softmax_uniform():
    out = tz.softmax(Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 7)) * 30)
    out = tz.softmax(x)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-6)


def test_layer_norm_standardizes():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(5, 16)))
    gamma = Tensor(np.ones(16))
    beta = Tensor(np.zeros(16))
    y = tz.layer_norm(x, gamma, beta).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-6
    np.testing.assert_allclose(y.var(axis=-1), np.ones(5), atol=1e-4)


def test_cosine_self_is_one():
    u = Tensor(np.array([[3.0, -4.0, 1.0]]))
    assert tz.cosine_similarity(u, u).data[0] == pytest.approx(1.0, abs=1e-9)


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((2, 4)))
    loss = tz.cross_entropy(logits, np.array([0, 3]))
    assert loss.item() == pytest.approx(math.log(4.0))
    loss = tz.vocab_cross_entropy(Tensor(np.zeros((2, 3))),
                                  Tensor(np.zeros((4, 3))),
                                  Tensor(np.zeros(4)), np.array([0, 3]))
    assert loss.item() == pytest.approx(math.log(4.0))


def test_cross_entropy_shape_errors():
    with pytest.raises(tz.ShapeError):
        tz.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))
    with pytest.raises(tz.ShapeError):
        tz.cross_entropy(Tensor(np.zeros(3)), np.array([0]))


@pytest.mark.parametrize("targets,match", [
    ([-1, 0], "target -1 outside"), ([0, 3], "target 3 outside"),
    ([2, 7], "target 7 outside"), ([0.0, 1.0], r"float64 \[0.0\]"),
    ([1, 0.5], r"float64 \[1.0\]")], ids=["-1", "K", "beyond-K", "float",
                                     "fraction"])
def test_cross_entropy_nodes_refuse_bad_targets(targets, match):
    t = np.array(targets)
    with pytest.raises(tz.ShapeError, match=match):
        tz.cross_entropy(Tensor(np.zeros((2, 3))), t)
    with pytest.raises(tz.ShapeError, match=match):
        tz.vocab_cross_entropy(Tensor(np.zeros((2, 4))),
                               Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)), t)
    assert issubclass(tz.ShapeError, ValueError)


def test_vocab_cross_entropy_shape_errors():
    s, w, b = Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), \
        Tensor(np.zeros(3))
    for args in ((Tensor(np.zeros((2, 5))), w, b),
                 (s, Tensor(np.zeros(4)), b), (s, w, Tensor(np.zeros(4))),
                 (Tensor(np.zeros(4)), w, b)):
        with pytest.raises(tz.ShapeError, match="vocab_cross_entropy shapes"):
            tz.vocab_cross_entropy(*args, np.array([0, 1]))
    with pytest.raises(tz.ShapeError, match="targets"):
        tz.vocab_cross_entropy(s, w, b, np.array([0]))


def test_matmul_shape_error_names_shapes():
    with pytest.raises(tz.ShapeError, match=r"\(2, 3\)"):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


def test_dropout_eval_is_identity():
    x = Tensor(np.arange(6.0))
    y = tz.dropout(x, 0.0, np.random.default_rng(0))
    assert y is x


def test_dropout_inverted_scaling_mean():
    rng = np.random.default_rng(2)
    x = Tensor(np.ones(200_000))
    y = tz.dropout(x, 0.1, rng)
    kept = y.data[y.data > 0]
    assert kept[0] == pytest.approx(1.0 / 0.9)
    assert y.data.mean() == pytest.approx(1.0, abs=5e-3)


# ----------------------------------------------------------------- gradients

def test_sum_gradient_is_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    w.sum().backward()
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_accumulates_without_zeroing():
    w = Tensor(np.array(2.0), requires_grad=True)
    (w * w).backward()
    (w * w).backward()
    assert w.grad == pytest.approx(8.0)


def test_a_parameter_has_its_leaf_node_from_construction():
    for p in (tz.parameter(np.ones(3)), Tensor(np.ones(3), requires_grad=True)):
        assert p.requires_grad and p.node is not None
        assert p.node.parents == () and p.node.backward is None
        assert p.node.data is p.data and p.grad is None
    c = tz.constant(np.ones(3))
    assert not c.requires_grad and c.node is None
    assert Tensor.__slots__ == ("data", "node")


def test_a_constant_takes_no_gradient():
    c = tz.constant(np.ones(3))
    c.grad = None    # nothing to clear
    with pytest.raises(ValueError, match="takes no gradient"):
        c.grad = np.ones(3)
    assert c.node is None and c.grad is None


def test_backward_rejects_non_scalar():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(tz.ShapeError, match="scalar"):
        (w * 2).backward()


# ------------------------------------------------------------ graph release

def spy_identity(x, check):
    """x passed on through a node whose backward calls check() first."""
    node = x.node

    def backward(g):
        check()
        node.accumulate(g)

    return tz._result(x.data, (node,), backward)


def test_backward_frees_each_node_during_the_walk():
    # by the time the identity's backward runs, the nodes of the two
    # layers above it are gone, though the loss is still held
    w = Tensor(np.random.default_rng(12).normal(size=(3, 4)),
               requires_grad=True)
    upper, alive = [], []

    def build():
        ident = spy_identity(w, lambda: alive.append(
            len(upper[0] & oracles.live_node_ids())))
        top = tz.gelu(tz.gelu(ident) * 2.0)
        upper.append(oracles.graph_ids([top]) - oracles.graph_ids([ident]))
        return top.sum()

    loss = build()
    assert len(upper[0]) == 3
    loss.backward()
    assert alive == [0]


def test_backward_keeps_the_roots_value_and_drops_its_parents():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    loss = (w * w).sum()
    assert loss.parents
    loss.backward()
    assert loss.item() == 5.0 and loss.parents == ()
    np.testing.assert_array_equal(w.grad, [2.0, -4.0])


def test_a_second_backward_through_a_freed_graph_raises():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    loss = tz.gelu(w * 3.0).sum()
    loss.backward()
    first = w.grad.copy()
    with pytest.raises(tz.FreedGraphError, match="retain_graph=True"):
        loss.backward()
    np.testing.assert_array_equal(w.grad, first)


def test_a_new_graph_over_a_freed_intermediate_raises():
    # as a caller would reuse one task's loss after the total's backward
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    loss_map = {"a": (w * w).sum(), "b": tz.gelu(w).sum()}
    (loss_map["a"] + loss_map["b"]).backward()
    with pytest.raises(tz.FreedGraphError, match="retain_graph=True"):
        (loss_map["a"] * 2.0).backward()
    assert issubclass(tz.FreedGraphError, RuntimeError)


def test_retain_graph_keeps_the_graph_for_a_second_backward():
    w = Tensor(np.random.default_rng(13).normal(size=(3, 4)),
               requires_grad=True)

    def loss_fn():
        return (tz.gelu(w * 2.0) * w).sum()

    loss = loss_fn()
    loss.backward(retain_graph=True)
    assert loss.parents
    loss.backward()
    twice = w.grad
    w.grad = None
    loss_fn().backward()
    loss_fn().backward()
    np.testing.assert_array_equal(twice, w.grad)


def test_two_layer_net_matches_finite_differences():
    rng = np.random.default_rng(7)
    params = {
        "w1.weight": Tensor(rng.normal(size=(5, 8)) * 0.3, requires_grad=True),
        "w1.bias": Tensor(rng.normal(size=8) * 0.1, requires_grad=True),
        "w2.weight": Tensor(rng.normal(size=(8, 3)) * 0.3, requires_grad=True),
        "w2.bias": Tensor(rng.normal(size=3) * 0.1, requires_grad=True),
    }
    x = Tensor(rng.normal(size=(4, 5)))
    targets = np.array([0, 2, 1, 2])

    def loss_fn():
        h = tz.gelu(x @ params["w1.weight"] + params["w1.bias"])
        logits = h @ params["w2.weight"] + params["w2.bias"]
        return tz.cross_entropy(logits, targets)

    assert_grads_close(loss_fn, params, tol=1e-7)


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(8)
    params = {
        "n.gamma": Tensor(rng.normal(size=6) * 0.2 + 1.0, requires_grad=True),
        "n.beta": Tensor(rng.normal(size=6) * 0.2, requires_grad=True),
        "w": Tensor(rng.normal(size=(3, 6)), requires_grad=True),
    }

    def loss_fn():
        y = tz.layer_norm(params["w"], params["n.gamma"], params["n.beta"])
        return (y * y).sum()

    result = tz.check_gradients(loss_fn, params)
    assert result.max_error < 1e-5


def test_embedding_gradient_is_scatter_of_upstream():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([1, 1, 3])
    tz.index_rows(table, idx).sum().backward()
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_allclose(table.grad, expected, atol=1e-9)


def test_index_rows_gradient_reaches_a_transposed_table():
    # the gradient buffer must be contiguous even when the table is a view
    # with other strides, or the scatter-add lands in a temporary copy
    p = tz.parameter(np.random.default_rng(0).normal(size=(3, 4, 5)))
    tz.index_rows(p.transpose(0, 2, 1), [0, 2, 2]).sum().backward()
    expected = np.zeros((3, 4, 5))
    expected[0] = 1.0
    expected[2] = 2.0
    np.testing.assert_array_equal(p.grad, expected)
    assert p.grad.sum() == 60.0


def test_softmax_cosine_clamp_concat_gradcheck():
    rng = np.random.default_rng(9)
    params = {
        "a": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "b": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
    }

    def loss_fn():
        s = tz.softmax(params["a"] * 2.0)
        c = tz.cosine_similarity(params["a"], params["b"])
        cl = ((params["b"] * 0.3).clamp(-0.5, 0.5) ** 2.0).sum()
        cat = concat_loss(params)
        return s.sum() * 0.0 + (s * s).sum() + c.sum() + cl + cat

    def concat_loss(p):
        joined = tz.concat([p["a"], p["b"]], axis=-1)
        return (joined * joined).mean()

    result = tz.check_gradients(loss_fn, params)
    assert result.max_error < 1e-6


def test_batched_matmul_gradcheck():
    rng = np.random.default_rng(10)
    params = {
        "q": Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True),
        "k": Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True),
    }

    def loss_fn():
        prod = params["q"] @ params["k"]
        return (prod * prod).mean()

    result = tz.check_gradients(loss_fn, params)
    assert result.max_error < 1e-6


def test_check_gradients_requires_float64():
    tz.set_default_dtype("float32")
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError, match="float64"):
        tz.check_gradients(lambda: (w * w).sum(), {"w": w})
    tz.set_default_dtype("float64")


def test_check_gradients_frees_its_analytic_graph_first():
    # the analytic evaluation's graph is gone by the next forward. Every
    # later forward is tape-free, so a live node with a backward (a
    # closure or the freed marker) can only be an analytic one
    w = Tensor(np.random.default_rng(11).normal(size=(3, 4)),
               requires_grad=True)
    graphs, alive = [], []
    gc.collect()    # no other test's nodes left in cycles

    def loss_fn():
        if graphs:
            alive.append(oracles.live_taped_nodes())
        loss = tz.gelu(w * 2.0).sum()
        graphs.append(oracles.graph_ids([loss]))
        return loss

    tz.check_gradients(loss_fn, {"w": w}, max_entries=1)
    assert len(graphs) == 4 and graphs[0]
    assert alive == [0, 0, 0]


@pytest.mark.parametrize("max_entries", [0, -1])
def test_check_gradients_refuses_fewer_than_one_entry(max_entries):
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError, match="at least one entry"):
        tz.check_gradients(lambda: (w * w).sum(), {"w": w},
                           max_entries=max_entries)


def probe_params(seed=12):
    """Two parameters a loss can reach, w and b, and three it can leave.
    x lies on a 1/8 grid in [1, 2), where one shift of every entry keeps
    their differences exact; y and z span eight decades, down to entries
    that x + d - d does not give back."""
    rng = np.random.default_rng(seed)
    params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=5),
              "x": 1.0 + rng.integers(0, 8, size=(2, 6)) / 8.0,
              "y": rng.normal(size=7) * 10.0 ** rng.uniform(-8, 0, 7),
              "z": rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-8, 0, (4, 4))}
    return {name: tz.parameter(data) for name, data in params.items()}


def counted(loss_fn):
    """loss_fn with a call counter, read as `.calls`."""
    def wrapped():
        wrapped.calls += 1
        return loss_fn()
    wrapped.calls = 0
    return wrapped


@pytest.mark.parametrize("leak", ["product", "softmax"])
def test_check_gradients_probe_still_catches_a_read_through_data(leak):
    # x reaches the loss only through a constant, so backward leaves it
    # without a gradient; the joint probe must notice the loss move, and the
    # per-entry check then finds a numeric gradient against an analytic 0
    params = probe_params()
    w, x = params["w"], params["x"]

    def loss_fn():
        read = tz.constant(x.data).reshape(12)
        if leak == "softmax":    # blind to a shift of every entry at once
            read = tz.softmax(read)
        return (read.reshape(3, 4) * w).sum()

    result = tz.check_gradients(loss_fn, params)
    assert result.worst_param == "x"
    assert result.max_error == 1.0


def test_unused_parameters_cost_one_forward_in_total():
    params = probe_params()
    before = {name: p.data.copy() for name, p in params.items()}
    loss_fn = counted(lambda: (params["w"] * params["w"]).sum()
                      + (params["b"] * 3.0).sum())
    result = tz.check_gradients(loss_fn, params, max_entries=2)
    assert result.max_error < 1e-6
    # the analytic pass, the probe, the recording, then two per sampled
    # entry of w and b
    assert loss_fn.calls == 1 + 1 + 1 + 2 * (2 + 2)
    for name, p in params.items():
        assert p.data.tobytes() == before[name].tobytes(), name


def test_check_gradients_falls_back_when_the_loss_is_not_repeatable():
    # a loss that changes with every call moves under the probe, so every
    # parameter gets its per-entry differences
    params = probe_params()
    w = params["w"]
    loss_fn = counted(lambda: (w * w).sum() + 1e-3 * loss_fn.calls)
    tz.check_gradients(loss_fn, params, max_entries=3)
    entries = sum(min(3, p.data.size) for p in params.values())
    assert loss_fn.calls == 1 + 1 + 1 + 2 * entries


@pytest.mark.parametrize("failing_call", [2, 3, 4, 5])
def test_check_gradients_restores_parameters_when_the_loss_raises(
        failing_call):
    # call 2 is the probe of b, x, y and z, call 3 the recording; calls 4
    # and 5 are the first entry's two differences
    params = probe_params()
    before = {name: p.data.copy() for name, p in params.items()}
    w = params["w"]

    def loss_fn():
        if loss_fn.calls == failing_call:
            raise ArithmeticError("loss failed")
        return (w * w).sum()

    loss_fn = counted(loss_fn)
    with pytest.raises(ArithmeticError, match="loss failed"):
        tz.check_gradients(loss_fn, params)
    for name, p in params.items():
        assert p.data.tobytes() == before[name].tobytes(), name


def test_check_gradients_leaves_the_analytic_gradients_in_place():
    # the differences run no backward, so every .grad is the array the
    # analytic backward left, bit for bit
    params = probe_params()
    w, b = params["w"], params["b"]
    after_backward = {}

    def loss_fn():
        if loss_fn.calls == 2:    # the probe: the backward has run
            after_backward.update(
                {name: (p.grad, None if p.grad is None else p.grad.copy())
                 for name, p in params.items()})
        return (w * w).sum() + (b * 3.0).sum()

    loss_fn = counted(loss_fn)
    tz.check_gradients(loss_fn, params, max_entries=2)
    assert after_backward["w"][0] is not None
    assert after_backward["x"][0] is None
    for name, p in params.items():
        grad, copy = after_backward[name]
        assert p.grad is grad, name
        if copy is not None:
            assert p.grad.tobytes() == copy.tobytes(), name


def test_differences_rerun_only_the_ops_the_moved_parameter_reaches():
    rng = np.random.default_rng(13)
    params = {"u": tz.parameter(rng.normal(size=(3, 4))),
              "v": tz.parameter(rng.normal(size=(3, 4)))}
    hidden = []

    def loss_fn():
        h = tz.gelu(params["u"] * 2.0)
        hidden.append(h)
        return (h * params["v"]).sum()

    result = tz.check_gradients(loss_fn, params, max_entries=2)
    assert result == oracles.check_gradients_per_entry(loss_fn, params,
                                                       max_entries=2)
    # call 2 is the recording; calls 3-6 move u, calls 7-10 move v
    recorded = hidden[1]
    assert all(h is not recorded for h in hidden[2:6])
    assert all(h is recorded for h in hidden[6:10])


@pytest.mark.parametrize("source", ["fresh", "reset"])
def test_check_gradients_replays_nothing_once_an_op_takes_a_generator(
        source):
    # two dropouts draw from one generator, a fresh one or one reset to
    # the same state at every call: reusing the first dropout while b
    # moves would hand the second the first one's draws
    rng = np.random.default_rng(14)
    params = {"a": tz.parameter(rng.normal(size=(4, 5))),
              "b": tz.parameter(rng.normal(size=(4, 5)))}
    shared = np.random.default_rng(0)
    start = shared.bit_generator.state

    def loss_fn():
        if source == "fresh":
            gen = np.random.default_rng(0)
        else:
            gen = shared
            gen.bit_generator.state = start
        first = tz.dropout(params["a"] * 1.5, 0.5, gen)
        second = tz.dropout(params["b"] * 1.5, 0.5, gen)
        return (first * second).sum()

    want = oracles.check_gradients_per_entry(loss_fn, params)
    assert tz.check_gradients(loss_fn, params) == want
    assert want.max_error < 1e-6


def test_check_gradients_detaches_every_node_and_puts_it_back():
    # the recording and the differences run with no parameter node, so
    # they build no graph, and the check returns the same node objects,
    # frozen tensors (no node) included
    params = probe_params()
    params["frozen"] = Tensor(np.ones(3), requires_grad=False)
    nodes = {name: p.node for name, p in params.items()}
    w = params["w"]
    attached = []

    def loss_fn():
        attached.append(sum(p.node is not None for p in params.values()))
        return (w * w).sum()

    tz.check_gradients(loss_fn, params, max_entries=1)
    # the analytic pass, the probe, the recording and w's two differences
    assert attached == [5, 5, 0, 0, 0]
    for name, p in params.items():
        assert p.node is nodes[name], name


@pytest.mark.parametrize("failing_call", [2, 3, 4, 5])
def test_a_loss_that_raises_leaves_no_replay_behind(failing_call):
    # after the probe (2), the recording (3) or either difference (4, 5)
    # raises, no replay is left running, every parameter has the node it
    # had, frozen tensors included, and every array is bit-identical
    params = probe_params()
    params["frozen"] = Tensor(np.ones(3), requires_grad=False)
    nodes = {name: p.node for name, p in params.items()}
    before = {name: p.data.copy() for name, p in params.items()}
    w = params["w"]

    def loss_fn():
        if loss_fn.calls == failing_call:
            raise ArithmeticError("loss failed")
        return (w * w).sum()

    loss_fn = counted(loss_fn)
    with pytest.raises(ArithmeticError, match="loss failed"):
        tz.check_gradients(loss_fn, params)
    assert tz._replay is None
    for name, p in params.items():
        assert p.node is nodes[name], name
        assert p.data.tobytes() == before[name].tobytes(), name


# --------------------------------------------------------------------- adam

def test_adam_zero_gradient_fixed_point():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = tz.Adam({"w.weight": w}, weight_decay=0.0)
    w.grad = np.zeros(2)
    before = w.data.copy()
    opt.step(lr=0.1)
    np.testing.assert_array_equal(w.data, before)


def test_adam_single_step_hand_computed():
    w = Tensor(np.array(0.5), requires_grad=True)
    opt = tz.Adam({"w.weight": w}, weight_decay=0.0)
    w.grad = np.array(1.0)
    opt.step(lr=0.1)
    # bias correction makes m_hat = v_hat = g on step 1
    expected = 0.5 - 0.1 * 1.0 / (1.0 + 1e-6)
    assert w.data == pytest.approx(expected, abs=1e-12)


def test_adam_weight_decay_skips_bias_and_norm():
    names = ["head.weight", "head.bias", "norm.gamma", "norm.beta"]
    params = {n: Tensor(np.array(1.0), requires_grad=True) for n in names}
    opt = tz.Adam(params)
    for p in params.values():
        p.grad = np.array(0.0)
    opt.step(lr=0.1)
    assert params["head.weight"].data < 1.0  # decay pulled it down
    for n in names[1:]:
        assert params[n].data == pytest.approx(1.0)


def test_adam_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        opt = tz.Adam({"w.weight": w})
        for step in range(4):
            opt.zero_grad()
            ((w * w).sum()).backward()
            opt.step(lr=0.01)
        return w.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_adam_skips_params_without_grads():
    w = Tensor(np.array(1.0), requires_grad=True)
    u = Tensor(np.array(1.0), requires_grad=True)
    opt = tz.Adam({"w.weight": w, "u.weight": u}, weight_decay=0.0)
    w.grad = np.array(1.0)
    opt.step(lr=0.1)
    assert u.data == pytest.approx(1.0)
    assert w.data < 1.0


def test_adam_refuses_a_rebound_parameter_array():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    u = Tensor(np.array([3.0]), requires_grad=True)
    opt = tz.Adam({"w.weight": w, "u.weight": u}, weight_decay=0.0)
    ((w * w).sum() + u.sum()).backward()
    opt.step(lr=0.1)
    w.data *= 0.5    # filled in place: the node still sees its array
    opt.step(lr=0.1)
    u.data = u.data * 2.0
    before = w.data.copy()
    with pytest.raises(ValueError, match="'u.weight'"):
        opt.step(lr=0.1)
    np.testing.assert_array_equal(w.data, before)   # no update at all
    assert opt.t == 2


# ----------------------------------------------------------------- schedule

def test_lr_endpoints():
    total = 1_000_000
    assert tz.lr_at(0, total) == 0.0
    assert tz.lr_at(total, total) == 0.0
    assert tz.lr_at(0.01 * total, total) == pytest.approx(1e-4)


def test_lr_piecewise_linear_and_continuous():
    total = 500_000
    pts = np.linspace(0, total, 2001)
    vals = np.array([tz.lr_at(t, total) for t in pts])
    assert vals.max() <= 1e-4 + 1e-18
    # continuity: no jump bigger than the linear segment slope allows
    steepest = 1e-4 / (0.01 * total)
    assert np.abs(np.diff(vals)).max() <= steepest * (pts[1] - pts[0]) + 1e-15


def test_lr_zero_total_errors():
    with pytest.raises(ValueError):
        tz.lr_at(0, 0)


# -------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip(tmp_path):
    tz.set_default_dtype("float32")
    rng = np.random.default_rng(11)
    params = {
        "emb.weight": Tensor(rng.normal(size=(7, 4)).astype(np.float32),
                             requires_grad=True),
        "emb.bias": Tensor(rng.normal(size=4).astype(np.float32),
                           requires_grad=True),
    }
    opt = tz.Adam(params)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step(lr=0.01)
    path = tmp_path / "state.mtpt"
    tz.save_checkpoint(path, params, opt, config={"layers": 2}, step=3,
                       tokens_seen=30)
    ck = tz.load_checkpoint(path)
    assert ck.config == {"layers": 2}
    assert ck.train_state == {"step": 3, "tokens_seen": 30}
    assert ck.adam_t == 1
    for name, p in params.items():
        np.testing.assert_array_equal(ck.params[name], p.data)
        np.testing.assert_array_equal(ck.adam_m[name], opt.m[name])
        np.testing.assert_array_equal(ck.adam_v[name], opt.v[name])
    tz.set_default_dtype("float64")


def test_interrupted_checkpoint_write_keeps_previous(tmp_path,
                                                     fail_writes_after):
    params = {"w.weight": Tensor(np.arange(6.0).reshape(2, 3),
                                 requires_grad=True)}
    path = tmp_path / "ck.mtpt"
    tz.save_checkpoint(path, params, tz.Adam(params), config={"run": 1},
                       step=4, tokens_seen=40)
    before = path.read_bytes()

    fail_writes_after(40)
    params["w.weight"].data += 1.0
    with pytest.raises(OSError, match="disk full"):
        tz.save_checkpoint(path, params, tz.Adam(params), config={"run": 1},
                           step=9, tokens_seen=90)
    assert path.read_bytes() == before
    assert tz.load_checkpoint(path).train_state == {"step": 4,
                                                    "tokens_seen": 40}
    assert [p.name for p in tmp_path.iterdir()] == ["ck.mtpt"]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mtpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(tz.CheckpointError, match="bad.mtpt: bad magic"):
        tz.load_checkpoint(path)


@pytest.mark.parametrize("config, train_state", [
    ([1], {"step": 0, "tokens_seen": 0}),      # config not an object
    ({}, {"step": 0}),                         # no tokens_seen
    ({}, {"tokens_seen": 0}),                  # no step
    ({}, {"step": 1.5, "tokens_seen": 0}),     # step not an int
    ({}, {"step": 0, "tokens_seen": True}),    # tokens_seen not an int
])
def test_checkpoint_refuses_bad_config_or_train_state(tmp_path, config,
                                                      train_state):
    path = tmp_path / "odd.mtpt"
    path.write_bytes(arrayfile.pack(
        tz.CHECKPOINT_MAGIC, tz.CHECKPOINT_VERSION,
        {"config": config, "train_state": train_state, "params": ["w.bias"],
         "adam_t": 0}, [np.ones(3, dtype="<f4")] * 3))
    with pytest.raises(tz.CheckpointError, match=r"odd\.mtpt: config and "
                                                 r"train_state"):
        tz.load_checkpoint(path)


def test_save_checkpoint_refuses_what_load_would_refuse(tmp_path):
    params = {"w.bias": Tensor(np.ones(3), requires_grad=True)}
    path = tmp_path / "odd.mtpt"
    with pytest.raises(tz.CheckpointError, match=r"odd\.mtpt: config"):
        tz.save_checkpoint(path, params, tz.Adam(params), config=[1], step=0,
                           tokens_seen=0)
    with pytest.raises(TypeError):
        tz.save_checkpoint(path, params, tz.Adam(params), config={},
                           step=1.5, tokens_seen=0)
    assert not path.exists()


# ------------------------------------------------------- allocator pin

def pin_with(monkeypatch, lookup):
    """Call the allocator pin twice with ctypes.CDLL replaced by lookup.
    Its cache is cleared before and after, so the next call in this
    process pins again."""
    monkeypatch.setattr(tz.ctypes, "CDLL", lookup)
    tz._pin_malloc_thresholds.cache_clear()
    try:
        return [tz._pin_malloc_thresholds() for _ in range(2)]
    finally:
        tz._pin_malloc_thresholds.cache_clear()


def test_malloc_thresholds_are_pinned_once_per_process(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    assert pin_with(monkeypatch, lambda name: types.SimpleNamespace(
        mallopt=mallopt)) == [True, True]
    assert calls == [(tz.M_TRIM_THRESHOLD, tz.MALLOC_TRIM_BYTES),
                     (tz.M_MMAP_THRESHOLD, tz.MALLOC_MMAP_BYTES)]


def no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("lookup", [no_c_library,
                                    lambda name: types.SimpleNamespace()],
                         ids=["no-library", "no-mallopt"])
def test_malloc_pin_does_nothing_without_mallopt(monkeypatch, lookup):
    assert pin_with(monkeypatch, lookup) == [False, False]


def test_tensor_imports_where_the_c_library_cannot_be_loaded():
    code = ("import ctypes\n"
            "import numpy\n"
            "def no_c_library(name):\n"
            "    raise OSError('no C library')\n"
            "ctypes.CDLL = no_c_library\n"
            "from mtpretrain import tensor\n"
            "assert tensor._pin_malloc_thresholds() is False\n"
            "assert float((tensor.parameter([2.0]) * 3.0).sum().data) == 6.0\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
