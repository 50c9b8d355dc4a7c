import tracemalloc

import numpy as np
import pytest

from concm.autodiff import Tape, grad_check
from concm.errors import DegenerateInput, InvalidInput, OrderError, ShapeError
from concm.optim import sgd_step


def test_linear_identity_weights_passthrough():
    t = Tape()
    x = t.input("x")
    w = t.constant(np.eye(3))
    y = t.matmul(x, w)
    feed = np.arange(6, dtype=float).reshape(2, 3)
    t.forward({"x": feed})
    np.testing.assert_array_equal(t.value(y), feed)


def test_softmax_symmetry():
    t = Tape()
    s = t.softmax(t.constant(np.array([[0.0, 0.0]])))
    t.forward({})
    np.testing.assert_allclose(t.value(s), [[0.5, 0.5]])


def test_two_layer_mlp_matches_straight_line_evaluation():
    gen = np.random.default_rng(11)
    w1, b1 = gen.standard_normal((4, 6)), gen.standard_normal((1, 6))
    w2, b2 = gen.standard_normal((6, 2)), gen.standard_normal((1, 2))
    x = gen.standard_normal((5, 4))

    t = Tape()
    xn = t.input("x")
    h = t.softplus(t.add(t.matmul(xn, t.param("w1", w1)), t.param("b1", b1)))
    out = t.add(t.matmul(h, t.param("w2", w2)), t.param("b2", b2))
    t.forward({"x": x})

    manual = np.logaddexp(0.0, x @ w1 + b1) @ w2 + b2
    np.testing.assert_allclose(t.value(out), manual, rtol=1e-15, atol=1e-15)


def test_quadratic_loss_gradient_is_x():
    t = Tape()
    x = t.param("x", np.array([[1.0, -2.0, 3.0]]))
    loss = t.scale(t.sum(t.mul(x, x)), 0.5)
    t.forward({})
    np.testing.assert_allclose(t.backward(loss)["x"], [[1.0, -2.0, 3.0]])
    assert grad_check(t, {}, loss) <= 1e-7


def test_broadcast_gradients():
    gen = np.random.default_rng(3)
    t = Tape()
    m = t.param("m", gen.standard_normal((4, 3)))
    row = t.param("row", gen.standard_normal((1, 3)))
    col = t.param("col", gen.standard_normal((4, 1)))
    out = t.mul(t.add(m, row), col)
    loss = t.mean(t.mul(out, out))
    assert grad_check(t, {}, loss) <= 1e-7


def test_normalize_softmax_log_chain_gradients():
    gen = np.random.default_rng(5)
    t = Tape()
    p = t.param("p", gen.standard_normal((3, 4)))
    z = t.l2_normalize(p)
    sm = t.softmax(t.scale(z, 3.0))
    loss = t.scale(t.mean(t.log(sm)), -1.0)
    assert grad_check(t, {}, loss) <= 1e-6
    t2 = Tape()
    q = t2.param("q", gen.standard_normal((2, 5)))
    loss2 = t2.scale(t2.mean(t2.log_softmax(q)), -1.0)
    assert grad_check(t2, {}, loss2) <= 1e-6


def test_masked_softmax_weights_and_gradients():
    gen = np.random.default_rng(6)
    x = gen.standard_normal((3, 5))
    mask = np.array([[1, 0, 1, 1, 0], [0, 0, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=bool)
    t = Tape()
    p = t.param("p", x)
    w = t.softmax(p, axis=1, mask=mask)
    loss = t.sum(t.mul(w, t.constant(gen.standard_normal((3, 5)))))
    t.forward({})
    out = t.value(w)
    assert np.all(out[~mask] == 0.0)
    for i in range(3):
        sel = x[i, mask[i]]
        e = np.exp(sel - sel.max())
        np.testing.assert_allclose(out[i, mask[i]], e / e.sum(), rtol=1e-15)
    assert np.all(t.backward(loss)["p"][~mask] == 0.0)
    assert grad_check(t, {}, loss) <= 1e-6


def test_masked_softmax_rejects_empty_slice_and_bad_shape():
    t = Tape()
    a = t.constant(np.zeros((2, 3)))
    with pytest.raises(InvalidInput):
        t.softmax(a, mask=np.array([[1, 0, 0], [0, 0, 0]]))
    t.softmax(a, mask=np.ones((2, 2)))
    with pytest.raises(ShapeError):
        t.forward({})


def test_stack_rows_of_params():
    gen = np.random.default_rng(8)
    a, b = gen.standard_normal((1, 3)), gen.standard_normal((2, 3))
    c = gen.standard_normal((1, 3))
    t = Tape()
    s = t.stack([t.param("a", a), t.constant(c), t.param("b", b)])
    out = t.softplus(t.matmul(s, t.constant(gen.standard_normal((3, 4)))))
    loss = t.mean(t.mul(out, out))
    t.forward({})
    np.testing.assert_array_equal(t.value(s), np.vstack([a, c, b]))
    assert grad_check(t, {}, loss) <= 1e-7
    t.stack([t.constant(a), t.constant(np.ones((1, 2)))])
    with pytest.raises(ShapeError):
        t.forward({})


def test_backward_before_forward_raises():
    t = Tape()
    x = t.param("x", np.ones((1, 2)))
    loss = t.sum(x)
    with pytest.raises(OrderError):
        t.backward(loss)


def test_shape_mismatch_raises():
    t = Tape()
    a = t.constant(np.ones((2, 3)))
    b = t.constant(np.ones((3, 3)))
    c = t.add(a, b)
    with pytest.raises(ShapeError):
        t.forward({})
    t2 = Tape()
    m = t2.matmul(t2.constant(np.ones((2, 3))), t2.constant(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        t2.forward({})


def test_backward_requires_scalar_loss():
    t = Tape()
    x = t.param("x", np.ones((2, 2)))
    y = t.mul(x, x)
    t.forward({})
    with pytest.raises(ShapeError):
        t.backward(y)


def test_forward_bit_reproducible():
    gen = np.random.default_rng(8)
    t = Tape()
    x = t.input("x")
    w = t.param("w", gen.standard_normal((6, 6)))
    out = t.sum(t.softplus(t.matmul(t.l2_normalize(x), w)))
    feed = {"x": gen.standard_normal((4, 6))}
    t.forward(feed)
    first = t.value(out).copy()
    t.forward(feed)
    assert np.array_equal(first, t.value(out))


def test_missing_feed_raises():
    t = Tape()
    t.input("x")
    with pytest.raises(OrderError):
        t.forward({})


def test_input_default_used_unless_fed():
    t = Tape()
    x = t.input("x", np.ones((1, 2)))
    t.forward({})
    np.testing.assert_array_equal(t.value(x), [[1.0, 1.0]])
    t.forward({"x": np.zeros((3, 2))})
    np.testing.assert_array_equal(t.value(x), np.zeros((3, 2)))


def test_l2_normalize_zero_row_is_degenerate_input():
    t = Tape()
    t.l2_normalize(t.constant(np.array([[1.0, 0.0], [0.0, 0.0]])))
    with pytest.raises(DegenerateInput, match=r"row\(s\) \[1\]"):
        t.forward({})


def sigmoid_reference(x):
    """Logistic sigmoid, with exp only ever taken of -|x|."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus_inputs():
    gen = np.random.default_rng(4)
    special = [1000.0, -1000.0, 800.0, -800.0, 745.0, -745.0, 0.0, -0.0,
               1e-300, -1e-300]
    x = np.concatenate([gen.standard_normal(20000) * scale
                        for scale in (1e-3, 1.0, 20.0, 1000.0)] + [special])
    return x.reshape(-1, 10)


def test_softplus_value_and_gradient_bounds():
    x = softplus_inputs()
    t = Tape()
    a = t.param("a", x)
    out = t.softplus(a)
    loss = t.sum(out)
    t.forward({})
    want = np.logaddexp(0.0, x)
    # two ulps of the reference
    assert np.all(np.abs(t.value(out) - want)
                  <= 2 * np.finfo(np.float64).eps * np.abs(want))
    grad = t.backward(loss)["a"]
    # exp(x - softplus(x)) inherits the rounding of softplus(x): at most
    # half an ulp of 32 where softplus(x) != x
    assert np.all(np.abs(grad - sigmoid_reference(x)) <= 2.0 ** -48)
    assert np.all((grad >= 0.0) & (grad <= 1.0))


def test_parameter_free_subgraph_gets_no_adjoint(monkeypatch, unpruned_backward):
    gen = np.random.default_rng(9)
    t = Tape()
    xn = t.l2_normalize(t.input("x"))
    scale = t.exp(t.constant(gen.standard_normal((1, 3))))
    w = t.param("w", gen.standard_normal((4, 3)))
    loss = t.sum(t.softplus(t.mul(t.matmul(xn, w), scale)))
    t.forward({"x": gen.standard_normal((5, 4))})
    want = unpruned_backward(t, loss)

    calls = []
    real = Tape._grads

    def spy(self, op, ins, out, g, pay, wanted):
        contribs = real(self, op, ins, out, g, pay, wanted)
        calls.append((op, out, contribs))
        return contribs

    monkeypatch.setattr(Tape, "_grads", spy)
    got = t.backward(loss)
    assert [op for op, _, _ in calls] == ["sum", "softplus", "mul", "matmul"]
    free = (t.value(xn), t.value(scale))
    assert not any(out is v for _, out, _ in calls for v in free)
    by_op = {op: contribs for op, _, contribs in calls}
    assert by_op["mul"][1] is None and by_op["matmul"][0] is None
    assert got["w"].tobytes() == want["w"].tobytes()


def test_backward_drops_spent_adjoints():
    # a chain of 20 nodes over a 64 x 64 parameter: the pass holds the
    # adjoints of the frontier, not one per node (which was 21 arrays here)
    t = Tape()
    node = t.param("w", np.ones((64, 64)))
    for k in range(20):
        node = t.scale(node, 1.0 + k / 64)
    loss = t.sum(node)
    t.forward({})
    tracemalloc.start()
    try:
        grads = t.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * grads["w"].nbytes, peak


def test_sgd_step_updates_in_place_and_names_non_finite_param():
    t = Tape()
    t.param("a", np.array([[1.0, 2.0]]))
    t.param("b", np.array([[3.0]]))
    a = t.param_value("a")
    g = {"a": np.array([[0.5, -0.25]]), "b": np.array([[1.0]])}
    sgd_step(t, g, 0.1)
    assert t.param_value("a") is a
    assert a.tobytes() == (np.array([[1.0, 2.0]]) - 0.1 * g["a"]).tobytes()
    with np.errstate(all="ignore"), pytest.raises(InvalidInput, match="'b'"):
        sgd_step(t, {"a": np.zeros((1, 2)), "b": np.array([[np.inf]])}, 1.0)
