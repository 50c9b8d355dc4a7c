import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concm.autodiff import Tape, grad_check, row_norms, zero_norm_rows
from concm.errors import DegenerateInput, InvalidInput, OrderError, ShapeError
from reference_graphs import ReferenceTape


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
    s = t.softmax(t.constant(np.array([[0.0, 0.0]])), np.ones((1, 2)))
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
    t = ReferenceTape()
    x = t.param("x", np.array([[1.0, -2.0, 3.0]]))
    loss = t.scale(t.sum(t.mul(x, x)), 0.5)
    t.forward({})
    np.testing.assert_allclose(t.backward(loss)["x"], [[1.0, -2.0, 3.0]])
    assert grad_check(t, {}, loss) <= 1e-7


def test_broadcast_gradients():
    # the one broadcast the tape keeps: a (1, n) bias row added to a matrix
    gen = np.random.default_rng(3)
    t = Tape()
    m = t.param("m", gen.standard_normal((4, 3)))
    row = t.param("row", gen.standard_normal((1, 3)))
    other = t.param("other", gen.standard_normal((4, 3)))
    out = t.mul(t.add(m, row), other)
    loss = t.mean(t.mul(out, out))
    # the bias row's adjoint sums the adjoint over the matrix's rows
    mean = t.mean(t.add(m, row))
    t.forward({})
    np.testing.assert_array_equal(t.backward(mean)["row"],
                                  np.full((1, 3), 4 / 12))
    assert grad_check(t, {}, loss) <= 1e-7


@pytest.mark.parametrize("op,sa,sb", [
    ("add", (1, 3), (4, 3)),   # the row must be the second operand
    ("add", (4, 3), (4, 1)),   # no column broadcast
    ("add", (4, 3), ()),       # no scalar broadcast
    ("add", (), (4, 3)),
    ("add", (1, 3), (1, 4)),
    ("sub", (4, 3), (1, 3)),   # only add takes a bias row
    ("mul", (4, 3), (1, 3)),
    ("mul", (4, 3), (4, 1)),
    ("mul", (), (4, 3)),
])
def test_unsupported_broadcast_is_shape_error(op, sa, sb):
    t = Tape()
    getattr(t, op)(t.constant(np.ones(sa)), t.constant(np.ones(sb)))
    with pytest.raises(ShapeError, match=op):
        t.forward({})


def test_normalize_softmax_log_chain_gradients():
    gen = np.random.default_rng(5)
    t = ReferenceTape()
    p = t.param("p", gen.standard_normal((3, 4)))
    z = t.l2_normalize(p)
    sm = t.softmax(t.scale(z, 3.0), np.ones((3, 4)))
    loss = t.scale(t.mean(t.log(sm)), -1.0)
    assert grad_check(t, {}, loss) <= 1e-6
    t2 = ReferenceTape()
    q = t2.param("q", gen.standard_normal((2, 5)))
    loss2 = t2.scale(t2.mean(t2.log_softmax(q)), -1.0)
    assert grad_check(t2, {}, loss2) <= 1e-6


def test_masked_softmax_weights_and_gradients():
    gen = np.random.default_rng(6)
    x = gen.standard_normal((3, 5))
    mask = np.array([[1, 0, 1, 1, 0], [0, 0, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=bool)
    t = ReferenceTape()
    p = t.param("p", x)
    w = t.softmax(p, mask)
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
    t = ReferenceTape()
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
    t = ReferenceTape()
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


@st.composite
def edge_band_rows(draw):
    """Rows of d entries near one of the two edges of the zero-norm test:
    sqrt(DBL_MAX / d) (1 +- 1e-14), where the sum of squares may overflow,
    or sqrt(smallest subnormal) (1 +- 0.5), where every square may
    underflow to 0."""
    d = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        overflow = draw(st.booleans())
        edge = math.sqrt(np.finfo(np.float64).max / d) if overflow \
            else math.sqrt(np.finfo(np.float64).smallest_subnormal)
        rel = st.floats(-1e-14, 1e-14) if overflow else st.floats(-0.5, 0.5)
        rows.append([edge * (1.0 + draw(rel)) * draw(st.sampled_from([1, -1]))
                     for _ in range(d)])
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=edge_band_rows())
@example(rows=[[7.741001517595169e+153, 7.741001517595126e+153,
                7.741001517595176e+153]])
def test_zero_norm_rows_names_the_rows_l2_normalize_rejects(rows):
    # one norm for both: a row that passes the loader's test is never
    # rejected by the projector, and no row the projector takes is refused
    x = np.array(rows)
    t = Tape()
    t.l2_normalize(t.constant(x))
    try:
        t.forward({})
        rejected = []
    except DegenerateInput as exc:
        rejected = exc.rows
    assert zero_norm_rows(x).tolist() == rejected


def test_row_norms_in_blocks_equal_one_pass():
    # more rows than one block holds: the blocks keep one pass's arithmetic
    x = np.random.default_rng(3).standard_normal((5000, 16)) * 1e3
    assert row_norms(x).tobytes() == \
        np.sqrt((x * x).sum(axis=1, keepdims=True)).tobytes()


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
    t = ReferenceTape()
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
    t = ReferenceTape()
    xn = t.l2_normalize(t.input("x"))
    scale = t.exp(t.constant(gen.standard_normal((5, 3))))
    w = t.param("w", gen.standard_normal((4, 3)))
    loss = t.sum(t.softplus(t.mul(t.matmul(xn, w), scale)))
    t.forward({"x": gen.standard_normal((5, 4))})
    want = unpruned_backward(t, loss)

    calls = []
    real = ReferenceTape._grads

    def spy(self, op, ins, out, g, pay, wanted):
        contribs = real(self, op, ins, out, g, pay, wanted)
        calls.append((op, out, contribs))
        return contribs

    monkeypatch.setattr(ReferenceTape, "_grads", spy)
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
    t = ReferenceTape()
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


def test_param_holds_a_float64_array_as_given():
    # the tape trains the caller's own array: no copy is made
    w = np.array([[1.0, 2.0]])
    t = Tape()
    t.param("w", w)
    assert t.param_value("w") is w
    t.update_param("w", np.array([[1.0, -1.0]]), 0.5)
    assert w.tolist() == [[0.5, 2.5]]


def test_sgd_step_updates_in_place_and_names_non_finite_param():
    t = Tape()
    t.param("a", np.array([[1.0, 2.0]]))
    t.param("b", np.array([[3.0]]))
    a = t.param_value("a")
    g = {"a": np.array([[0.5, -0.25]]), "b": np.array([[1.0]])}
    for name in g:
        t.update_param(name, g[name], 0.1)
    assert t.param_value("a") is a
    assert a.tobytes() == (np.array([[1.0, 2.0]]) - 0.1 * g["a"]).tobytes()
    with np.errstate(all="ignore"), pytest.raises(InvalidInput, match="'b'"):
        t.update_param("b", np.array([[np.inf]]), 1.0)


def test_sgd_step_over_many_chunks_holds_no_step_sized_temporary():
    # a parameter several update chunks long gets exactly value - lr * g,
    # with no float temporary of its size (the finiteness check's boolean
    # mask is an eighth of it); the gradient is left as it was
    gen = np.random.default_rng(3)
    w0 = gen.standard_normal((300, 250))
    t = Tape()
    t.param("w", w0.copy())
    g = {"w": gen.standard_normal((300, 250))}
    g_before = g["w"].copy()
    t.update_param("w", g["w"], 0.3)  # the first update makes the tape's buffer
    want = w0 - 0.3 * g["w"] - 0.7 * g["w"]
    tracemalloc.start()
    try:
        t.update_param("w", g["w"], 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g["w"].nbytes / 4, peak
    assert t.param_value("w").tobytes() == want.tobytes()
    assert g["w"].tobytes() == g_before.tobytes()
    with pytest.raises(ShapeError, match="'w'"):
        t.update_param("w", np.zeros((250, 300)), 0.1)
