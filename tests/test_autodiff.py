"""Tape mechanics, op gradients against central differences, optimizers.

``finite_diff_grad`` only ever calls forward evaluation, so it stays an
independent oracle for every backward rule.
"""

import weakref

import numpy as np
import pytest

from rgconv import autodiff
from rgconv.autodiff import (
    Tensor,
    absval,
    add,
    backward,
    finite_diff_grad,
    flip,
    loss,
    matmul,
    mean_,
    mul,
    neg,
    no_grad,
    parameter,
    record,
    relu,
    reshape,
    sub,
    sum_,
    tensor,
    transpose,
    zero_grads,
)
from rgconv.convops import conv_nd, stuffed_conv_nd
from rgconv.errors import ConfigError, ContractError, ShapeError
from rgconv.optim import make_optimizer, optimizer_step


def check_grad(make_loss, theta, atol=1e-8, rtol=1e-5):
    zero_grads([theta])
    backward(make_loss(), params=[theta])
    numeric = finite_diff_grad(make_loss, theta)
    assert np.allclose(theta.grad, numeric, atol=atol, rtol=rtol), (
        f"max err {np.max(np.abs(theta.grad - numeric))}"
    )


def test_tensor_basics():
    t = tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2) and t.dtype == np.float64 and not t.requires_grad
    p = parameter(np.ones(3, dtype=np.float32))
    assert p.dtype == np.float32 and p.requires_grad
    assert tensor([1, 2]).dtype == np.float64  # ints are promoted


@pytest.mark.parametrize("op,ref", [
    (add, lambda a, b: a + b),
    (sub, lambda a, b: a - b),
    (mul, lambda a, b: a * b),
])
def test_binary_pointwise_values_and_grads(op, ref):
    rng = np.random.default_rng(0)
    a = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=(3, 4)))
    out = op(a, b)
    assert np.allclose(out.data, ref(a.data, b.data))
    check_grad(lambda: sum_(mul(op(a, b), tensor(np.arange(12.0).reshape(3, 4)))), a)
    check_grad(lambda: sum_(mul(op(a, b), tensor(np.arange(12.0).reshape(3, 4)))), b)


def test_unary_ops_values_and_grads():
    rng = np.random.default_rng(1)
    x = parameter(rng.normal(size=(2, 5)) + 0.1)  # keep away from the relu kink
    assert np.allclose(relu(x).data, np.maximum(x.data, 0))
    assert np.allclose(absval(x).data, np.abs(x.data))
    assert np.allclose(neg(x).data, -x.data)
    w = tensor(rng.normal(size=(2, 5)))
    for f in (relu, absval, neg):
        check_grad(lambda f=f: sum_(mul(f(x), w)), x)


def test_relu_subgradient_zero_at_zero():
    x = parameter(np.array([-1.0, 0.0, 2.0]))
    backward(sum_(relu(x)), params=[x])
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])
    x2 = parameter(np.array([0.0]))
    backward(sum_(absval(x2)), params=[x2])
    assert np.array_equal(x2.grad, [0.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_passes_nan_through(dtype):
    # a NaN made upstream must reach the loss check, not be masked to 0
    x = parameter(np.array([np.nan, -1.0, 0.0, 3.0], dtype=dtype))
    y = relu(x)
    assert y.dtype == dtype
    assert np.isnan(y.data[0]) and np.array_equal(y.data[1:], [0.0, 0.0, 3.0])
    backward(sum_(mul(y, tensor(np.ones(4, dtype=dtype)))), params=[x])
    assert x.grad.dtype == dtype
    assert np.array_equal(x.grad[1:], [0.0, 0.0, 1.0])


def test_relu_pull_never_writes_a_gradient_read_elsewhere():
    # a ReLU may mask its incoming g in place only where nothing else reads
    # it. The residual add hands one g to both inputs, the add of a leaf
    # makes the same g that leaf's .grad, and mean pulls a read-only view:
    # none of them is written
    rng = np.random.default_rng(5)
    x = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=(3, 4)))
    w = rng.normal(size=(3, 4))
    h = mul(x, tensor(2.0))
    y = add(relu(h), h)  # relu(h) pulls while h's slot holds the same g
    z = add(b, relu(y))  # relu(y) pulls the array that became b.grad
    backward(sum_(mul(z, tensor(w))), params=[x, b])
    assert np.array_equal(b.grad, w)
    gy = w * (y.data > 0)
    assert np.array_equal(x.grad, (gy + gy * (h.data > 0)) * 2.0)
    zero_grads([x])
    backward(mean_(relu(x)), params=[x])
    assert np.array_equal(x.grad, (x.data > 0) / x.size)


def test_broadcasting_and_unbroadcast_grads():
    a = parameter(np.ones((3, 4)))
    b = parameter(np.array(2.0))  # scalar broadcast
    backward(sum_(mul(a, b)), params=[a, b])
    assert np.allclose(a.grad, 2.0) and np.allclose(b.grad, 12.0)

    c = parameter(np.ones((1, 4)))  # size-1 axis broadcast
    zero_grads([a, c])
    backward(sum_(add(a, c)), params=[a, c])
    assert c.grad.shape == (1, 4) and np.allclose(c.grad, 3.0)

    d = parameter(np.ones(4))  # leading-axis broadcast
    zero_grads([d])
    backward(sum_(add(a, d)), params=[d])
    assert d.grad.shape == (4,) and np.allclose(d.grad, 3.0)

    with pytest.raises(ShapeError):
        add(parameter(np.ones((3, 4))), parameter(np.ones((3, 5))))


def test_matmul_values_and_grads():
    rng = np.random.default_rng(2)
    a = parameter(rng.normal(size=(4, 3)))
    b = parameter(rng.normal(size=(3, 5)))
    assert np.allclose(matmul(a, b).data, a.data @ b.data)
    w = tensor(rng.normal(size=(4, 5)))
    check_grad(lambda: sum_(mul(matmul(a, b), w)), a)
    check_grad(lambda: sum_(mul(matmul(a, b), w)), b)
    # batched right operand with broadcast left
    xb = parameter(rng.normal(size=(6, 3, 7)))
    wb = tensor(rng.normal(size=(6, 4, 7)))
    check_grad(lambda: sum_(mul(matmul(a, xb), wb)), a)
    check_grad(lambda: sum_(mul(matmul(a, xb), wb)), xb)
    with pytest.raises(ShapeError):
        matmul(a, parameter(np.ones((4, 2))))


def test_shape_ops_grads():
    rng = np.random.default_rng(3)
    x = parameter(rng.normal(size=(2, 3, 4)))
    w = tensor(rng.normal(size=(4, 6)))
    check_grad(lambda: sum_(mul(reshape(x, (4, 6)), w)), x)
    w2 = tensor(rng.normal(size=(4, 2, 3)))
    check_grad(lambda: sum_(mul(transpose(x, (2, 0, 1)), w2)), x)
    w3 = tensor(rng.normal(size=(2, 3, 4)))
    check_grad(lambda: sum_(mul(flip(x, (1, 2)), w3)), x)
    assert np.array_equal(flip(x, (0,)).data, x.data[::-1])
    with pytest.raises(ShapeError):
        reshape(x, (5, 5))
    with pytest.raises(ShapeError):
        transpose(x, (0, 1))


def test_reductions():
    rng = np.random.default_rng(4)
    x = parameter(rng.normal(size=(3, 4, 5)))
    assert np.allclose(sum_(x, axes=(1,)).data, x.data.sum(axis=1))
    assert np.allclose(mean_(x).data, x.data.mean())
    assert sum_(x, axes=(1,), keepdims=True).shape == (3, 1, 5)
    assert mean_(x, axes=(2,), keepdims=True).shape == (3, 4, 1)
    w = tensor(rng.normal(size=(3, 5)))
    w4 = tensor(rng.normal(size=4))
    check_grad(lambda: sum_(mul(sum_(x, axes=(1,)), w)), x)
    check_grad(lambda: sum_(mul(mean_(x, axes=(0, 2)), w4)), x)
    with pytest.raises(ShapeError):
        sum_(x, axes=(1, 1))


def test_loss_values_frozen():
    # by hand: |0-1| + |2-0| = 3, /2 = 1.5 ; (0-1)^2 + (2-0)^2 = 5, /2 = 2.5
    pred = tensor([0.0, 2.0])
    target = tensor([1.0, 0.0])
    assert loss("l1", pred, target).item() == pytest.approx(1.5, abs=1e-15)
    assert loss("mse", pred, target).item() == pytest.approx(2.5, abs=1e-15)
    with pytest.raises(ShapeError):
        loss("mse", pred, tensor([1.0, 0.0, 3.0]))
    with pytest.raises(ContractError):
        loss("huber", pred, target)


def test_loss_grads():
    rng = np.random.default_rng(5)
    p = parameter(rng.normal(size=(4, 4)))
    t = tensor(rng.normal(size=(4, 4)))
    check_grad(lambda: loss("mse", p, t), p)
    check_grad(lambda: loss("l1", p, t), p)


def test_composite_graph_and_reuse_accumulation():
    x = parameter(np.array([1.0, -2.0, 3.0]))
    y = add(mul(x, x), x)  # y = x^2 + x, dy/dx = 2x + 1
    backward(sum_(y), params=[x])
    assert np.allclose(x.grad, 2 * x.data + 1)

    rng = np.random.default_rng(6)
    w1 = parameter(rng.normal(size=(4, 3)))
    w2 = parameter(rng.normal(size=(2, 4)))
    xin = tensor(rng.normal(size=(3, 5)))

    def net():
        h = relu(matmul(w1, xin))
        return mean_(mul(matmul(w2, h), matmul(w2, h)))

    check_grad(net, w1)
    check_grad(net, w2)


def test_backward_requires_scalar_and_releases_tape():
    x = parameter(np.ones((2, 2)))
    y = mul(x, x)
    with pytest.raises(ContractError):
        backward(y)
    s = sum_(y)
    backward(s, params=[x])
    assert s.node.tape.nodes == []  # consumed


def test_backward_on_leaf_and_unused_params():
    x = parameter(np.array(3.0))
    unused = parameter(np.ones(4))
    backward(x, params=[unused])
    assert x.grad == 1.0 and np.array_equal(unused.grad, np.zeros(4))


def test_grad_accumulates_across_backward_calls():
    x = parameter(np.array([2.0]))
    backward(sum_(mul(x, x)), params=[x])
    backward(sum_(mul(x, x)), params=[x])
    assert np.allclose(x.grad, 2 * (2 * x.data))
    zero_grads([x])
    assert x.grad is None


def test_second_backward_on_a_consumed_output_raises():
    x = parameter(np.array([2.0]))
    s = sum_(mul(x, x))
    backward(s, params=[x])
    with pytest.raises(ContractError, match="consumed"):
        backward(s, params=[x])
    assert np.array_equal(x.grad, [4.0])


def test_raising_pull_releases_the_tape():
    x = parameter(np.ones(3))
    y = mul(x, x)

    def pull(g):
        raise RuntimeError("pull failed")

    s = record("probe", np.array(y.data.sum()), (y,), pull)
    tape = s.node.tape
    with pytest.raises(RuntimeError, match="pull failed"):
        backward(s, params=[x])
    assert autodiff._ACTIVE_TAPE is None and tape.nodes == []
    assert y.node.parents == () and y.node.pull is None
    z = mul(x, x)  # the next forward starts a fresh tape
    assert z.node.tape is not tape and z.node.idx == 0
    backward(sum_(z), params=[x])
    assert np.array_equal(x.grad, 2 * x.data)


def test_output_of_a_consumed_tape_is_a_constant():
    x = parameter(np.array([3.0]))
    y = mul(x, x)
    backward(sum_(y), params=[x])
    zero_grads([x])
    w = parameter(np.array([2.0]))
    ww = mul(w, w)  # node 0 of the new tape, the index y's node had
    backward(sum_(mul(y, ww)), params=[x, w])
    assert np.array_equal(w.grad, 2 * w.data * y.data)
    assert np.array_equal(x.grad, [0.0])


def test_tape_keeps_only_the_inputs_its_pulls_read():
    rng = np.random.default_rng(3)
    p = parameter(rng.normal(size=(1, 2, 5, 5)))
    k = parameter(rng.normal(size=(2, 2, 3, 3)))
    a = mul(p, tensor(rng.normal(size=(1, 2, 5, 5))))
    b = mul(p, tensor(rng.normal(size=(1, 2, 5, 5))))
    h = add(a, b)  # the ReLU's pre-activation
    r = relu(h)
    c = conv_nd(r, k)
    refs = {name: weakref.ref(t.data) for name, t in
            (("a", a), ("b", b), ("h", h), ("r", r))}
    del a, b, h, r
    assert [name for name, ref in refs.items() if ref() is not None] == ["r"]
    backward(sum_(c), params=[p, k])
    assert refs["r"]() is None


@pytest.mark.parametrize("conv", [conv_nd, stuffed_conv_nd])
def test_backward_frees_a_node_before_earlier_nodes_pull(conv):
    rng = np.random.default_rng(4)
    x = parameter(rng.normal(size=(1, 2, 4, 4)))
    k = parameter(rng.normal(size=(3, 2, 3, 3)))
    dead_when_pulled = []

    def pull(g):
        dead_when_pulled.append(saved() is None)
        return (2.0 * g,)

    h = record("probe", 2.0 * x.data, (x,), pull)
    saved = weakref.ref(h.data)  # the conv's saved input
    y = conv(h, k)
    del h
    assert saved() is not None
    backward(sum_(y), params=[x, k])
    assert dead_when_pulled == [True]
    h = parameter(2.0 * x.data)
    backward(sum_(conv(h, tensor(k.data))), params=[h])
    assert np.array_equal(x.grad, 2.0 * h.grad)


def test_no_grad_disables_recording():
    x = parameter(np.ones(3))
    with no_grad():
        y = mul(x, x)
    assert y.node is None
    y2 = mul(x, x)
    assert y2.node is not None
    backward(sum_(y2), params=[x])


def test_dtype_preserved_through_ops():
    x = parameter(np.ones((2, 2), dtype=np.float32))
    y = sum_(mul(x, x))
    assert y.dtype == np.float32
    backward(y, params=[x])
    assert x.grad.dtype == np.float32


def test_finite_diff_on_quadratic():
    theta = parameter(np.array([1.0, -2.0, 0.5]))
    g = finite_diff_grad(lambda: sum_(mul(theta, theta)), theta)
    assert np.allclose(g, 2 * theta.data, atol=1e-9)


def test_sgd_step():
    p = parameter(np.array([1.0, 2.0]))
    p.grad = np.array([0.5, -1.0])
    opt = make_optimizer("sgd", lr=0.1)
    optimizer_step(opt, [p])
    assert np.allclose(p.data, [0.95, 2.1])


def test_adam_first_step_moves_by_lr():
    p = parameter(np.zeros(5))
    p.grad = np.ones(5)
    opt = make_optimizer("adam", lr=1e-3)
    optimizer_step(opt, [p])
    assert np.allclose(p.data, -1e-3, rtol=1e-6)
    assert opt.step_count == 1
    # second step with the same gradient keeps moving the same direction
    p.grad = np.ones(5)
    optimizer_step(opt, [p])
    assert np.all(p.data < -1.5e-3)


def test_optimizer_errors():
    with pytest.raises(ConfigError):
        make_optimizer("rmsprop", lr=0.1)
    with pytest.raises(ConfigError):
        make_optimizer("sgd", lr=0.0)
    with pytest.raises(ConfigError):
        make_optimizer("adam", lr=float("nan"))
    p = parameter(np.zeros(3))
    opt = make_optimizer("adam", lr=0.1)
    with pytest.raises(ShapeError):
        optimizer_step(opt, [p])  # no gradient present
    p.grad = np.zeros(2)
    with pytest.raises(ShapeError):
        optimizer_step(opt, [p])


def test_operator_overloads():
    a = parameter(np.array([1.0, 2.0]))
    b = tensor(np.array([3.0, 4.0]))
    out = (-a) * b + 2.0 - a
    assert np.allclose(out.data, -a.data * b.data + 2.0 - a.data)
    backward(sum_(out), params=[a])
    assert np.allclose(a.grad, -b.data - 1.0)
