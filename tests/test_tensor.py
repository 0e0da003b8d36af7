import math

import numpy as np
import pytest

from peftsearch import tensor as T
from conftest import central_diff, rel_error


def _scalar(fn, *tensors):
    return T.total(fn(*tensors))


class TestMatmul:
    def test_identity_left(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, T.Tensor(np.eye(2)))
        assert np.array_equal(out.data, [[1, 2], [3, 4]])

    def test_identity_times_column(self):
        out = T.matmul(T.Tensor(np.eye(2)), T.Tensor([[5.0], [7.0]]))
        assert np.array_equal(out.data, [[5], [7]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))

    def test_grad_of_sum_is_row_broadcast_of_b(self, rng):
        a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        T.backward(_scalar(T.matmul, a, b), params=[a, b])
        fd = central_diff(lambda x: (x @ b.data).sum(), a.data.copy())
        assert rel_error(a.grad, fd) < 1e-5
        # each row of the gradient is the row-sum of b
        assert np.allclose(a.grad, np.tile(b.data.sum(axis=1), (3, 1)))

    def test_grad_both_sides_batched(self, rng):
        a = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        T.backward(_scalar(T.matmul, a, b), params=[a, b])
        fd_a = central_diff(lambda x: (x @ b.data).sum(), a.data.copy())
        fd_b = central_diff(lambda x: (a.data @ x).sum(), b.data.copy())
        assert rel_error(a.grad, fd_a) < 1e-5
        assert rel_error(b.grad, fd_b) < 1e-5


class TestActivations:
    def test_relu_values(self):
        out = T.activation(T.Tensor([-1.0, 0.0, 2.0]), "relu")
        assert np.array_equal(out.data, [0, 0, 2])

    def test_relu_gradient(self):
        x = T.Tensor([-1.0, 2.0], requires_grad=True)
        T.backward(T.total(T.relu(x)), params=[x])
        assert np.array_equal(x.grad, [0, 1])

    def test_gelu_zero(self):
        assert T.gelu(T.Tensor([0.0])).data[0] == 0.0

    def test_gelu_tanh_formula(self):
        x = np.array([0.5, -1.3, 2.0])
        c = math.sqrt(2 / math.pi)
        expected = 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * x**3)))
        assert np.allclose(T.gelu(T.Tensor(x)).data, expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ["relu", "gelu"])
    def test_gradient_matches_finite_differences(self, kind, rng):
        x = T.Tensor(rng.normal(size=(6, 5)) + 0.1, requires_grad=True)
        T.backward(_scalar(lambda t: T.activation(t, kind), x), params=[x])
        fd = central_diff(lambda v: np.asarray(
            T.activation(T.Tensor(v), kind).data).sum(), x.data.copy())
        assert rel_error(x.grad, fd) < 1e-4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            T.activation(T.Tensor([1.0]), "tanh")


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 5, 10):
            logits = T.Tensor(np.zeros((3, c)))
            loss = T.softmax_cross_entropy(logits, np.zeros(3, dtype=int))
            assert loss.data == pytest.approx(math.log(c), abs=1e-12)

    def test_peaked_logits_drive_loss_to_zero(self):
        logits = np.full((4, 3), -50.0)
        labels = np.array([0, 1, 2, 0])
        logits[np.arange(4), labels] = 50.0
        loss = T.softmax_cross_entropy(T.Tensor(logits), labels)
        assert loss.data < 1e-12

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(ValueError):
            T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, -1]))

    def test_gradient_matches_finite_differences(self, rng):
        logits = T.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        labels = rng.integers(0, 4, 5)
        T.backward(T.softmax_cross_entropy(logits, labels), params=[logits])
        fd = central_diff(
            lambda v: float(T.softmax_cross_entropy(T.Tensor(v), labels).data),
            logits.data.copy())
        assert rel_error(logits.grad, fd) < 1e-5


class TestBackward:
    def test_unreachable_parameter_gets_zero(self, rng):
        p = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        q = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        T.backward(T.total(q), params=[p, q])
        assert np.array_equal(p.grad, np.zeros(3))
        assert np.array_equal(q.grad, np.ones(3))

    def test_two_layer_composite_vs_finite_differences(self, rng):
        w1 = T.Tensor(rng.normal(size=(6, 8)), requires_grad=True)
        w2 = T.Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        x = rng.normal(size=(4, 6))
        labels = rng.integers(0, 3, 4)

        def loss_of(w1d, w2d):
            h = np.asarray(T.gelu(T.Tensor(x @ w1d)).data)
            return float(T.softmax_cross_entropy(T.Tensor(h @ w2d), labels).data)

        h = T.gelu(T.matmul(T.Tensor(x), w1))
        loss = T.softmax_cross_entropy(T.matmul(h, w2), labels)
        T.backward(loss, params=[w1, w2])
        fd1 = central_diff(lambda v: loss_of(v, w2.data), w1.data.copy())
        fd2 = central_diff(lambda v: loss_of(w1.data, v), w2.data.copy())
        assert rel_error(w1.grad, fd1) < 1e-4
        assert rel_error(w2.grad, fd2) < 1e-4

    def test_forward_deterministic(self, rng):
        x = rng.normal(size=(8, 8))
        w = rng.normal(size=(8, 8))
        a = T.matmul(T.gelu(T.Tensor(x)), T.Tensor(w)).data
        b = T.matmul(T.gelu(T.Tensor(x)), T.Tensor(w)).data
        assert np.array_equal(a, b)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            T.backward(T.Tensor(np.zeros(3)))

    def test_diamond_graph_accumulates_both_paths(self):
        x = T.Tensor([2.0], requires_grad=True)
        y = T.add(T.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 5
        T.backward(T.total(y), params=[x])
        assert x.grad[0] == pytest.approx(5.0)


class TestLayerNormAndSoftmax:
    def test_layer_norm_gradient(self, rng):
        x = T.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        g = T.Tensor(rng.normal(size=6), requires_grad=True)
        b = T.Tensor(rng.normal(size=6), requires_grad=True)
        T.backward(_scalar(lambda t: T.mul(T.layer_norm(t, g, b),
                                           T.Tensor(rng.normal(size=(3, 6)))), x))
        # randomized upstream above is not reproducible; redo deterministically
        up = np.arange(18, dtype=float).reshape(3, 6)
        x = T.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        loss = T.total(T.mul(T.layer_norm(x, g, b), T.Tensor(up)))
        T.backward(loss, params=[x, g, b])

        def f(v=None, gd=None, bd=None):
            out = T.layer_norm(T.Tensor(x.data if v is None else v),
                               T.Tensor(g.data if gd is None else gd),
                               T.Tensor(b.data if bd is None else bd)).data
            return float((np.asarray(out) * up).sum())

        assert rel_error(x.grad, central_diff(lambda v: f(v), x.data.copy())) < 1e-4
        assert rel_error(g.grad, central_diff(lambda v: f(gd=v), g.data.copy())) < 1e-4
        assert rel_error(b.grad, central_diff(lambda v: f(bd=v), b.data.copy())) < 1e-4

    def test_softmax_rows_sum_to_one_and_gradient(self, rng):
        x = T.Tensor(rng.normal(size=(4, 7)), requires_grad=True)
        y = T.softmax(x)
        assert np.allclose(y.data.sum(axis=1), 1.0)
        up = rng.normal(size=(4, 7))
        T.backward(T.total(T.mul(y, T.Tensor(up))), params=[x])
        fd = central_diff(
            lambda v: float((np.asarray(T.softmax(T.Tensor(v)).data) * up).sum()),
            x.data.copy())
        assert rel_error(x.grad, fd) < 1e-4


# the one-pass kernels as they were before row blocking, kept as the oracle


def _gelu_fwd_one_pass(v):
    v2 = v * v
    u = v2 * v
    u *= 0.044715
    u += v
    u *= math.sqrt(2.0 / math.pi)
    t = np.tanh(u, out=u)
    out = 1.0 + t
    out *= v
    out *= 0.5
    return out, (v, t)


def _gelu_bwd_one_pass(g, saved):
    v, t = saved
    dinner = (v * v) * (3 * 0.044715)
    dinner += 1.0
    dinner *= math.sqrt(2.0 / math.pi)
    dinner *= 1.0 - t * t
    dinner *= v
    dinner += 1.0 + t
    dinner *= 0.5
    dinner *= g
    return dinner


def _layer_norm_fwd_one_pass(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / x.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gamma + beta, (xhat, inv)


def _layer_norm_bwd_one_pass(g, gamma, saved):
    xhat, inv = saved
    gh = g * gamma
    m1 = gh.mean(axis=-1, keepdims=True)
    m2 = (gh * xhat).mean(axis=-1, keepdims=True)
    return inv * (gh - m1 - xhat * m2)


def _all_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


# rows a block does not divide, so the last block is partial; (7, 5) is one
# block, and (2, 40000) has rows longer than a block
@pytest.mark.parametrize("shape", [(1283, 512), (3, 1001, 40), (7, 5), (2, 40000)])
class TestRowBlockedKernels:
    def test_gelu_is_bit_equal_to_one_pass(self, shape, rng):
        v = rng.normal(size=shape) * 3
        g = rng.normal(size=shape)
        out, saved = T.gelu_fwd(v)
        ref_out, ref_saved = _gelu_fwd_one_pass(v)
        assert np.array_equal(out, ref_out)
        assert _all_equal(saved, ref_saved)
        assert np.array_equal(T.gelu_bwd(g, saved), _gelu_bwd_one_pass(g, ref_saved))
        # Fortran-order inputs: the outputs must still be written in place
        v, g = np.asfortranarray(v), np.asfortranarray(g)
        out, saved = T.gelu_fwd(v)
        ref_out, ref_saved = _gelu_fwd_one_pass(v)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(T.gelu_bwd(g, saved), _gelu_bwd_one_pass(g, ref_saved))

    def test_layer_norm_is_bit_equal_to_one_pass(self, shape, rng):
        x = rng.normal(size=shape) * 2 + 0.5
        gamma = rng.normal(size=shape[-1])
        beta = rng.normal(size=shape[-1])
        g = rng.normal(size=shape)
        out, saved = T.layer_norm_fwd(x, gamma, beta)
        ref_out, ref_saved = _layer_norm_fwd_one_pass(x, gamma, beta)
        assert np.array_equal(out, ref_out)
        assert _all_equal(saved, ref_saved)
        assert np.array_equal(T.layer_norm_bwd(g, gamma, saved),
                              _layer_norm_bwd_one_pass(g, gamma, ref_saved))
        # Fortran-order inputs: the outputs must still be written in place;
        # a strided row sums in another order, so only to rounding
        x, g = np.asfortranarray(x), np.asfortranarray(g)
        out, saved = T.layer_norm_fwd(x, gamma, beta)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(T.layer_norm_bwd(g, gamma, saved),
                                   _layer_norm_bwd_one_pass(g, gamma, ref_saved),
                                   rtol=0, atol=1e-12)


class TestAdam:
    @staticmethod
    def _step(opt, *grads):
        for p, g in zip(opt.params, grads):
            p.grad = np.asarray(g, dtype=np.float64)
        opt.step()

    def test_zero_gradient_leaves_params_unchanged(self):
        p = T.Tensor([1.0, -2.0], requires_grad=True)
        self._step(T.Adam([p], lr=0.1), np.zeros(2))
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_first_step_moves_against_gradient_sign(self):
        p = T.Tensor([1.0, 1.0, 1.0], requires_grad=True)
        self._step(T.Adam([p], lr=0.01), [0.3, -2.0, 0.0])
        assert p.data[0] < 1.0
        assert p.data[1] > 1.0
        assert p.data[2] == 1.0

    def test_two_steps_reduce_quadratic_loss(self):
        p = T.Tensor([3.0, -4.0], requires_grad=True)
        opt = T.Adam([p], lr=0.05)
        loss0 = float((p.data**2).sum())
        for _ in range(2):
            self._step(opt, 2 * p.data)
        assert float((p.data**2).sum()) < loss0

    def test_optimizer_wrapper_reads_grads(self):
        p = T.Tensor([1.0], requires_grad=True)
        opt = T.Adam([p], lr=0.1)
        loss = T.total(T.mul(p, p))
        T.backward(loss, params=[p])
        opt.step()
        assert p.data[0] < 1.0
