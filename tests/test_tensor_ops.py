"""Forward-value tests for the autodiff Tensor's operations."""

import numpy as np
import pytest

from repro.exceptions import GradientError, ShapeError, ValidationError
from repro.tensor import Tensor, concat, stack_rows, unbroadcast
from repro.utils.numeric import relu


class TestConstruction:
    def test_data_is_float64(self):
        assert Tensor([1, 2]).data.dtype == np.float64

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6

    def test_numpy_returns_copy(self):
        t = Tensor([1.0, 2.0])
        arr = t.numpy()
        arr[0] = 99.0
        assert t.data[0] == 1.0

    def test_item_scalar(self):
        assert Tensor([3.5]).item() == 3.5

    def test_item_non_scalar_rejected(self):
        with pytest.raises(ValidationError):
            Tensor([1.0, 2.0]).item()

    def test_detach_cuts_graph(self):
        t = Tensor([1.0], requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3


class TestArithmetic:
    def test_add(self):
        np.testing.assert_array_equal((Tensor([1.0]) + Tensor([2.0])).data, [3.0])

    def test_add_scalar_and_radd(self):
        np.testing.assert_array_equal((1.0 + Tensor([2.0])).data, [3.0])

    def test_sub_and_rsub(self):
        np.testing.assert_array_equal((Tensor([5.0]) - 2.0).data, [3.0])
        np.testing.assert_array_equal((5.0 - Tensor([2.0])).data, [3.0])

    def test_mul(self):
        np.testing.assert_array_equal((Tensor([3.0]) * Tensor([4.0])).data, [12.0])

    def test_div_and_rdiv(self):
        np.testing.assert_allclose((Tensor([6.0]) / 2.0).data, [3.0])
        np.testing.assert_allclose((6.0 / Tensor([2.0])).data, [3.0])

    def test_neg(self):
        np.testing.assert_array_equal((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([2.0]) ** 3).data, [8.0])

    def test_tensor_exponent_rejected(self):
        with pytest.raises(ValidationError):
            Tensor([2.0]) ** Tensor([3.0])

    def test_broadcasting_add(self):
        out = Tensor(np.ones((2, 3))) + Tensor(np.ones(3))
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out.data, 2.0)


class TestTranscendental:
    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.5])
        np.testing.assert_allclose(x.exp().log().data, x.data)

    def test_sqrt(self):
        np.testing.assert_allclose(Tensor([9.0]).sqrt().data, [3.0])

    def test_tanh(self):
        np.testing.assert_allclose(Tensor([0.0]).tanh().data, [0.0])

    def test_sigmoid(self):
        np.testing.assert_allclose(Tensor([0.0]).sigmoid().data, [0.5])

    def test_relu(self):
        np.testing.assert_array_equal(Tensor([-1.0, 2.0]).relu().data, [0.0, 2.0])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_relu_bytes_match_masked_select_on_edge_values(self, order):
        edges = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, -5e-324, 5e-324, -1.5, 2.5]
        x = np.asarray(np.resize(edges, (4, 5)), order=order)
        expected = np.where(x > 0, x, 0.0)
        assert Tensor(x).relu().data.tobytes() == expected.tobytes()
        assert relu(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", [-0.0, np.nan, -np.inf])
    def test_relu_zero_dim_edge_values_are_positive_zero(self, value):
        assert Tensor(value).relu().data.tobytes() == np.float64(0.0).tobytes()

    def test_relu_gradient_mask_excludes_zero_and_nan(self):
        t = Tensor([-0.0, 0.0, np.nan, 3.0, -2.0], requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 0.0, 1.0, 0.0])

    def test_abs(self):
        np.testing.assert_array_equal(Tensor([-1.5, 2.0]).abs().data, [1.5, 2.0])

    def test_clip(self):
        np.testing.assert_array_equal(
            Tensor([-1.0, 0.5, 2.0]).clip(0.0, 1.0).data, [0.0, 0.5, 1.0]
        )


class TestReductions:
    def test_sum_all(self):
        assert Tensor([[1.0, 2.0], [3.0, 4.0]]).sum().item() == 10.0

    def test_sum_axis(self):
        np.testing.assert_array_equal(
            Tensor([[1.0, 2.0], [3.0, 4.0]]).sum(axis=0).data, [4.0, 6.0]
        )

    def test_sum_keepdims(self):
        assert Tensor(np.ones((2, 3))).sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean(self):
        assert Tensor([1.0, 2.0, 3.0]).mean().item() == 2.0

    def test_mean_axis(self):
        np.testing.assert_allclose(
            Tensor([[1.0, 3.0], [2.0, 4.0]]).mean(axis=0).data, [1.5, 3.5]
        )

    def test_var_matches_numpy(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        np.testing.assert_allclose(Tensor(x).var(axis=0).data, x.var(axis=0))

    def test_var_all(self):
        x = np.arange(6.0)
        np.testing.assert_allclose(Tensor(x).var().item(), x.var())


class TestShapeOps:
    def test_reshape(self):
        assert Tensor(np.arange(6.0)).reshape(2, 3).shape == (2, 3)

    def test_reshape_tuple(self):
        assert Tensor(np.arange(6.0)).reshape((3, 2)).shape == (3, 2)

    def test_transpose(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.T.shape == (3, 2)

    def test_transpose_1d_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([1.0]).T

    def test_getitem_row(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(t[0].data, [0.0, 1.0, 2.0])

    def test_getitem_fancy_columns(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        out = t[:, np.array([2, 0])]
        np.testing.assert_array_equal(out.data, [[2.0, 0.0], [5.0, 3.0]])


class TestMatmul:
    def test_value(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal((a @ b).data, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_1d_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


class TestConcat:
    def test_axis1(self):
        out = concat([Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 1)))], axis=1)
        assert out.shape == (2, 3)

    def test_axis0(self):
        out = concat([Tensor(np.ones((1, 2))), Tensor(np.zeros((2, 2)))], axis=0)
        assert out.shape == (3, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            concat([])

    def test_stack_rows(self):
        out = stack_rows([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])])
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sum_leading_axis(self):
        np.testing.assert_array_equal(unbroadcast(np.ones((4, 3)), (3,)), [4.0] * 3)

    def test_sum_expanded_axis(self):
        out = unbroadcast(np.ones((2, 3)), (2, 1))
        np.testing.assert_array_equal(out, [[3.0], [3.0]])

    def test_impossible_rejected(self):
        with pytest.raises(ShapeError):
            unbroadcast(np.ones(3), (2, 3, 4))


class TestBackwardErrors:
    def test_backward_without_grad_flag(self):
        with pytest.raises(GradientError):
            Tensor([1.0]).backward()

    def test_seed_shape_mismatch(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradientError):
            t.backward(np.ones(3))

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None
