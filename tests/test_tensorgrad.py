"""Unit tests for the reverse-mode autodiff engine."""

import ast
from pathlib import Path

import numpy as np
import pytest

from signl import tensorgrad as tg


def _fd(f, x, h=1e-5):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(f().data)
        flat[i] = orig - h
        dn = float(f().data)
        flat[i] = orig
        gflat[i] = (up - dn) / (2 * h)
    return g


def _check_grad(build_loss, params, tol=1e-4):
    for p in params:
        p.grad = None
    with tg.Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    for p in params:
        fd = _fd(build_loss, p)
        denom = max(np.linalg.norm(fd), 1e-12)
        rel = np.linalg.norm(p.grad - fd) / denom
        assert rel <= tol, f"gradient mismatch: rel err {rel}"


def _t(arr, grad=True):
    return tg.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def _first_row(t):
    return tg.split(t, [1, t.shape[0] - 1])[0]


class TestPrimitives:
    def test_matmul_identity(self):
        x = _t([[1.0, 2.0], [3.0, 4.0]], grad=False)
        eye = _t(np.eye(2), grad=False)
        with tg.Tape():
            out = tg.matmul(eye, x)
        assert np.array_equal(out.data, x.data)

    def test_matmul_hand_arithmetic(self):
        a = _t([[1.0, 2.0], [3.0, 4.0]], grad=False)
        b = _t([[1.0], [1.0]], grad=False)
        with tg.Tape():
            out = tg.matmul(a, b)
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_matmul_shape_error(self):
        a = _t(np.ones((2, 3)), grad=False)
        b = _t(np.ones((2, 3)), grad=False)
        with tg.Tape(), pytest.raises(tg.ShapeError):
            tg.matmul(a, b)

    def test_matmul_gradient(self, rng):
        a = _t(rng.standard_normal((3, 4)))
        b = _t(rng.standard_normal((4, 2)))
        _check_grad(lambda: tg.tsum(tg.matmul(a, b)), [a, b])

    def test_relu_sign_cases(self):
        x = _t([[-1.0, 0.0, 2.0]], grad=False)
        with tg.Tape():
            out = tg.relu(x)
        assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_relu_gradient_away_from_kink(self):
        x = _t([[-1.0, 2.0]])
        with tg.Tape() as tape:
            loss = tg.tsum(tg.relu(x))
            tape.backward(loss)
        assert np.array_equal(x.grad, [[0.0, 1.0]])

    def test_relu_zero_gradient_at_zero(self):
        x = _t([[0.0]])
        with tg.Tape() as tape:
            tape.backward(tg.tsum(tg.relu(x)))
        assert x.grad[0, 0] == 0.0

    def test_add_identity(self, rng):
        x = _t(rng.standard_normal((2, 3)), grad=False)
        z = _t(np.zeros((2, 3)), grad=False)
        with tg.Tape():
            out = tg.add(x, z)
        assert np.array_equal(out.data, x.data)

    def test_add_shape_error(self):
        with tg.Tape(), pytest.raises(tg.ShapeError):
            tg.add(_t(np.ones((2, 2)), grad=False), _t(np.ones((2, 3)), grad=False))

    def test_mul_analytic_gradient(self):
        x = _t([[1.0, 2.0]])
        with tg.Tape() as tape:
            tape.backward(tg.tsum(tg.mul(x, x)))
        assert np.allclose(x.grad, [[2.0, 4.0]])

    def test_scale_sqrt_reciprocal_gradients(self, rng):
        x = _t(rng.uniform(0.5, 2.0, (2, 3)))
        _check_grad(lambda: tg.tsum(tg.scale(x, 3.0)), [x])
        _check_grad(lambda: tg.tsum(tg.sqrt(x)), [x])
        _check_grad(lambda: tg.tsum(tg.reciprocal(x)), [x])

    def test_tsum_axis_gradients(self, rng):
        x = _t(rng.standard_normal((3, 4)))
        _check_grad(lambda: tg.tsum(tg.mul(tg.tsum(x, axis=0), tg.tsum(x, axis=0))), [x])
        _check_grad(lambda: tg.tsum(tg.mul(tg.tsum(x, axis=1), tg.tsum(x, axis=1))), [x])

    def test_reshape_gradient(self, rng):
        x = _t(rng.standard_normal((2, 6)))
        _check_grad(lambda: tg.tsum(tg.mul(tg.reshape(x, (3, 4)), tg.reshape(x, (3, 4)))), [x])

    def test_log_softmax_gradient(self, rng):
        x = _t(rng.standard_normal((4, 2)))
        onehot = np.zeros((4, 2))
        onehot[np.arange(4), [0, 1, 1, 0]] = 1.0
        oh = _t(onehot, grad=False)
        _check_grad(lambda: tg.scale(tg.tsum(tg.mul(oh, tg.log_softmax(x))), -1.0), [x])


class TestConcatSplit:
    def test_concat_axis0(self):
        a = _t([[1.0], [2.0]], grad=False)
        b = _t([[3.0]], grad=False)
        with tg.Tape():
            out = tg.concat([a, b], axis=0)
        assert np.array_equal(out.data, [[1.0], [2.0], [3.0]])

    def test_split_concat_roundtrip(self, rng):
        x = _t(rng.standard_normal((4, 6)), grad=False)
        with tg.Tape():
            parts = tg.split(x, [2, 3, 1], axis=1)
            back = tg.concat(parts, axis=1)
        assert np.array_equal(back.data, x.data)

    def test_concat_mismatch(self):
        with tg.Tape(), pytest.raises(tg.ShapeError):
            tg.concat([_t(np.ones((2, 2)), grad=False),
                       _t(np.ones((3, 3)), grad=False)], axis=0)

    def test_split_bad_counts(self):
        with tg.Tape(), pytest.raises(tg.ShapeError):
            tg.split(_t(np.ones((2, 5)), grad=False), [2, 2], axis=1)

    def test_gradient_routing(self, rng):
        x = _t(rng.standard_normal((4, 6)))
        w = _t(rng.standard_normal((6, 6)), grad=False)

        def loss():
            parts = tg.split(x, [2, 2, 2], axis=1)
            y = tg.concat([parts[2], parts[0], parts[1]], axis=1)
            return tg.tsum(tg.mul(tg.matmul(y, w), tg.matmul(y, w)))

        _check_grad(loss, [x])

        rows = _t(rng.standard_normal((6, 6)))  # rows, as training splits a batch's halves

        def row_loss():
            top, rest = tg.split(rows, [2, 4])
            y = tg.concat([rest, top])
            return tg.tsum(tg.mul(tg.matmul(y, w), tg.matmul(y, w)))

        _check_grad(row_loss, [rows])


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = _t(rng.standard_normal((3, 5)))
        with tg.Tape() as tape:
            tape.backward(tg.tsum(x))
        assert np.array_equal(x.grad, np.ones((3, 5)))

    def test_non_scalar_loss_rejected(self):
        x = _t(np.ones((2, 2)))
        with tg.Tape() as tape:
            y = tg.add(x, x)
            with pytest.raises(tg.ContractError):
                tape.backward(y)

    def test_accumulation_without_reset(self, rng):
        x = _t(rng.standard_normal((2, 2)))
        with tg.Tape() as tape:
            tape.backward(tg.tsum(x))
        first = x.grad.copy()
        with tg.Tape() as tape:
            tape.backward(tg.tsum(x))
        assert np.array_equal(x.grad, 2 * first)

    def test_input_used_twice_gets_both_shares(self, rng):
        x = _t(rng.standard_normal((2, 3)))
        g = rng.standard_normal((2, 3))
        with tg.Tape() as tape:
            tape.backward(tg.tsum(tg.mul(tg.add(x, x), tg.Tensor(g))))
        assert np.array_equal(x.grad, 2 * g)

    def test_first_gradient_shared_but_never_written_through(self, rng):
        """An input's first gradient may be its output's array; later shares must not alter it."""
        x = _t(rng.standard_normal((2, 3)))
        g = rng.standard_normal((2, 3))
        with tg.Tape() as tape:
            y = tg.add(x, x)
            tape.backward(tg.tsum(tg.mul(y, tg.Tensor(g))))
        assert np.array_equal(y.grad, g)
        assert np.array_equal(x.grad, 2 * g)

    def test_given_gradient_seeds_a_non_scalar_output(self, rng):
        """Split one loss at an inner tensor: its gradient, fed back, gives the same grads."""
        x, w = _t(rng.standard_normal((3, 4))), _t(rng.standard_normal((4, 2)))
        with tg.Tape() as tape:
            loss = tg.tsum(tg.relu(tg.matmul(tg.relu(x), w)))
            tape.backward(loss)
        whole = x.grad, w.grad
        x.grad = w.grad = None
        with tg.Tape() as inner:
            h = tg.relu(x)
        h_in = tg.Tensor._wrap(h.data, True)
        with tg.Tape() as outer:
            outer.backward(tg.tsum(tg.relu(tg.matmul(h_in, w))))
        inner.backward(h, h_in.grad)
        assert np.array_equal(x.grad, whole[0]) and np.array_equal(w.grad, whole[1])

    def test_external_rows_hand_their_gradient_over_in_reverse_record_order(self, rng):
        """The later of two external outputs gets its gradient first, as any later op would."""
        sent = []
        with tg.Tape() as tape:
            first, second = (tg.external(rng.standard_normal((2, 3)),
                                         lambda g, name=name: sent.append((name, g)))
                             for name in ("first", "second"))
            assert first.requires_grad and second.requires_grad
            tape.backward(tg.tsum(tg.mul(tg.concat([first, second], axis=1),
                                         tg.Tensor(np.full((2, 6), 2.0)))))
        assert [name for name, _ in sent] == ["second", "first"]
        assert all(np.array_equal(g, np.full((2, 3), 2.0)) for _, g in sent)

    def test_external_rows_outside_a_tape_are_not_recorded(self, rng):
        assert not tg.recording()
        with tg.Tape() as tape:
            assert tg.recording()
        out = tg.external(rng.standard_normal((2, 2)), lambda g: pytest.fail("no gradient"))
        assert out.requires_grad and tape._records == []

    def test_deterministic_gradients(self, rng):
        data = rng.standard_normal((4, 4))
        grads = []
        for _ in range(2):
            x = _t(data.copy())
            w = _t(np.ones((4, 4)), grad=False)
            with tg.Tape() as tape:
                tape.backward(tg.tsum(tg.relu(tg.matmul(x, w))))
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_composed_network_gradient(self, rng):
        x = _t(rng.standard_normal((5, 3)))
        w1 = _t(rng.standard_normal((3, 4)))
        b1 = _t(rng.standard_normal((1, 4)))
        w2 = _t(rng.standard_normal((4, 2)))

        def loss():
            h = tg.relu(tg.affine(x, w1, b1))
            return tg.tsum(tg.mul(tg.matmul(h, w2), tg.matmul(h, w2)))

        _check_grad(loss, [x, w1, b1, w2])


class TestGroupedMatmul:
    """Column chunk j of h times weight j, as one primitive for every group count."""

    @staticmethod
    def _composed(h, weights):
        c = weights[0].shape[0]
        return np.concatenate([h.data[:, j * c:(j + 1) * c] @ w.data
                               for j, w in enumerate(weights)], axis=1)

    @staticmethod
    def _square_sum(h, weights):
        def loss():
            out = tg.grouped_matmul(h, weights)
            return tg.tsum(tg.mul(out, out))
        return loss

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_matches_per_chunk_matmuls(self, rng, groups):
        h = _t(rng.standard_normal((7, 3 * groups)))
        weights = [_t(rng.standard_normal((3, 2))) for _ in range(groups)]
        out = tg.grouped_matmul(h, weights)
        assert out.shape == (7, 2 * groups)
        assert np.allclose(out.data, self._composed(h, weights), atol=1e-12)

    @pytest.mark.parametrize("groups", [1, 4])
    def test_gradient(self, rng, groups):
        h = _t(rng.standard_normal((5, 3 * groups)))
        weights = [_t(rng.standard_normal((3, 2))) for _ in range(groups)]
        _check_grad(self._square_sum(h, weights), [h, *weights])

    def test_frozen_head_gets_no_grad(self, rng):
        h = _t(rng.standard_normal((5, 12)))
        weights = [_t(rng.standard_normal((3, 2)), grad=j != 1) for j in range(4)]
        _check_grad(self._square_sum(h, weights), [h, weights[0], weights[2], weights[3]])
        assert weights[1].grad is None

    def test_unequal_weights_or_widths_rejected(self):
        h = _t(np.ones((2, 6)))
        with pytest.raises(tg.ShapeError):
            tg.grouped_matmul(h, [_t(np.ones((3, 2))), _t(np.ones((3, 1)))])
        with pytest.raises(tg.ShapeError):
            tg.grouped_matmul(h, [_t(np.ones((2, 2))), _t(np.ones((2, 2)))])


class TestTapeContract:
    def test_ops_outside_a_tape_record_nothing(self):
        x = _t([[1.0, 2.0]])
        y = tg.mul(x, x)  # no tape is open
        with tg.Tape() as tape:
            tape.backward(tg.tsum(y))
        assert np.array_equal(y.grad, [[1.0, 1.0]])
        assert x.grad is None

    @pytest.mark.parametrize("op", [
        tg.matmul, tg.add, tg.mul, lambda a, b: tg.concat([a, b], axis=0),
        pytest.param(lambda a, b: tg.concat([a, b], axis=1), id="concat1"),
        # const_first: constant patches x; otherwise constant w and b
        pytest.param(lambda a, b: tg.affine(a, b, _first_row(b)), id="affine-x"),
        # const_first: a constant w; otherwise constant x and b
        pytest.param(lambda a, b: tg.affine(b, a, _first_row(b)), id="affine-w"),
        # const_first: a constant b; otherwise constant x and w
        pytest.param(lambda a, b: tg.affine(b, b, _first_row(a)), id="affine-b"),
        # const_first: a constant h; otherwise constant head weights
        pytest.param(lambda a, b: tg.grouped_matmul(a, tg.split(b, [1, 1])),
                     id="grouped_matmul")])
    @pytest.mark.parametrize("const_first", [True, False])
    def test_constant_operand_gets_no_grad(self, rng, op, const_first):
        w = _t(rng.standard_normal((2, 2)))
        c = _t(rng.standard_normal((2, 2)), grad=False)
        with tg.Tape() as tape:
            tape.backward(tg.tsum(op(c, w) if const_first else op(w, c)))
        assert w.grad is not None
        assert c.grad is None

    def test_op_on_constants_records_nothing(self, rng):
        x, w, b = (_t(rng.standard_normal(s), grad=False) for s in ((3, 4), (4, 2), (1, 2)))
        with tg.Tape() as tape:
            outs = [tg.affine(x, w, b), tg.grouped_matmul(x, tg.split(w, [2, 2])),
                    tg.concat([x, x], axis=1), *tg.split(x, [1, 2]), tg.log_softmax(x)]
        assert tape._records == []
        assert not any(out.requires_grad for out in outs)

    def test_only_tensor_op_and_adam_step_read_requires_grad(self):
        """Whether an input gets a gradient is decided by ``_op`` alone, not by each primitive."""
        tree = ast.parse(Path(tg.__file__).read_text())
        readers = {getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
                   if isinstance(node, ast.Attribute) and node.attr == "requires_grad"}
        assert readers == {"Tensor", "_op", "adam_step"}

    def test_output_off_the_loss_path_changes_no_gradient(self, rng):
        x = _t(rng.standard_normal((3, 6)))
        with tg.Tape() as tape:
            first, unused, last = tg.split(x, [2, 2, 2], axis=1)
            tape.backward(tg.add(tg.tsum(tg.mul(first, first)), tg.tsum(last)))
        assert unused.grad is None
        expected = np.concatenate([2 * x.data[:, :2], np.zeros((3, 2)), np.ones((3, 2))], axis=1)
        assert np.array_equal(x.grad, expected)


class TestTensorValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            tg.Tensor(np.array([[np.nan]]))

    def test_shape_dtype_views(self):
        t = tg.Tensor(np.zeros((2, 3), dtype=np.float32))
        assert t.shape == (2, 3)
        assert t.dtype == np.float32


class TestAdam:
    def _store_with(self, value):
        store = tg.ParamStore()
        store.add("w", tg.Tensor(np.array([[value]], dtype=np.float64),
                                 requires_grad=True))
        return store

    def test_zero_gradient_keeps_parameter(self):
        store = self._store_with(1.5)
        store["w"].grad = np.zeros((1, 1))
        tg.adam_step(store, lr=0.1)
        assert store["w"].data[0, 0] == 1.5

    def test_first_step_moves_by_lr(self):
        store = self._store_with(0.0)
        store["w"].grad = np.ones((1, 1))
        tg.adam_step(store, lr=0.1)
        # bias-corrected first step is -lr * g / (|g| + eps) ~ -lr
        assert abs(store["w"].data[0, 0] + 0.1) < 1e-6

    def test_missing_grad_rejected(self):
        store = self._store_with(0.0)
        with pytest.raises(tg.ContractError):
            tg.adam_step(store, lr=0.1)

    def test_descent_on_quadratic(self):
        store = self._store_with(0.0)
        values = []
        for _ in range(10):
            with tg.Tape() as tape:
                w = store["w"]
                diff = tg.add(w, tg.Tensor._wrap(np.array([[-3.0]]), False))
                loss = tg.tsum(tg.mul(diff, diff))
                values.append(float(loss.data))
                tape.backward(loss)
            tg.adam_step(store, lr=0.1)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_grads_cleared_after_step(self):
        store = self._store_with(0.0)
        store["w"].grad = np.ones((1, 1))
        tg.adam_step(store, lr=0.1)
        assert store["w"].grad is None
