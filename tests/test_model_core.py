import numpy as np
import pytest

from fedgtv.errors import DegenerateInputError, ParameterError, ShapeError
from fedgtv.model_core import (
    _gram_gradient,
    _mse_rows,
    _proximal_solve,
    _proximal_system,
    least_squares_fit,
    mse_gradient,
    mse_loss,
    proximal_step,
    proximal_step_gram,
)


def numeric_gradient(X, y, w, h=1e-6):
    """Central finite differences of mse_loss in w."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for j in range(w.size):
        up, down = w.copy(), w.copy()
        up[j] += h
        down[j] -= h
        g[j] = (mse_loss(X, y, up) - mse_loss(X, y, down)) / (2 * h)
    return g


def prox_objective_gradient(X, y, v, anchor, eta):
    return mse_gradient(X, y, v) + (2.0 / eta) * (v - anchor)


class TestMseLoss:
    def test_exact_solution_gives_zero(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 3))
        w = rng.standard_normal(3)
        assert mse_loss(X, X @ w, w) == 0.0

    def test_hand_value(self):
        assert mse_loss(np.eye(2), [1.0, 2.0], [0.0, 0.0]) == 2.5

    def test_residual_scaling_is_quadratic(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 2))
        w = rng.standard_normal(2)
        r = rng.standard_normal(6)
        base = mse_loss(X, X @ w + r, w)
        for c in (2.0, 5.0, 0.5):
            assert mse_loss(X, X @ w + c * r, w) == pytest.approx(c * c * base, rel=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            X = rng.standard_normal((5, 3))
            y = rng.standard_normal(5)
            w = rng.standard_normal(3)
            assert mse_loss(X, y, w) >= 0.0

    def test_empty_dataset(self):
        with pytest.raises(DegenerateInputError):
            mse_loss(np.zeros((0, 2)), np.zeros(0), np.zeros(2))
        # the other checked kernels reject empty data the same way
        with pytest.raises(DegenerateInputError, match="MSE gradient is undefined"):
            mse_gradient(np.zeros((0, 2)), np.zeros(0), np.zeros(2))
        with pytest.raises(DegenerateInputError, match="proximal step is undefined"):
            proximal_step(np.zeros((0, 2)), np.zeros(0), np.zeros(2), eta=1.0)
        with pytest.raises(DegenerateInputError, match="proximal step is undefined"):
            proximal_step_gram(np.zeros((2, 2)), np.zeros(2), 0, np.zeros(2), eta=1.0)

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.eye(2), [1.0, 2.0, 3.0], [0.0, 0.0])
        with pytest.raises(ShapeError, match="expected 2-D feature matrix"):
            mse_loss([1.0, 2.0], [1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ShapeError, match="expected 1-D label vector"):
            mse_loss(np.eye(2), [[1.0], [2.0]], [0.0, 0.0])

    @pytest.mark.parametrize("m", [1, 7, 100, 513, 3000])
    @pytest.mark.parametrize("d", [3, 19])
    @pytest.mark.parametrize("cells", [1, 36])
    def test_stacked_rows_bitwise_per_cell(self, m, d, cells):
        # the kernel behind mse_loss, the trace points and the val/test scores
        rng = np.random.default_rng(m * 100 + d + cells)
        X = rng.standard_normal((m, d))
        y = rng.standard_normal(m)
        W = rng.standard_normal((cells, 4, d))
        for stack in (W[:, 2], np.ascontiguousarray(W[:, 2])):  # a non-contiguous node slice, and a copy
            losses = _mse_rows(X, y, stack)
            assert np.array_equal(losses, [mse_loss(X, y, w) for w in stack])
            row_form = []
            for w in stack:  # mse_loss's row-form expression before the stacked kernel
                r = y - X @ w
                row_form.append(float(r @ r) / m)
            assert np.array_equal(losses, row_form)


class TestMseGradient:
    def test_hand_value(self):
        assert np.array_equal(mse_gradient([[1.0]], [0.0], [3.0]), [6.0])

    def test_broadcasts_bitwise_over_leading_axes(self):
        # the kernel the rounds run: each vector of a stack steps bitwise as
        # the one-vector mse_gradient call
        rng = np.random.default_rng(12)
        for m, d in ((1, 1), (7, 3), (512, 19), (2000, 40)):
            X = rng.standard_normal((m, d))
            y = rng.standard_normal(m)
            W = rng.standard_normal((3, 5, d))
            for stack in (W[0], W, W[:, 2]):  # (C, d), (A, B, d), non-contiguous slice
                out = _gram_gradient(X.T @ X, X.T @ y, 2.0 / m, stack)
                assert out.shape == stack.shape
                for idx in np.ndindex(stack.shape[:-1]):
                    assert np.array_equal(out[idx], mse_gradient(X, y, stack[idx]))

    def test_gram_form_matches_row_form(self, public_design):
        # (2/m)(X^T X w - X^T y) against (2/m) X^T (X w - y), relative to the
        # row form's own scale, on random designs and on the rank-18 public layout
        rng = np.random.default_rng(21)
        designs = [(rng.standard_normal((m, d)), rng.standard_normal(m)) for m, d in ((1, 1), (7, 3), (512, 19), (3000, 40))]
        designs += [public_design(rng, m) for m in (40, 512, 5000)]
        for X, y in designs:
            for w in rng.standard_normal((5, X.shape[1])):
                r = X @ w - y
                row = (2.0 / len(y)) * (X.T @ r)
                scale = (2.0 / len(y)) * np.linalg.norm(X, 2) * np.linalg.norm(r)
                assert np.linalg.norm(mse_gradient(X, y, w) - row) <= 1e-12 * scale

    def test_stack_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_gradient(np.eye(2), [1.0, 2.0], np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            mse_gradient(np.eye(2), [1.0, 2.0], 0.0)
        with pytest.raises(ShapeError):  # one vector only: a stack of matching width too
            mse_gradient(np.eye(2), [1.0, 2.0], np.zeros((4, 2)))

    def test_zero_at_least_squares_solution(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        w = least_squares_fit(X, y)
        assert np.linalg.norm(mse_gradient(X, y, w)) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = int(rng.integers(2, 15))
            d = int(rng.integers(1, 6))
            X = rng.standard_normal((m, d))
            y = rng.standard_normal(m)
            w = rng.standard_normal(d)
            g = mse_gradient(X, y, w)
            g_fd = numeric_gradient(X, y, w)
            assert np.linalg.norm(g - g_fd) < 1e-5 * max(1.0, np.linalg.norm(g_fd))


class TestLeastSquaresFit:
    def test_identity_system(self):
        y = np.array([2.0, -1.0, 4.0])
        assert np.allclose(least_squares_fit(np.eye(3), y), y, atol=1e-12)

    def test_recovers_consistent_overdetermined_system(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 4))
        w = rng.standard_normal(4)
        assert np.allclose(least_squares_fit(X, X @ w), w, atol=1e-8)

    def test_underdetermined_gives_minimum_norm(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((2, 3))
        y = rng.standard_normal(2)
        w = least_squares_fit(X, y)
        assert np.allclose(w, np.linalg.pinv(X) @ y, rtol=0, atol=1e-12)
        assert np.allclose(X @ w, y, rtol=0, atol=1e-12)

    def test_duplicate_column_gives_minimum_norm(self):
        # The rank-deficient case of the 19-column layout: the one-hot
        # rcount slots sum to the intercept column.
        rng = np.random.default_rng(6)
        col = rng.standard_normal((20, 1))
        X = np.hstack([col, col])
        y = rng.standard_normal(20)
        w = least_squares_fit(X, y)
        assert np.allclose(w, np.linalg.pinv(X) @ y, rtol=0, atol=1e-12)
        assert w[0] == pytest.approx(w[1], abs=1e-12)

    def test_empty_or_non_finite_rejected(self):
        with pytest.raises(DegenerateInputError):
            least_squares_fit(np.ones((0, 3)), np.ones(0))
        X = np.ones((4, 2))
        X[2, 1] = np.nan
        with pytest.raises(DegenerateInputError, match="not finite"):
            least_squares_fit(X, np.ones(4))
        with pytest.raises(DegenerateInputError, match="not finite"):
            least_squares_fit(np.eye(2), [1.0, np.inf])


class TestProximalStep:
    def test_hand_value(self):
        v = proximal_step([[1.0]], [2.0], [0.0], eta=1.0)
        assert np.allclose(v, [1.0], atol=1e-12)

    def test_tiny_eta_pins_anchor(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        anchor = rng.standard_normal(3)
        v = proximal_step(X, y, anchor, eta=1e-12)
        assert np.linalg.norm(v - anchor) < 1e-6

    def test_huge_eta_approaches_least_squares(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        v = proximal_step(X, y, np.zeros(3), eta=1e12)
        assert np.linalg.norm(v - least_squares_fit(X, y)) < 1e-6

    def test_zeroes_proximal_objective_gradient(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = int(rng.integers(1, 12))
            d = int(rng.integers(1, 5))
            X = rng.standard_normal((m, d))
            y = rng.standard_normal(m)
            anchor = rng.standard_normal(d)
            eta = float(rng.uniform(0.01, 10.0))
            v = proximal_step(X, y, anchor, eta)
            assert np.linalg.norm(prox_objective_gradient(X, y, v, anchor, eta)) < 1e-8

    def test_contraction_toward_anchor_as_eta_shrinks(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((15, 3))
        y = rng.standard_normal(15)
        anchor = rng.standard_normal(3)
        dists = [
            np.linalg.norm(proximal_step(X, y, anchor, eta) - anchor)
            for eta in (10.0, 1.0, 0.1, 0.01)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))

    def test_non_positive_eta_rejected(self):
        for eta in (0.0, -1.0, np.inf):
            with pytest.raises(ParameterError):
                proximal_step([[1.0]], [1.0], [0.0], eta=eta)
            with pytest.raises(ParameterError):
                proximal_step_gram(np.eye(2), np.ones(2), 3, np.zeros(2), eta=eta)
        # OptimizerConfig requires a finite eta, so the kernel rejects inf on every design
        with pytest.raises(ParameterError, match="eta must be positive and finite, got inf"):
            proximal_step([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], [0.0, 0.0], float("inf"))
        with pytest.raises(ParameterError, match="eta must be positive and finite, got inf"):
            proximal_step_gram([[5.0, 5.0], [5.0, 5.0]], [5.0, 5.0], 2, [0.0, 0.0], float("inf"))

    def test_rank_deficient_design_at_huge_eta_matches_pinv_oracle(self):
        # a pull 2/eta below the rounding level of X^T X: the step is the
        # least-squares fit nearest the anchor, pinv(X) y + (I - pinv(X) X) w_anchor
        X, y = np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 3.0])
        pinv = np.linalg.pinv(X)
        for anchor in ([0.0, 0.0], [3.0, -1.0], [-2.5, 7.0]):
            expected = pinv @ y + (np.eye(2) - pinv @ X) @ anchor
            for eta in (1e17, 1e300):
                v = proximal_step(X, y, anchor, eta)
                assert np.linalg.norm(v - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_gram_variant_is_bitwise_identical(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((12, 4))
        y = rng.standard_normal(12)
        anchor = rng.standard_normal(4)
        direct = proximal_step(X, y, anchor, eta=0.7)
        cached = proximal_step_gram(X.T @ X, X.T @ y, 12, anchor, eta=0.7)
        assert np.array_equal(direct, cached)

        # the kernel the fedavg2 rounds run: one stacked (n, d, d) system
        # solves each node bitwise as a single call
        Xs = [rng.standard_normal((m, 4)) for m in (12, 5, 30)]
        ys = [rng.standard_normal(Xi.shape[0]) for Xi in Xs]
        grams = (
            np.stack([Xi.T @ Xi for Xi in Xs]),
            np.stack([Xi.T @ yi for Xi, yi in zip(Xs, ys)]),
            np.array([Xi.shape[0] for Xi in Xs], dtype=float),
        )
        anchors = rng.standard_normal((3, 4))
        per_node = [proximal_step(Xi, yi, a, eta=0.7) for Xi, yi, a in zip(Xs, ys, anchors)]
        stacked = _proximal_solve(_proximal_system(*grams, np.array(0.7)), anchors)
        assert np.array_equal(stacked, np.array(per_node))

        # a (cells, n) stack of anchors with one eta per cell broadcasts the same way
        anchors = rng.standard_normal((3, 3, 4))
        cells = _proximal_solve(_proximal_system(*grams, np.array([[0.7], [3.0], [1e300]])), anchors)
        for c, eta in enumerate((0.7, 3.0, 1e300)):
            for i in range(3):
                assert np.array_equal(cells[c, i], proximal_step_gram(*(g[i] for g in grams), anchors[c, i], eta))

    def test_gram_shape_mismatch(self):
        with pytest.raises(ShapeError):
            proximal_step_gram(np.eye(3), np.zeros(2), 5, np.zeros(3), eta=1.0)
        with pytest.raises(ShapeError):
            proximal_step_gram(np.stack([np.eye(3)] * 2), np.zeros((2, 3)), 5, np.zeros((3, 3)), eta=1.0)
        # one system only: stacked but consistent inputs, or a per-system m or eta
        with pytest.raises(ShapeError):
            proximal_step_gram(np.stack([np.eye(3)] * 2), np.zeros((2, 3)), 5, np.zeros((2, 3)), eta=1.0)
        with pytest.raises(ShapeError):
            proximal_step_gram(np.eye(3), np.zeros(3), [5, 6], np.zeros(3), eta=1.0)
        with pytest.raises(ShapeError):
            proximal_step_gram(np.eye(3), np.zeros(3), 5, np.zeros(3), eta=np.array([[0.7], [3.0]]))
