import numpy as np
import pytest
from numpy.testing import assert_allclose

from drlp import (
    LOCAL_MINIMUM,
    LpInstance,
    RegressionData,
    SolverOptions,
    build_clad,
    build_from_lp,
    build_l1_first_layer,
    build_lasso,
    build_quantile_lasso,
    build_random,
    clad_loss,
    drlsimplex,
    evaluate,
    flatten_first_layer,
    l1_first_layer_loss,
    lasso_loss,
    load_csv,
    quantile_loss,
    set_first_layer,
    solve_quadratic,
)
from helpers import cd_lasso, lad_enumerate


def _data(seed, n, p):
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.normal(size=(n, p))
    theta = rng.normal(size=p)
    y = x @ theta + 0.3 * rng.normal(size=n)
    return RegressionData(x, y)


class TestInputChecks:
    def test_misaligned_regression_data(self):
        with pytest.raises(ValueError, match=r"design \(3, 2\) and response \(4,\) do not align"):
            RegressionData(np.zeros((3, 2)), np.zeros(4))

    def test_lp_matrix_must_match_c_and_b(self):
        with pytest.raises(ValueError, match="constraint matrix does not match c and b"):
            LpInstance(np.ones(2), np.ones((3, 3)), np.ones(3))

    def test_random_topology_must_end_in_one(self):
        with pytest.raises(ValueError, match=r"topology must be \(input, hidden\.\.\., 1\)"):
            build_random((2, 3, 2))

    def test_featureless_data(self):
        # lasso and clad fit coefficients only; quantile still fits its intercept
        data = RegressionData(np.zeros((3, 0)), np.array([1.0, -2.0, 4.0]))
        for build, name in ((build_lasso, "lasso"), (build_clad, "clad")):
            with pytest.raises(ValueError, match=f"^{name} needs at least one feature column"):
                build(data)
        net, pairs = build_quantile_lasso(data, alpha=0.5, lam=1.0)
        out = drlsimplex(net, np.zeros(1), SolverOptions(seed=0), pairs)
        assert out.status == LOCAL_MINIMUM
        assert out.f == pytest.approx(quantile_loss(data, [1.0], alpha=0.5), abs=1e-12)


class TestQuantileBuilder:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_network_value_equals_loss(self, alpha, lam):
        data = _data(1, 8, 2)
        net, pairs = build_quantile_lasso(data, alpha=alpha, lam=lam)
        pairs.validate(net)
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(10):
            theta = rng.normal(size=3)
            assert evaluate(net, theta) == pytest.approx(
                quantile_loss(data, theta, alpha, lam), abs=1e-10
            )

    def test_widths_and_pairs(self):
        data = _data(3, 5, 2)
        net, pairs = build_quantile_lasso(data, alpha=0.5, lam=0.0)
        assert net.widths == (3, 10, 1)
        assert len(pairs) == 5
        net2, pairs2 = build_quantile_lasso(data, alpha=0.5, lam=1.0)
        assert net2.widths == (3, 14, 1)
        assert len(pairs2) == 7

    def test_rejects_bad_parameters(self):
        data = _data(4, 4, 1)
        with pytest.raises(ValueError):
            build_quantile_lasso(data, alpha=1.5)
        for lam in (-1.0, np.nan, np.inf):
            for build in (build_quantile_lasso, build_lasso):
                with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
                    build(data, lam=lam)

    def test_tiny_median_regression_reaches_global(self):
        data = _data(5, 6, 1)
        net, pairs = build_quantile_lasso(data, alpha=0.5)
        out = drlsimplex(net, np.zeros(2), SolverOptions(seed=1), pairs=pairs)
        assert out.status == LOCAL_MINIMUM
        design = np.hstack([np.ones((6, 1)), data.x])
        assert out.f == pytest.approx(lad_enumerate(design, data.y), abs=1e-9)


class TestCladBuilder:
    def test_network_value_equals_loss(self):
        data = _data(6, 7, 3)
        net, pairs = build_clad(data)
        pairs.validate(net)
        assert net.widths == (3, 7, 14, 1)
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(10):
            theta = rng.normal(size=3)
            assert evaluate(net, theta) == pytest.approx(
                clad_loss(data, theta), abs=1e-10
            )

    def test_solver_descends_from_noise(self):
        data = _data(8, 10, 2)
        net, pairs = build_clad(data)
        x0 = np.array([0.3, -0.2])
        out = drlsimplex(net, x0, SolverOptions(seed=2), pairs=pairs)
        assert out.status == LOCAL_MINIMUM
        assert out.f <= clad_loss(data, x0) + 1e-9


class TestL1FirstLayer:
    def test_network_value_equals_loss(self):
        base = build_random((3, 4, 3, 1), seed=9)
        data = _data(10, 6, 3)
        net, pairs = build_l1_first_layer(base, data)
        pairs.validate(net)
        n_params = 4 * (3 + 1)
        assert net.input_dim == n_params
        assert net.widths == (n_params, 24, 18, 12, 1)
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(8):
            theta = rng.normal(size=n_params)
            assert evaluate(net, theta) == pytest.approx(
                l1_first_layer_loss(base, data, theta), rel=1e-10, abs=1e-10
            )

    def test_flatten_set_round_trip(self):
        base = build_random((2, 3, 1), seed=12)
        theta = flatten_first_layer(base)
        assert theta.shape == (3 * 3,)
        rebuilt = set_first_layer(base, theta)
        assert np.array_equal(rebuilt.weights[0], base.weights[0])
        assert np.array_equal(rebuilt.biases[0], base.biases[0])
        with pytest.raises(ValueError):
            set_first_layer(base, theta[:-1])

    def test_dimension_mismatch_rejected(self):
        base = build_random((3, 4, 1), seed=13)
        with pytest.raises(ValueError):
            build_l1_first_layer(base, _data(14, 5, 2))


class TestLassoBuilder:
    def test_network_plus_quadratic_equals_loss(self):
        data = _data(15, 9, 3)
        for lam in (0.0, 0.5, 5.0):
            net, q, pairs = build_lasso(data, lam)
            if pairs is not None:
                pairs.validate(net)
            rng = np.random.Generator(np.random.Philox(16))
            for _ in range(8):
                theta = rng.normal(size=3)
                total = evaluate(net, theta) + q.value(theta)
                assert total == pytest.approx(lasso_loss(data, theta, lam), rel=1e-10)

    def test_no_pairs_without_penalty(self):
        net, q, pairs = build_lasso(_data(17, 5, 2), 0.0)
        assert len(pairs) == 0

    def test_micro_problems_match_coordinate_descent(self):
        x = np.array([[1.0], [2.0]])
        y = np.array([1.0, 2.0])
        data = RegressionData(x, y)
        for lam, expect in ((0.0, 1.0), (4.0, 0.6), (20.0, 0.0)):
            net, q, pairs = build_lasso(data, lam)
            out = solve_quadratic(net, q, [3.0], SolverOptions(seed=3), pairs=pairs)
            assert out.status == LOCAL_MINIMUM
            assert out.x[0] == pytest.approx(expect, abs=1e-8)
            assert out.x[0] == pytest.approx(cd_lasso(x, y, lam)[0], abs=1e-8)


class TestLpBuilder:
    def test_value_formula(self):
        lp = LpInstance(
            c=np.array([1.0, -2.0]),
            a=np.array([[1.0, 1.0], [2.0, -1.0]]),
            b=np.array([3.0, 4.0]),
        )
        net, pairs = build_from_lp(lp, penalty=7.0)
        pairs.validate(net)
        rng = np.random.Generator(np.random.Philox(18))
        for _ in range(10):
            x = rng.uniform(-2.0, 3.0, size=2)
            viol = np.maximum(lp.a @ x - lp.b, 0.0).sum()
            neg = np.maximum(-x, 0.0).sum()
            want = lp.c @ x + 7.0 * (viol + neg)
            assert evaluate(net, x) == pytest.approx(want, abs=1e-10)

    def test_bounded_lp_solved(self):
        # min -x1 - x2 st x1 + x2 <= 1, x >= 0: optimum -1 on the segment
        lp = LpInstance(np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
        net, pairs = build_from_lp(lp, penalty=10.0)
        out = drlsimplex(net, [0.2, 0.1], SolverOptions(seed=4), pairs=pairs)
        assert out.status == LOCAL_MINIMUM
        assert out.f == pytest.approx(-1.0, abs=1e-9)

    def test_penalty_must_be_positive(self):
        lp = LpInstance(np.array([1.0]), np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            build_from_lp(lp, penalty=0.0)


class TestLoadCsv:
    def test_with_header_named_response(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,target\n1,2,3\n4,5,6\n")
        data = load_csv(f, response="target")
        assert data.columns == ["a", "b"]
        assert_allclose(data.x, [[1.0, 2.0], [4.0, 5.0]])
        assert_allclose(data.y, [3.0, 6.0])

    def test_header_defaults_to_last_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("u,v\n1,2\n3,4\n")
        data = load_csv(f)
        assert_allclose(data.x, [[1.0], [3.0]])
        assert_allclose(data.y, [2.0, 4.0])

    def test_headerless(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,5\n3,4,6\n")
        data = load_csv(f)
        assert_allclose(data.x, [[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(data.y, [5.0, 6.0])

    def test_bad_cell_cited_by_position(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n1,oops\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(f)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_cell_cited_by_position(self, tmp_path, cell):
        f = tmp_path / "d.csv"
        f.write_text(f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(ValueError, match=rf"row 3, column 2: not a finite number: '{cell}'"):
            load_csv(f)

    def test_ragged_row_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,3\n1,2\n")
        with pytest.raises(ValueError):
            load_csv(f)

    @pytest.mark.parametrize("text, message", [
        ("", "no data rows"),
        ("\n , \n\n", "no data rows"),
        ("a,b\n\n", "header but no data rows"),
    ])
    def test_no_data_rows_rejected(self, tmp_path, text, message):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=f"d.csv: {message}$"):
            load_csv(f)

    def test_named_response_needs_a_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="response column 'y' needs a header row"):
            load_csv(f, response="y")

    def test_unknown_response_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="response"):
            load_csv(f, response="zzz")
