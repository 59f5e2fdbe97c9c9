import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from drlp import (
    LOCAL_MINIMUM,
    LpInstance,
    PairGroups,
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
    load_model,
    quantile_loss,
    save_model,
    set_first_layer,
    solve_quadratic,
)
from helpers import builder_cases, cd_lasso, lad_enumerate, load_csv_reference


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

    @pytest.mark.parametrize("field, make", [
        ("RegressionData.x [2, 3] is nan", lambda x, y: RegressionData(x, y)),
        ("RegressionData.y [4] is -inf", lambda x, y: RegressionData(np.zeros((4, 1)), y)),
        ("LpInstance.a [2, 3] is nan", lambda x, y: LpInstance(np.ones(3), x, np.ones(4))),
        ("LpInstance.b [4] is -inf", lambda x, y: LpInstance(np.ones(1), np.zeros((4, 1)), y)),
    ])
    def test_non_finite_data_named_where_it_enters(self, field, make):
        # the message names the field and its first bad entry, 1-based, not a network layer
        x = np.ones((4, 3))
        x[1, 2] = x[3, 0] = np.nan
        y = np.array([1.0, 2.0, 3.0, -np.inf])
        with pytest.raises(ValueError, match=re.escape(f"{field}; data must be finite")):
            make(x, y)

    def test_lp_objective_must_be_finite(self):
        with pytest.raises(ValueError, match=re.escape("LpInstance.c [2] is inf")):
            LpInstance(np.array([1.0, np.inf]), np.ones((1, 2)), np.ones(1))

    @pytest.mark.parametrize("penalty", [0.0, -1.0, np.nan, np.inf])
    def test_lp_penalty_must_be_finite_and_positive(self, penalty):
        lp = LpInstance(np.ones(2), np.ones((1, 2)), np.ones(1))
        with pytest.raises(ValueError, match=f"penalty must be finite and positive, got {penalty}"):
            build_from_lp(lp, penalty=penalty)

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
        # one two-slope unit per residual, then per penalized coefficient
        data = _data(3, 5, 2)
        for lam, width in ((0.0, 5), (1.0, 7)):
            net, pairs = build_quantile_lasso(data, alpha=0.5, lam=lam)
            assert net.widths == (3, width, 1)
            assert net.two_slope.all() and len(pairs) == 0

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
        assert net.widths == (3, 7, 7, 1)
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
        assert net.widths == (n_params, 24, 18, 6, 1)
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
        assert len(pairs) == 0 and net.widths == (2, 2, 1)
        assert not net.weights[0].any() and not net.biases[0].any()

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

    @pytest.mark.parametrize("text, response, widths", [
        ("a,b\n1,2,3\n4,5,6\n", "b", (2, 3)),       # once an IndexError
        ("a,b\n1,2,3\n4,5,6\n", None, (2, 3)),      # once columns naming the wrong cells
        ("a,b,c,d\n1,2,3\n4,5,6\n", None, (4, 3)),  # once silently dropped names
    ])
    def test_header_width_must_match_the_rows(self, tmp_path, text, response, widths):
        f = tmp_path / "d.csv"
        f.write_text(text)
        message = f"d.csv: header has {widths[0]} columns but the data rows have {widths[1]}$"
        with pytest.raises(ValueError, match=message):
            load_csv(f, response=response)

    @pytest.mark.parametrize("response", [None, "a", "b"])
    def test_arrays_own_their_data(self, tmp_path, response):
        # views would keep the whole parsed table alive beside them
        f = tmp_path / "d.csv"
        f.write_text("a,b,c\n1,2,3\n4,5,6\n")
        data = load_csv(f, response=response)
        assert data.x.base is None and data.y.base is None
        assert data.x.flags.c_contiguous

    def test_byte_order_mark_headerless(self, tmp_path):
        # a BOM once made the first observation a header named '\ufeff1'
        f = tmp_path / "d.csv"
        f.write_text("\ufeff1,2\n3,4\n", encoding="utf-8")
        data = load_csv(f)
        assert data.columns is None
        assert_allclose(data.x, [[1.0], [3.0]])
        assert_allclose(data.y, [2.0, 4.0])

    def test_byte_order_mark_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("\ufeffa,b\n1,2\n3,4\n", encoding="utf-8")
        data = load_csv(f, response="a")
        assert data.columns == ["b"]
        assert_allclose(data.x, [[2.0], [4.0]])
        assert_allclose(data.y, [1.0, 3.0])

    @pytest.mark.parametrize("text, message", [
        ("a,b\n\n\n1,2\n1,x\n", "row 5, column 2: not a finite number: 'x'"),
        ("a,b\n\n1,2\n , \n1\n", "row 5 has 1 cells, expected 2"),
        ("\r\n1,2\r\n,,\r\n3,inf\r\n", "row 4, column 2: not a finite number: 'inf'"),
    ])
    def test_errors_name_the_line_in_the_file(self, tmp_path, text, message):
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode())
        with pytest.raises(ValueError, match=f"d.csv: {re.escape(message)}$"):
            load_csv(f)

    def test_quoted_comma_is_no_blank_cell(self, tmp_path):
        # only quotes and commas on the line, yet its cells are ',' and ','
        f = tmp_path / "d.csv"
        f.write_text('",",","\n"",""\n1,2\n3,4\n')
        data = load_csv(f)
        assert data.columns == [","]
        assert_allclose(data.y, [2.0, 4.0])
        assert load_csv_reference(f).columns == [","]

    def test_first_ragged_row_is_reported_before_an_earlier_bad_cell(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n1,x\n3\n")
        with pytest.raises(ValueError, match="row 3 has 1 cells, expected 2$"):
            load_csv(f)

    @pytest.mark.parametrize("cell", ["1_000", "\u0661", "1\u0662.5"])
    def test_number_syntax_differs_from_float_on_purpose(self, tmp_path, cell):
        # float() reads '_' separators and non-ASCII digits; numpy's reader, which
        # decides what a number is, does not, so such a cell is a bad cell ...
        f = tmp_path / "d.csv"
        f.write_text(f"a,b\n1,2\n{cell},3\n", encoding="utf-8")
        assert load_csv_reference(f).x[1, 0] == float(cell)
        with pytest.raises(ValueError, match=f"row 3, column 1: not a finite number: {cell!r}$"):
            load_csv(f)
        # ... and a first row holding one is a header
        f.write_text(f"{cell},2\n1,3\n", encoding="utf-8")
        assert load_csv(f).columns == [cell]
        assert load_csv_reference(f).columns is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_per_cell_reference(self, tmp_path_factory, data):
        """numpy's reader returns the reference's x, y and columns bit for bit.

        On a bad file both raise the same message once the reference's row
        number, which counts non-blank rows, is turned into the line number
        in the file.  Deliberate differences, left out of these files: '_'
        separators and non-ASCII digits (test above), a BOM (read now, see
        the BOM tests) and a quoted cell that spans lines (read one line at
        a time now).
        """
        f = tmp_path_factory.getbasetemp() / "per_cell_reference.csv"
        lines, response = data.draw(_csv_lines())
        text = "".join(lines)
        f.write_bytes(text.encode("utf-8"))
        kept = [k for k, line in enumerate(text.splitlines(), 1)
                if any(cell.strip() for cell in next(csv.reader([line]), []))]
        want = _outcome(load_csv_reference, f, response)
        if want[0] == "error":
            want = ("error", re.sub(r"row (\d+)", lambda m: f"row {kept[int(m.group(1)) - 1]}", want[1]))
        assert _outcome(load_csv, f, response) == want


def _outcome(load, path, response):
    try:
        d = load(path, response)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", d.x.shape, d.x.tobytes(), d.y.tobytes(), d.columns)


@st.composite
def _number(draw):
    """A numeric cell as files spell it: repr, %.6e or %.17g, or a short form."""
    form = draw(st.sampled_from(["repr", "e", "g", "short"]))
    if form == "short":
        return draw(st.sampled_from(["+1", ".5", "-.5", "5.", "+5.", "1E+05", "-2e-3", "0", "-0", "+.25e1"]))
    v = draw(st.floats(allow_nan=False, allow_infinity=False))
    return {"repr": repr, "e": "{:.6e}".format, "g": "{:.17g}".format}[form](v)


def _padded(draw, text):
    pad = st.sampled_from(["", "", " ", "  ", "\t"])
    return draw(pad) + text + draw(pad)


def _quoted(draw, text):
    """text, or text in '"' with the padding inside or outside the quotes."""
    where = draw(st.sampled_from(["bare", "inside", "outside"]))
    if where == "bare":
        return _padded(draw, text)
    if where == "inside":
        return '"' + _padded(draw, text) + '"'
    return _padded(draw, '"' + text + '"')


@st.composite
def _csv_lines(draw):
    """(lines, response) of a CSV file, some good and some bad."""
    width, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    header = None
    if draw(st.booleans()):
        header = [draw(st.text("abxy _,", min_size=1, max_size=4)) for _ in range(width)]
    rows = [[draw(_number()) for _ in range(width)] for _ in range(n)]
    fault = draw(st.sampled_from(["none", "none", "cell", "ragged"]))
    if fault == "cell":
        bad = draw(st.sampled_from(["x", "", " ", "nan", "-inf", "Infinity", "1e999", "--1", "1.2.3", "0x10", "1e"]))
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, width - 1))] = bad
    elif fault == "ragged":
        row = rows[draw(st.integers(0, n - 1))]
        if width > 1 and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(_number()))
    lines = []
    if header is not None:
        lines.append(",".join(f'"{name}"' if "," in name or draw(st.booleans()) else name for name in header))
    lines += [",".join(_quoted(draw, cell) for cell in row) for row in rows]
    blanks = st.sampled_from(["", ",", " , ", ",,", "\t", '""', '"",""'])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blanks))
    lines = [line + end for line in lines]
    if draw(st.booleans()):
        lines[-1] = lines[-1][:-len(end)]
    response = draw(st.sampled_from(header)) if header is not None and draw(st.booleans()) else None
    return lines, response


BUILDER_CASES = builder_cases()


@pytest.mark.parametrize("name, built, reference, x_wall", BUILDER_CASES, ids=[c[0] for c in BUILDER_CASES])
class TestBuilderNets:
    """Each builder's net is its mirrored reference folded, and reloads as itself."""

    @staticmethod
    def _arrays(net):
        return net.weights + net.biases + [net.off_weights, net.two_slope]

    def _same_net(self, net, other):
        assert net.widths == other.widths
        for a, b in zip(self._arrays(net), self._arrays(other), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_net_is_the_folded_reference(self, name, built, reference, x_wall):
        (net, pairs), (mirrored, mirror_pairs) = built, reference
        assert len(pairs) == 0
        self._same_net(net, mirror_pairs.fold(mirrored)[0])

    def test_reloaded_net_folds_back(self, tmp_path, name, built, reference, x_wall):
        save_model(tmp_path / "m.json", *built)
        loaded, pairs = load_model(tmp_path / "m.json")
        folded, kept = pairs.fold(loaded)
        self._same_net(folded, built[0])
        assert kept.tolist() == list(range(built[0].num_neurons))


# the cases whose reference's pairs end the last hidden layer, so that it lists its units as save_model does
SAVED_AS_BEFORE = [c for c in BUILDER_CASES if c[0] not in ("quantile-0.3-0.5", "quantile-1.0-0.5", "lp")]


@pytest.mark.parametrize("name, built, reference, x_wall", SAVED_AS_BEFORE, ids=[c[0] for c in SAVED_AS_BEFORE])
def test_saved_as_the_reference(tmp_path, name, built, reference, x_wall):
    save_model(tmp_path / "built.json", *built)
    save_model(tmp_path / "reference.json", *reference)
    assert (tmp_path / "built.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


class TestBuilderPairs:
    """Every builder returns no pairs, and save_model writes its two-slope units as these pairs."""

    @staticmethod
    def _same(built, tuples, tmp_path):
        net, pairs = built
        assert len(pairs) == 0
        save_model(tmp_path / "m.json", net)
        saved, old = load_model(tmp_path / "m.json")[1], PairGroups(tuples)
        assert saved.first.tolist() == old.first.tolist() and len(old) > 0
        assert saved.second.tolist() == old.second.tolist()

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_quantile(self, lam, tmp_path):
        data = _data(19, 6, 3)
        units = data.n + (data.p if lam > 0.0 else 0)
        # residuals, then penalties, then their mirrors in that order
        self._same(build_quantile_lasso(data, lam=lam), [(i, units + i) for i in range(units)], tmp_path)

    def test_clad(self, tmp_path):
        data = _data(20, 5, 2)
        net, pairs = build_clad(data)
        off, n = net.offsets[1], data.n
        self._same((net, pairs), ((off + i, off + n + i) for i in range(n)), tmp_path)

    def test_lasso(self, tmp_path):
        data = _data(21, 7, 4)
        net, _, pairs = build_lasso(data, 0.5)
        self._same((net, pairs), ((j, data.p + j) for j in range(data.p)), tmp_path)

    def test_l1_first_layer(self, tmp_path):
        base = build_random((3, 4, 3, 1), seed=22)
        data = _data(23, 5, 3)
        net, pairs = build_l1_first_layer(base, data)
        off, n = net.offsets[base.depth], data.n
        self._same((net, pairs), ((off + i, off + n + i) for i in range(n)), tmp_path)

    def test_lp(self, tmp_path):
        lp = LpInstance(np.array([1.0, -2.0]), np.array([[1.0, 1.0]]), np.array([3.0]))
        # the objective, one constraint and two bounds, then the objective's mirror
        self._same(build_from_lp(lp), [(0, 4)], tmp_path)
