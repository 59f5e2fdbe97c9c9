import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import drlp.cli
import drlp.solver
from drlp import (
    NON_REGULAR,
    LpInstance,
    PairGroups,
    RegressionData,
    ReluNetwork,
    SolveOutcome,
    SolverOptions,
    activation_pattern,
    build_clad,
    build_from_lp,
    build_quantile_lasso,
    build_random,
    critical_indices,
    dense_pseudoinverse,
    drlsimplex,
    evaluate,
    load_csv,
    load_model,
    relu_arguments,
    save_model,
)
from drlp.cli import main
from helpers import interleaved_clad, lad_enumerate


@pytest.fixture
def hinge_model(tmp_path, net_hinge_gap):
    path = tmp_path / "hinge.json"
    save_model(path, net_hinge_gap)
    return str(path)


@pytest.fixture
def negated_model(tmp_path, net_hinge_gap_negated):
    path = tmp_path / "neg.json"
    save_model(path, net_hinge_gap_negated)
    return str(path)


@pytest.fixture
def fold_model(tmp_path, net_fold_sum):
    path = tmp_path / "fold.json"
    save_model(path, net_fold_sum)
    return str(path)


@pytest.fixture
def tiny_csv(tmp_path):
    rng = np.random.Generator(np.random.Philox(30))
    x = rng.normal(size=(8, 1))
    y = 2.0 * x[:, 0] + 0.1 * rng.normal(size=8)
    path = tmp_path / "data.csv"
    lines = ["x1,y"] + [f"{a},{b}" for a, b in zip(x[:, 0], y)]
    path.write_text("\n".join(lines) + "\n")
    return str(path), x, y


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRandomNet:
    def test_writes_loadable_model(self, capsys, tmp_path):
        out = tmp_path / "net.json"
        code, stdout, _ = _run(
            capsys, ["random-net", "--topology", "2,4,1", "--seed", "5",
                     "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["widths"] == [2, 4, 1]
        assert out.exists()

    def test_seed_reproduces_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _run(capsys, ["random-net", "--topology", "3,4,1", "--seed", "9", "--out", str(a)])
        _run(capsys, ["random-net", "--topology", "3,4,1", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("bounds", [["--low", "nan"], ["--high", "inf"], ["--low=-inf"],
                                        ["--low", "1", "--high", "0"]])
    def test_bad_bounds_exit_one(self, capsys, tmp_path, bounds):
        out = tmp_path / "net.json"
        code, stdout, stderr = _run(capsys, ["random-net", "--topology", "2,3,1", "--out", str(out)]
                                    + bounds)
        assert code == 1 and stdout == "" and not out.exists()
        assert "error: low and high must be finite with low <= high" in stderr

    def test_topology_not_ending_in_one_exit_one(self, capsys, tmp_path):
        out = tmp_path / "net.json"
        code, stdout, stderr = _run(capsys, ["random-net", "--topology", "2,3,2", "--out", str(out)])
        assert code == 1 and stdout == "" and not out.exists()
        assert "error: topology must be (input, hidden..., 1)" in stderr

    def test_width_zero_exit_one(self, capsys, tmp_path):
        out = tmp_path / "net.json"
        code, stdout, stderr = _run(capsys, ["random-net", "--topology", "3,0,1", "--out", str(out)])
        assert code == 1 and stdout == "" and not out.exists()
        assert "error: layer 1: weight shape (0, 3) is empty" in stderr


class TestSolve:
    def test_local_minimum_exit_zero(self, capsys, hinge_model):
        code, stdout, _ = _run(
            capsys, ["solve", "--model", hinge_model, "--x0", "3,-2"]
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["status"] == "LocalMinimum"
        assert doc["f"] == pytest.approx(0.0, abs=1e-9)
        assert doc["steps"] > 0 and doc["wall_ms"] >= 0.0

    def test_zero_start(self, capsys, hinge_model, monkeypatch):
        real, starts = drlp.cli.drlsimplex, []
        monkeypatch.setattr(drlp.cli, "drlsimplex",
                            lambda net, x0, *rest: starts.append(x0) or real(net, x0, *rest))
        code, stdout, _ = _run(capsys, ["solve", "--model", hinge_model, "--x0", "zero",
                                        "--starts", "2"])
        assert code == 0 and json.loads(stdout)["status"] == "LocalMinimum"
        assert [x0.tolist() for x0 in starts] == [[0.0, 0.0], [0.0, 0.0]]

    def test_unbounded_exit_two(self, capsys, negated_model):
        code, stdout, _ = _run(
            capsys, ["solve", "--model", negated_model, "--x0", "3,-2"]
        )
        assert code == 2
        doc = json.loads(stdout)
        assert doc["status"] == "Unbounded"
        assert len(doc["direction"]) == 2

    def test_step_limit_exit_four(self, capsys, hinge_model):
        code, stdout, _ = _run(
            capsys,
            ["solve", "--model", hinge_model, "--x0", "3,-2", "--max-steps", "1"],
        )
        assert code == 4
        assert json.loads(stdout)["status"] == "StepLimit"

    @pytest.mark.parametrize("flag, value, message", [
        ("--starts", "0", "--starts must be at least 1, got 0"),
        ("--starts", "-2", "--starts must be at least 1, got -2"),
        ("--max-steps", "-1", "--max-steps must be nonnegative, got -1"),
        ("--x0", "abc", "--x0: could not convert string to float: 'abc'"),
        ("--x0", "1,2,3", "--x0 must be finite with shape (2,)"),
        ("--seed", "-1", "--seed must be a nonnegative integer, got -1"),
    ])
    def test_out_of_range_counts_exit_one(self, capsys, hinge_model, tmp_path, flag, value, message):
        trace = tmp_path / "t.jsonl"
        code, stdout, stderr = _run(
            capsys, ["solve", "--model", hinge_model, "--trace", str(trace), flag, value])
        assert code == 1 and stdout == ""
        assert message in stderr
        assert not trace.exists()

    def test_missing_model_exit_one(self, capsys, tmp_path):
        code, _, stderr = _run(
            capsys, ["solve", "--model", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "error:" in stderr

    def test_corrupt_model_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, stderr = _run(capsys, ["solve", "--model", str(bad)])
        assert code == 1
        assert "error:" in stderr

    def test_outcome_file_matches_stdout(self, capsys, hinge_model, tmp_path):
        out = tmp_path / "outcome.json"
        _, stdout, _ = _run(
            capsys,
            ["solve", "--model", hinge_model, "--x0", "3,-2", "--out", str(out)],
        )
        assert json.loads(out.read_text()) == json.loads(stdout)

    def test_trace_is_flushed_jsonl(self, capsys, hinge_model, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _run(
            capsys,
            ["solve", "--model", hinge_model, "--x0", "3,-2", "--trace", str(trace)],
        )
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records
        for rec in records:
            assert {"step", "phase", "x", "f"} <= rec.keys()
        fs = [rec["f"] for rec in records]
        for a, b in zip(fs, fs[1:]):
            assert b <= a + 1e-9 * (1.0 + abs(fs[0]))

    def test_untraced_solve_evaluates_only_the_outcome(self, capsys, hinge_model, tmp_path,
                                                        monkeypatch):
        calls = []
        real = drlp.solver.evaluate
        monkeypatch.setattr(drlp.solver, "evaluate", lambda *a: calls.append(1) or real(*a))
        argv = ["solve", "--model", hinge_model, "--x0", "3,-2"]
        assert _run(capsys, argv)[0] == 0
        assert len(calls) == 1                      # the outcome's f alone
        calls.clear()
        trace = tmp_path / "trace.jsonl"
        assert _run(capsys, argv + ["--trace", str(trace)])[0] == 0
        # find_vertex and pivot records take f from their step's arguments; the rest evaluate
        phases = [json.loads(line)["phase"] for line in trace.read_text().splitlines()]
        swept = sum(phase in ("flip", "certify", "correct", "resync") for phase in phases)
        assert swept < len(phases) and len(calls) == swept + 1

    def test_trace_names_first_unit(self, capsys, tmp_path):
        # f(x) = relu(x): the descent from x = 2 stops on unit (1, 1), flat index 0
        model = tmp_path / "relu.json"
        save_model(model, ReluNetwork([np.ones((1, 1)), np.ones((1, 1))],
                                      [np.zeros(1), np.zeros(1)]))
        trace = tmp_path / "trace.jsonl"
        code, _, _ = _run(capsys, ["solve", "--model", str(model), "--x0", "2",
                                   "--trace", str(trace)])
        assert code == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        hits = [rec["neuron"] for rec in records if rec["phase"] in ("find_vertex", "flip")]
        assert hits and all(n == [1, 1] for n in hits)

    def test_multi_start_trace_is_ordered_and_repeatable(self, capsys, hinge_model, tmp_path):
        files = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in files:
            _run(capsys, ["solve", "--model", hinge_model, "--x0", "random",
                          "--starts", "3", "--seed", "11", "--trace", str(path)])
        assert files[0].read_bytes() == files[1].read_bytes()
        starts = [json.loads(line)["start"] for line in files[0].read_text().splitlines()]
        assert starts == sorted(starts) and set(starts) == {0, 1, 2}

    def test_trace_file_is_rewritten(self, capsys, tiny_csv, tmp_path):
        path, _, _ = tiny_csv
        trace = tmp_path / "trace.jsonl"
        runs = []
        for _ in range(2):
            code, _, _ = _run(capsys, ["quantile", "--data", path, "--seed", "1",
                                       "--trace", str(trace)])
            assert code == 0
            runs.append(trace.read_text().splitlines())
        assert runs[0] == runs[1]
        records = [json.loads(line) for line in runs[0]]
        stepping = ("pivot", "find_vertex")
        steps = [rec for rec in records if rec["phase"] in stepping]
        assert {rec["phase"] for rec in steps} == set(stepping)
        assert all(isinstance(rec["crossed"], int) for rec in steps)
        assert all(rec["crossed"] is None for rec in records if rec["phase"] not in stepping)

    def test_non_finite_x0_exit_one(self, capsys, hinge_model):
        code, stdout, stderr = _run(capsys, ["solve", "--model", hinge_model, "--x0", "nan,0"])
        assert code == 1 and stdout == ""
        assert "x0 must be finite" in stderr

    def test_non_finite_model_exit_one(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        # json writes float nan as NaN and reads it back
        path.write_text(json.dumps({"weights": [[[1.0, float("nan")], [0.0, 1.0]], [[1.0, 1.0]]],
                                    "biases": [[0.0, 0.0], [0.0]]}))
        for argv in (["solve", "--model", str(path)],
                     ["regions", "--model", str(path), "--samples", "100"],
                     ["check", "--model", str(path), "--x", "0,0"]):
            code, stdout, stderr = _run(capsys, argv)
            assert code == 1 and stdout == ""
            assert "layer 1: weight [1, 2] is nan" in stderr
            assert f"model file {path}: " in stderr

    @pytest.mark.parametrize("command", [["solve", "--x0", "1"], ["check", "--x", "1"]])
    def test_pairs_outside_last_hidden_layer_exit_one(self, capsys, tmp_path, command,
                                                      net_split_line_mirrored):
        path = tmp_path / "deep_pairs.json"
        save_model(path, net_split_line_mirrored, PairGroups([(0, 1)]))
        code, stdout, stderr = _run(capsys, command[:1] + ["--model", str(path)] + command[1:])
        assert code == 1 and stdout == ""
        assert stderr == (f"error: model file {path}: pairs must be [[layer, unit], [layer, unit]] "
                          "lists of distinct, exactly negated last-hidden-layer units; pair (1, 1)/(1, 2): "
                          "not in the last hidden layer, 2, the only one pairs may mirror\n")

    @pytest.mark.parametrize("entry, why", [
        ([[0, 1], [1, 2]], "; no hidden unit [0, 1] in widths (1, 2, 1)\n"),
        ([[1, 1], [2, 2]], "; no hidden unit [2, 2] in widths (1, 2, 1)\n"),
        ([[1, 0], [1, 2]], "; no hidden unit [1, 0] in widths (1, 2, 1)\n"),
        ([[1, 1], [1, 3]], "; no hidden unit [1, 3] in widths (1, 2, 1)\n"),
        (None, "; int() argument must be a string, a bytes-like object or a real number, not 'NoneType'\n"),
        ([[None, 1], [1, 2]], "not 'NoneType'\n"),
        ([[1, 1], None], "inhomogeneous shape"),
        ([[1, 1], [1]], "inhomogeneous shape"),
        ([[1, 1], [1, 2, 3]], "inhomogeneous shape"),
        ([[1, 1, 1], [1, 2, 1]], "; too many values to unpack (expected 2)\n"),
        ([[1, 1], [1, 1]], "; pairs must be disjoint\n"),
    ])
    def test_bad_pairs_entry_exit_one(self, capsys, tmp_path, entry, why):
        # |x| as a mirrored pair, whose good entry is [[1, 1], [1, 2]]
        path = tmp_path / "abs.json"
        save_model(path, ReluNetwork([[[1.0], [-1.0]], [[1.0, 1.0]]], [[0.0, 0.0], [0.0]]), PairGroups([(0, 1)]))
        doc = json.loads(path.read_text())
        assert doc["pairs"] == [[[1, 1], [1, 2]]]
        doc["pairs"] = [entry]
        path.write_text(json.dumps(doc))
        code, stdout, stderr = _run(capsys, ["check", "--model", str(path), "--x", "0"])
        assert code == 1 and stdout == ""
        assert stderr.startswith(f"error: model file {path}: pairs must be [[layer, unit], [layer, unit]] lists "
                                 "of distinct, exactly negated last-hidden-layer units; ")
        assert why in stderr

    def test_multi_start_is_deterministic(self, capsys, hinge_model):
        args = ["solve", "--model", hinge_model, "--x0", "random",
                "--starts", "3", "--seed", "11"]
        _, first, _ = _run(capsys, args)
        _, second, _ = _run(capsys, args)
        a, b = json.loads(first), json.loads(second)
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b


class TestParseErrors:
    @pytest.mark.parametrize("argv, message", [
        (["quantile", "--data", "CSV", "--x0", "1"], "--x0 must be finite with shape (2,); got shape (1,)"),
        (["train-l1", "--data", "CSV", "--base-topology", "1,3,1", "--x0", "1,x"],
         "--x0: could not convert string to float: 'x'"),
        (["train-l1", "--data", "CSV", "--base-topology", "1,x,1"],
         "--base-topology: invalid literal for int() with base 10: 'x'"),
        (["check", "--model", "MODEL", "--x", "1,abc"], "--x: could not convert string to float: 'abc'"),
        (["regions", "--model", "MODEL", "--box", "a,b"], "--box: could not convert string to float: 'a'"),
        (["bounds", "--topology", "2,x"], "--topology: invalid literal for int() with base 10: 'x'"),
        (["random-net", "--topology", "2,,1", "--out", "OUT"],
         "--topology: invalid literal for int() with base 10: ''"),
        (["random-net", "--topology", "2,3,1", "--seed", "-1", "--out", "OUT"],
         "--seed must be a nonnegative integer, got -1"),
        (["regions", "--model", "MODEL", "--seed=-3"], "--seed must be a nonnegative integer, got -3"),
        (["solve", "--model", "MODEL", "--max-steps", "abc"],
         "drlp solve: argument --max-steps: invalid int value: 'abc'"),
        (["solve"], "drlp solve: the following arguments are required: --model"),
        ([], "drlp: the following arguments are required: command"),
    ])
    def test_bad_value_names_its_flag(self, capsys, hinge_model, tiny_csv, tmp_path, argv, message):
        paths = {"MODEL": hinge_model, "CSV": tiny_csv[0], "OUT": str(tmp_path / "net.json")}
        code, stdout, stderr = _run(capsys, [paths.get(a, a) for a in argv])
        assert code == 1 and stdout == ""
        assert stderr == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and "usage: drlp" in capsys.readouterr().out


def _non_regular_first(monkeypatch):
    """Make the CLI's first drlsimplex call end NonRegular; the rest solve."""
    real, nets = drlp.cli.drlsimplex, []

    def solve(net, x0, options, pairs):
        nets.append(net)
        if len(nets) == 1:
            x = np.array(x0, dtype=np.float64)
            return SolveOutcome(NON_REGULAR, x, evaluate(net, x), 0, neurons=[0])
        return real(net, x0, options, pairs)

    monkeypatch.setattr(drlp.cli, "drlsimplex", solve)
    return nets


class TestJitter:
    def test_reports_f_of_the_original_network(self, capsys, monkeypatch, hinge_model, net_hinge_gap):
        nets = _non_regular_first(monkeypatch)
        code, stdout, _ = _run(capsys, ["solve", "--model", hinge_model, "--x0", "3,-2",
                                        "--jitter-on-nonregular"])
        assert code == 0 and len(nets) == 2
        doc = json.loads(stdout)
        assert doc["status"] == "LocalMinimum" and doc["jittered"] is True
        x = np.array(doc["x"])
        assert doc["f"] == evaluate(net_hinge_gap, x)
        assert doc["f"] != evaluate(nets[1], x)    # the jittered net's value differs

    def test_paired_problem_keeps_its_pairs(self, capsys, monkeypatch, tiny_csv, tmp_path):
        # a model file holds the quantile net's residuals as mirrored pairs
        net, _ = build_quantile_lasso(load_csv(tiny_csv[0]))
        save_model(tmp_path / "q.json", net)
        nets = _non_regular_first(monkeypatch)
        code, stdout, stderr = _run(capsys, ["solve", "--model", str(tmp_path / "q.json"), "--seed", "1",
                                             "--jitter-on-nonregular"])
        assert code == 0, stderr
        doc = json.loads(stdout)
        assert doc["jittered"] is True and len(nets) == 2
        paired, pairs = load_model(tmp_path / "q.json")
        assert len(pairs) == net.num_neurons
        pairs.validate(nets[1])
        assert doc["f"] == evaluate(paired, np.array(doc["x"]))

    def test_builder_net_keeps_its_slopes(self, capsys, monkeypatch, tiny_csv):
        path, _, _ = tiny_csv
        nets = _non_regular_first(monkeypatch)
        code, stdout, stderr = _run(capsys, ["quantile", "--data", path, "--alpha", "0.3", "--seed", "1",
                                             "--jitter-on-nonregular"])
        assert code == 0, stderr
        doc = json.loads(stdout)
        assert doc["jittered"] is True and len(nets) == 2
        net, _ = build_quantile_lasso(load_csv(path), alpha=0.3)
        assert nets[1].off_weights.tobytes() == net.off_weights.tobytes() and nets[1].two_slope.all()
        assert not np.array_equal(nets[1].biases[0], net.biases[0])
        assert doc["f"] == evaluate(net, np.array(doc["x"]))

    def test_without_flag_the_abort_is_reported(self, capsys, monkeypatch, hinge_model):
        nets = _non_regular_first(monkeypatch)
        code, stdout, _ = _run(capsys, ["solve", "--model", hinge_model, "--x0", "3,-2"])
        assert code == 3 and len(nets) == 1
        doc = json.loads(stdout)
        assert doc["status"] == NON_REGULAR and "jittered" not in doc


class TestRegression:
    def test_quantile_reaches_global_median_fit(self, capsys, tiny_csv):
        path, x, y = tiny_csv
        code, stdout, _ = _run(
            capsys, ["quantile", "--data", path, "--alpha", "0.5", "--seed", "1"]
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["status"] == "LocalMinimum"
        design = np.hstack([np.ones((len(y), 1)), x])
        assert doc["f"] == pytest.approx(lad_enumerate(design, y), abs=1e-8)
        assert len(doc["theta"]) == 2

    def test_clad_runs_clean(self, capsys, tiny_csv):
        path, _, _ = tiny_csv
        code, stdout, _ = _run(capsys, ["clad", "--data", path, "--seed", "2"])
        assert code == 0
        assert json.loads(stdout)["status"] == "LocalMinimum"

    def test_lasso_without_penalty_is_least_squares(self, capsys, tiny_csv):
        path, x, y = tiny_csv
        code, stdout, _ = _run(
            capsys, ["lasso", "--data", path, "--lam", "0", "--seed", "3"]
        )
        assert code == 0
        doc = json.loads(stdout)
        want = np.linalg.lstsq(x, y, rcond=None)[0]
        assert_allclose(doc["theta"], want, atol=1e-6)

    def test_featureless_csv(self, capsys, tmp_path):
        # one column is the response alone: no coefficient for lasso or clad, an intercept for quantile
        path = tmp_path / "y.csv"
        path.write_text("y\n1\n-2\n4\n")
        for command in ("lasso", "clad"):
            code, stdout, stderr = _run(capsys, [command, "--data", str(path)])
            assert code == 1 and stdout == ""
            assert stderr == (f"error: {command} needs at least one feature column besides the response; "
                              "the data has none\n")
        code, stdout, _ = _run(capsys, ["quantile", "--data", str(path), "--x0", "zero"])
        doc = json.loads(stdout)
        assert code == 0 and doc["status"] == "LocalMinimum" and doc["theta"] == [1.0]

    def test_lasso_with_more_features_than_rows(self, capsys, tmp_path):
        # X is 5 x 10, so faces of singular curvature come up; each ends at the LASSO optimum
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((5, 10)), rng.standard_normal(5)
        path = tmp_path / "wide.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in np.column_stack([x, y]).tolist()))
        lam_max = 2.0 * float(np.max(np.abs(x.T @ y)))
        for lam in (0.41, 0.12):
            code, stdout, _ = _run(capsys, ["lasso", "--data", str(path), "--x0", "zero", "--lam", str(lam)])
            doc = json.loads(stdout)
            assert code == 0 and doc["status"] == "LocalMinimum"
            # 0 lies in 2 X'(X theta - y) + lam * d|theta|_1
            theta = np.array(doc["theta"])
            g, tol = 2.0 * x.T @ (x @ theta - y), 1e-7 * (lam + lam_max)
            on = np.abs(theta) > 1e-9 * (1.0 + np.max(np.abs(theta)))
            assert 0 < on.sum() < 10
            assert np.max(np.abs(g[on] + lam * np.sign(theta[on]))) <= tol
            assert np.max(np.abs(g[~on])) <= lam + tol

    def test_train_l1_emits_trained_model(self, capsys, tiny_csv, tmp_path):
        path, _, _ = tiny_csv
        out_model = tmp_path / "trained.json"
        code, stdout, _ = _run(
            capsys,
            ["train-l1", "--data", path, "--base-topology", "1,2,1",
             "--seed", "4", "--max-steps", "2000", "--out-model", str(out_model)],
        )
        assert code in (0, 4)          # tiny problem may stop at the limit
        doc = json.loads(stdout)
        assert "theta" in doc and len(doc["theta"]) == 2 * 1 + 2
        assert out_model.exists()

    def test_train_l1_from_base_model_round_trips(self, capsys, tiny_csv, tmp_path):
        path, _, _ = tiny_csv
        base, trained = tmp_path / "base.json", tmp_path / "trained.json"
        assert main(["random-net", "--topology", "1,3,2,1", "--seed", "5", "--out", str(base)]) == 0
        capsys.readouterr()
        code, stdout, _ = _run(capsys, ["train-l1", "--data", path, "--base-model", str(base),
                                        "--out-model", str(trained)])
        doc = json.loads(stdout)
        assert code == 0 and doc["status"] == "LocalMinimum" and doc["model"] == str(trained)
        before, after = load_model(base)[0], load_model(trained)[0]
        # the written first layer is theta; the frozen layers are the base's
        assert np.concatenate([after.weights[0].ravel(), after.biases[0]]).tolist() == doc["theta"]
        for a, b in zip(before.weights[1:] + before.biases[1:], after.weights[1:] + after.biases[1:]):
            assert np.array_equal(a, b)
        data = load_csv(path)
        assert doc["f"] == pytest.approx(np.abs(data.y - [evaluate(after, x) for x in data.x]).sum(),
                                         abs=1e-9)

    def test_quantile_on_one_row_reaches_zero_loss(self, capsys, tmp_path):
        # one row pins only rank(W1) = 1 of the 2 walls a full-rank vertex needs
        path = tmp_path / "one.csv"
        path.write_text("1,2\n")
        code, stdout, _ = _run(capsys, ["quantile", "--data", str(path)])
        doc = json.loads(stdout)
        assert code == 0 and doc["status"] == "LocalMinimum" and doc["f"] == 0.0
        assert doc["x"][0] + doc["x"][1] == pytest.approx(2.0, abs=1e-12)

    def test_train_l1_without_base_exit_one(self, capsys, tiny_csv):
        path, _, _ = tiny_csv
        code, stdout, stderr = _run(capsys, ["train-l1", "--data", path])
        assert code == 1 and stdout == ""
        assert "error: train-l1 needs --base-model or --base-topology" in stderr

    def test_train_l1_with_both_bases_exit_one(self, capsys, tiny_csv, tmp_path):
        path, _, _ = tiny_csv
        base = tmp_path / "base.json"
        assert main(["random-net", "--topology", "1,3,1", "--out", str(base)]) == 0
        capsys.readouterr()
        code, stdout, stderr = _run(capsys, ["train-l1", "--data", path, "--base-model", str(base),
                                             "--base-topology", "1,7,7,1"])
        assert code == 1 and stdout == ""
        assert stderr.startswith("error:")
        assert "--base-model" in stderr and "--base-topology" in stderr

    @pytest.mark.parametrize("cmd", ["lasso", "quantile"])
    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_bad_lam_exit_one(self, capsys, tiny_csv, cmd, lam):
        path, _, _ = tiny_csv
        code, stdout, stderr = _run(capsys, [cmd, "--data", path, "--lam", lam])
        assert code == 1 and stdout == ""
        assert "lam must be finite and nonnegative" in stderr

    def test_non_finite_csv_exit_one(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n2,inf\n3,4\n")
        for cmd in ("quantile", "clad", "lasso", "train-l1"):
            extra = ["--base-topology", "1,2,1"] if cmd == "train-l1" else []
            code, stdout, stderr = _run(capsys, [cmd, "--data", str(path)] + extra)
            assert code == 1 and stdout == ""
            assert "row 3, column 2: not a finite number: 'inf'" in stderr

    def test_header_width_mismatch_exit_one(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2,3\n4,5,6\n7,8,10\n")
        code, stdout, stderr = _run(capsys, ["quantile", "--data", str(path), "--response", "b"])
        assert code == 1 and stdout == ""
        assert "d.csv: header has 2 columns but the data rows have 3" in stderr
        assert "Traceback" not in stderr


class TestCounting:
    def test_shared_parser_leaks_no_state(self, capsys, fold_model, tiny_csv):
        path, _, _ = tiny_csv
        script = [
            ["regions", "--model", fold_model, "--samples", "3000", "--seed", "2"],
            ["bounds", "--topology", "3,4,4"],
            ["quantile", "--data", path, "--alpha", "0.3", "--seed", "5"],
            ["regions", "--model", fold_model, "--samples", "500"],
        ]

        def doc_of(argv):
            code, stdout, stderr = _run(capsys, argv)
            assert code == 0, stderr
            doc = json.loads(stdout)
            doc.pop("wall_ms", None)
            return doc

        shared = [doc_of(argv) for argv in script]
        fresh = []
        for argv in script:
            drlp.cli.build_parser.cache_clear()
            fresh.append(doc_of(argv))
        assert shared == fresh
        assert shared[0]["samples"] == 3000 and shared[3]["samples"] == 500

    def test_bounds_json(self, capsys):
        code, stdout, _ = _run(capsys, ["bounds", "--topology", "2,2,1"])
        assert code == 0
        doc = json.loads(stdout)
        assert doc == {"montufar": 8, "improved": 7}

    def test_regions_counts_folds(self, capsys, fold_model):
        code, stdout, _ = _run(
            capsys,
            ["regions", "--model", fold_model, "--samples", "20000", "--seed", "0"],
        )
        assert code == 0
        assert json.loads(stdout)["empirical"] == 7

    def test_regions_bad_input_exit_one(self, capsys, fold_model):
        for argv, message in ((["--box=-inf,inf"], "box must be"),
                              (["--box=-1e308,1e308"], "box must be"),
                              (["--box=1"], "--box needs exactly lo,hi"),
                              (["--box=-1,0,1"], "--box needs exactly lo,hi"),
                              (["--samples=-5"], "samples must be >= 0")):
            code, stdout, stderr = _run(capsys, ["regions", "--model", fold_model] + argv)
            assert code == 1 and stdout == ""
            assert stderr.startswith("error:") and message in stderr


class TestCheck:
    def test_certifies_minimum_vertex(self, capsys, hinge_model):
        code, stdout, _ = _run(
            capsys, ["check", "--model", hinge_model, "--x", "1,0"]
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["certified"] is True
        # one entry per wall through x, both units off at x: f is flat in x's region and
        # across (1, 2), and rises at rate 1 across the wall of (2, 1)
        assert doc["axes"] == [{"neuron": [1, 2], "bit": 0, "derivatives": [0.0, 0.0]},
                               {"neuron": [2, 1], "bit": 0, "derivatives": [0.0, 1.0]}]

    def test_axes_name_units_of_the_paired_model(self, capsys, tmp_path):
        # CLAD with each mirror right after its unit: folded layer-2 unit j
        # is unit 2j of the model's layer 2, so only the model's numbering
        # names a wall that passes through x
        path = str(tmp_path / "clad.json")

        def solved(seed):
            rng = np.random.Generator(np.random.Philox(seed))
            x = rng.standard_normal((12, 2))
            y = np.maximum(x @ [1.0, -0.5], 0.0) + 0.3 * rng.standard_normal(12)
            net, pairs = interleaved_clad(RegressionData(x, y))
            save_model(path, net, pairs)
            return net, drlsimplex(net, rng.standard_normal(2), SolverOptions(seed=seed), pairs)

        def check(net, x):
            code, stdout, _ = _run(capsys, ["check", "--model", path,
                                            "--x=" + ",".join(map(repr, map(float, x)))])
            doc = json.loads(stdout)
            named = [net.flat_index(a["neuron"]) for a in doc["axes"]]
            assert_allclose(relu_arguments(net, np.array(x))[named], 0.0, atol=1e-9)
            least = min(doc["axes"], key=lambda a: min(a["derivatives"]))
            return code, doc["certified"], named, least

        # the solve crosses residual unit (2, 11) at its first vertex, and
        # check at that vertex prices the same crossing as its steepest edge
        net, out = solved(10)
        flip = out.trace[2]
        assert (flip.phase, net.neuron_at(flip.neuron)) == ("flip", (2, 11))
        code, certified, named, least = check(net, flip.x)
        assert (code, certified, least["neuron"]) == (2, False, [2, 11]) and flip.neuron in named
        assert least["derivatives"][1] == pytest.approx(flip.alpha, rel=1e-9)
        # the minimum sits on the walls of a first-layer unit and a residual unit
        net, out = solved(5)
        assert out.status == "LocalMinimum"
        code, certified, named, _ = check(net, out.x)
        assert (code, certified) == (0, True)
        assert sorted(net.neuron_at(c)[0] for c in named) == [1, 2]

    def test_axes_ignore_roundoff_moves(self, capsys, tmp_path):
        # a wall through x prints the bit of an exactly zero argument, so moving x by
        # 1e-14 (1 + |x|) along any pseudoinverse row, on either side of a wall, prints
        # the same axes; before, each wall's bit and derivatives followed the roundoff
        rng = np.random.Generator(np.random.Philox(7))
        x = rng.standard_normal((60, 2))
        data = RegressionData(x, x @ rng.standard_normal(2) + rng.laplace(size=60))
        net, pairs = build_quantile_lasso(data)
        out = drlsimplex(net, np.zeros(3), SolverOptions(seed=0), pairs)
        path = str(tmp_path / "quantile.json")
        save_model(path, net, pairs)

        def check(x):
            code, stdout, _ = _run(capsys, ["check", "--model", path, "--x=" + ",".join(map(repr, x.tolist()))])
            return code, json.loads(stdout)["axes"]

        code, axes = check(out.x)
        assert code == 0 and len(axes) == 3
        assert all(a["bit"] == 1 for a in axes)     # folded residual walls are two-slope
        folded, kept = pairs.fold(net)
        crit, normals = critical_indices(folded, activation_pattern(folded, out.x), out.x)
        rows = dense_pseudoinverse(normals, crit).matrix
        h = 1e-14 * (1.0 + np.abs(out.x).max())
        for row in rows / np.linalg.norm(rows, axis=1)[:, None]:
            for sign in (1.0, -1.0):
                assert check(out.x + sign * h * row) == (code, axes)

    def test_evaluates_f_once(self, capsys, hinge_model, monkeypatch):
        # x never moves, so check evaluates the one f that it prints
        calls = []
        for module in (drlp.cli, drlp.solver):
            real = module.evaluate
            monkeypatch.setattr(module, "evaluate",
                                lambda *args, real=real: calls.append(1) or real(*args))
        code, stdout, _ = _run(capsys, ["check", "--model", hinge_model, "--x", "1,0"])
        assert code == 0 and json.loads(stdout)["f"] == 0.0
        assert len(calls) == 1

    def test_prices_the_vertex_once(self, capsys, hinge_model, monkeypatch):
        calls = []
        real = drlp.cli.axis_derivatives
        monkeypatch.setattr(drlp.cli, "axis_derivatives", lambda *args: calls.append(1) or real(*args))
        code, _, _ = _run(capsys, ["check", "--model", hinge_model, "--x", "1,0"])
        assert code == 0 and len(calls) == 1

    def test_certifies_every_solver_minimum(self, capsys, tmp_path):
        # check answers from the solver's own edge pricing, so it certifies
        # every LocalMinimum the solver reports, on paired and plain models alike
        rng = np.random.Generator(np.random.Philox(41))
        corpus = []
        for _ in range(3):
            x = rng.standard_normal((25, 2))
            data = RegressionData(x, 1.0 + x @ [1.0, -0.5] + rng.laplace(size=25))
            a = rng.uniform(0.1, 1.0, (4, 3))
            lp = LpInstance(-rng.uniform(0.5, 1.5, 3), a, rng.uniform(1.0, 2.0, 4))
            corpus += [("quantile", *build_quantile_lasso(data, alpha=0.3, lam=0.5), np.zeros(3)),
                       ("clad", *build_clad(data), rng.standard_normal(2)),
                       ("lp", *build_from_lp(lp, penalty=10.0), rng.uniform(0.0, 1.0, 3))]
        for seed in range(10):
            corpus.append(("random", build_random((3, 6, 6, 1), seed=seed), PairGroups(),
                           rng.standard_normal(3)))
        corpus.append(("rank 2 of 4", build_random((4, 2, 1), seed=2), PairGroups(),
                       rng.standard_normal(4)))
        certified = []
        for k, (family, net, pairs, x0) in enumerate(corpus):
            out = drlsimplex(net, x0, SolverOptions(seed=k), pairs)
            if out.status != "LocalMinimum":
                continue
            save_model(tmp_path / "model.json", net, pairs)
            code, stdout, _ = _run(capsys, ["check", "--model", str(tmp_path / "model.json"),
                                            "--x=" + ",".join(map(repr, out.x.tolist()))])
            assert code == 0 and json.loads(stdout)["certified"] is True, (family, k)
            certified.append(family)
        assert set(certified) == {family for family, *_ in corpus} and len(certified) >= 12

    def test_rejects_saddle_vertex(self, capsys, negated_model):
        code, stdout, _ = _run(
            capsys, ["check", "--model", negated_model, "--x", "1,0"]
        )
        assert code == 2
        assert json.loads(stdout)["certified"] is False

    def test_flat_interior_point_certifies(self, capsys, hinge_model):
        code, stdout, _ = _run(
            capsys, ["check", "--model", hinge_model, "--x=-2,-3"]
        )
        assert code == 0
        assert json.loads(stdout)["certified"] is True

    def test_dependent_active_walls_exit_three(self, capsys, tmp_path):
        # three walls through x = 0 in one dimension: no pseudoinverse exists
        net = ReluNetwork([np.array([[1.0], [1.0], [-1.0]]), np.array([[1.0, 2.0, 1.0]])],
                          [np.zeros(3), np.zeros(1)])
        path = tmp_path / "dependent.json"
        save_model(path, net)
        code, stdout, _ = _run(capsys, ["check", "--model", str(path), "--x", "0"])
        assert code == 3
        assert json.loads(stdout) == {"certified": False, "reason": "dependent active walls",
                                      "neurons": [[1, 1], [1, 2], [1, 3]]}

    def test_dimension_mismatch_exit_one(self, capsys, hinge_model):
        code, _, stderr = _run(capsys, ["check", "--model", hinge_model, "--x", "1"])
        assert code == 1
        assert "error:" in stderr

    @pytest.mark.parametrize("argv", [["--x", "nan,1"], ["--x=inf,1"], ["--x=1,-inf"]])
    def test_non_finite_point_exit_one(self, capsys, hinge_model, argv):
        code, stdout, stderr = _run(capsys, ["check", "--model", hinge_model] + argv)
        assert code == 1 and stdout == ""
        assert "--x must be finite" in stderr


def _run_module(*argv):
    """Run ``python -m`` on the drlp tree under test, whether or not PYTHONPATH names it."""
    src = str(Path(drlp.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestEntryPoint:
    def test_module_invocation(self):
        proc = _run_module("drlp.cli", "bounds", "--topology", "1,2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"montufar": 3, "improved": 3}

    def test_console_script(self):
        # the console script and `python -m drlp` share one entry point
        import tomllib  # Python 3.11+; imported here so older interpreters still collect the module

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            assert tomllib.load(fh)["project"]["scripts"]["drlp"] == "drlp.cli:main"
        proc = _run_module("drlp", "bounds", "--topology", "2,3,3")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["improved"] == 40
