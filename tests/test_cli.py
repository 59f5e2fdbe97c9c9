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
    ReluNetwork,
    SolveOutcome,
    build_quantile_lasso,
    evaluate,
    load_csv,
    save_model,
)
from drlp.cli import main
from helpers import lad_enumerate


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
        assert len(calls) == len(trace.read_text().splitlines()) + 1

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
        pivots = [rec for rec in records if rec["phase"] == "pivot"]
        assert pivots and all(isinstance(rec["crossed"], int) for rec in pivots)
        assert all(rec["crossed"] is None for rec in records if rec["phase"] != "pivot")

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

    def test_multi_start_is_deterministic(self, capsys, hinge_model):
        args = ["solve", "--model", hinge_model, "--x0", "random",
                "--starts", "3", "--seed", "11"]
        _, first, _ = _run(capsys, args)
        _, second, _ = _run(capsys, args)
        a, b = json.loads(first), json.loads(second)
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b


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

    def test_paired_problem_keeps_its_pairs(self, capsys, monkeypatch, tiny_csv):
        path, _, _ = tiny_csv
        nets = _non_regular_first(monkeypatch)
        code, stdout, stderr = _run(capsys, ["quantile", "--data", path, "--seed", "1",
                                             "--jitter-on-nonregular"])
        assert code == 0, stderr
        doc = json.loads(stdout)
        assert doc["jittered"] is True and len(nets) == 2
        net, pairs = build_quantile_lasso(load_csv(path))
        pairs.validate(nets[1])
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
        assert len(doc["axes"]) == 4

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
