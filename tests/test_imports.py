"""Module boundaries of the library source, read with ast, and the names ``import drlp`` binds."""

import ast
import importlib
import json
import textwrap
from pathlib import Path

from helpers import run_python

SRC = Path(__file__).resolve().parent.parent / "src" / "drlp"

USER_SURFACE = {
    # solvers, their options and outcomes
    "drlsimplex", "solve_quadratic", "certify_point", "SolverOptions", "QuadraticObjective", "SolveOutcome",
    "TraceRecord", "LOCAL_MINIMUM", "NON_REGULAR", "STEP_LIMIT", "UNBOUNDED",
    # networks and model files
    "ReluNetwork", "evaluate", "load_model", "save_model",
    # builders, data and losses
    "LpInstance", "RegressionData", "build_clad", "build_from_lp", "build_l1_first_layer", "build_lasso",
    "build_quantile_lasso", "build_random", "clad_loss", "flatten_first_layer", "l1_first_layer_loss", "lasso_loss",
    "load_csv", "quantile_loss", "set_first_layer",
    # region counts and bounds
    "count_regions_empirical", "improved_bound", "montufar_bound",
}
INTERNALS = {
    "drlp.network": ("ZERO_TOL", "PairGroups", "activation_pattern", "critical_indices", "crossing_terms", "flip",
                     "gradient", "inner_products_all", "normal_matrices", "oriented_normal", "relu_arguments",
                     "subjective_arguments"),
    "drlp.primitives": ("Degenerate",),
}


def _drlp_imports(path):
    """(line, module, name) of every name a drlp module imports from another drlp module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "drlp"):
            for alias in node.names:
                yield node.lineno, "." * node.level + (node.module or ""), alias.name


def _run(code):
    """stdout of code run in a fresh interpreter on this tree's drlp; fails the test on a nonzero exit."""
    done = run_python("-c", textwrap.dedent(code))
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_private_name_crosses_a_module():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    private = [f"{path.name}:{line}: from {module} import {name}"
               for path in modules for line, module, name in _drlp_imports(path) if name.startswith("_")]
    assert private == []


def test_the_scan_sees_private_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .solver import _hidden, shown\nfrom drlp.network import _forward\n"
                    "from os import _exit\n")
    assert [name for _, _, name in _drlp_imports(path)] == ["_hidden", "shown", "_forward"]


def test_import_drlp_binds_the_user_surface():
    # a fresh interpreter: in this one, the tests' own imports also bind drlp.cli
    names = set(json.loads(_run("import json, drlp; print(json.dumps(sorted(vars(drlp))))")))
    assert len(USER_SURFACE) == 33 and "__version__" in names
    assert {n for n in names if not n.startswith("__")} == \
        USER_SURFACE | {"bounds", "network", "primitives", "problems", "solver"}
    for module, internals in INTERNALS.items():
        assert all(hasattr(importlib.import_module(module), name) for name in internals), module


def test_solvers_and_the_cli_run_without_scipy():
    # numpy is the only runtime dependency (pyproject); the test extra installs scipy, so hide it
    out = _run("""
        import contextlib, io, json, sys
        sys.modules["scipy"] = None     # any import of scipy or of a submodule now raises ImportError
        import numpy as np
        import drlp, drlp.cli

        net = drlp.build_random((2, 4, 3, 1), seed=1)
        rng = np.random.Generator(np.random.Philox(2))
        x = rng.standard_normal((20, 3))
        lasso, q, pairs = drlp.build_lasso(drlp.RegressionData(x, x @ [1.0, 0.0, -2.0]), lam=1.0)
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = drlp.cli.main(["bounds", "--topology", "2,3,3"])
        print(json.dumps([drlp.drlsimplex(net, np.zeros(2)).status,
                          drlp.solve_quadratic(lasso, q, np.zeros(3), pairs=pairs).status,
                          drlp.count_regions_empirical(net, samples=1000) > 0, code, json.loads(printed.getvalue()),
                          sorted(m for m in sys.modules if m.startswith("scipy"))]))
    """)
    drl, quad, counted, code, bounds, scipy = json.loads(out)
    assert drl == quad == "LocalMinimum" and counted
    assert (code, bounds, scipy) == (0, {"montufar": 49, "improved": 40}, ["scipy"])
