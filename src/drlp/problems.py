"""Compile regression and LP problems into ReLU networks.

Each builder returns a network whose value at an input point equals the
loss of the corresponding estimation problem at that parameter vector,
so minimizing the network minimizes the loss.  A two-slope term such as
an absolute residual is one last-hidden-layer unit whose bit-0 output
weight, in ``off_weights``, is nonzero.  Builders still return a pairs slot,
the empty ``PairGroups()`` that perfbench unpacks and passes on.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .network import PairGroups, ReluNetwork, evaluate, require_finite, require_int, require_real, require_seed
from .solver import QuadraticObjective


@dataclass
class RegressionData:
    """Design matrix (one row per observation) and response vector."""

    x: np.ndarray
    y: np.ndarray
    columns: list | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError(f"design {self.x.shape} and response {self.y.shape} do not align")
        for name in ("x", "y"):
            require_finite(f"RegressionData.{name}", getattr(self, name), "data must be finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass
class LpInstance:
    """min <c, x>  subject to  A x <= b  and  x >= 0."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape != (len(self.b), len(self.c)):
            raise ValueError("constraint matrix does not match c and b")
        for name in ("c", "a", "b"):
            require_finite(f"LpInstance.{name}", getattr(self, name), "data must be finite")


def build_random(topology, seed: int = 0, low: float = -1.0, high: float = 1.0) -> ReluNetwork:
    """Network with iid uniform(low, high) weights and biases.

    topology lists every width including input and the final output 1.
    Same seed, a nonnegative integer, same network, bit for bit.
    """
    topology = [require_int("topology", w) for w in topology]
    if len(topology) < 3 or topology[-1] != 1:
        raise ValueError("topology must be (input, hidden..., 1)")
    if not -np.inf < low <= high < np.inf:      # also false for nan
        raise ValueError(f"low and high must be finite with low <= high, got {low}, {high}")
    rng = np.random.Generator(np.random.Philox(require_seed(seed)))
    weights, biases = [], []
    for fan_in, fan_out in zip(topology[:-1], topology[1:]):
        weights.append(rng.uniform(low, high, size=(fan_out, fan_in)))
        biases.append(rng.uniform(low, high, size=fan_out))
    return ReluNetwork(weights, biases)


def _check_lam_alpha(lam, alpha=0.5):
    lam, alpha = require_real("lam", lam), require_real("alpha", alpha)
    if not 0.0 <= alpha <= 1.0:      # also false for nan
        raise ValueError("alpha must lie in [0, 1]")
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")


def _theta(theta, size: int) -> np.ndarray:
    """theta as a float vector of length size; raises ValueError naming theta otherwise."""
    if (theta := np.asarray(theta, dtype=np.float64)).shape != (size,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({size},)")
    return theta


def build_quantile_lasso(data: RegressionData, alpha: float = 0.5, lam: float = 0.0):
    """Quantile regression loss with optional L1 penalty, as a network.

    The input point is (intercept, coefficients).  Per observation the
    residual r = y - <theta, (1, x)> contributes
    alpha * max(r, 0) + (1 - alpha) * max(-r, 0); the penalty adds
    lam * |theta_j| per coefficient (never the intercept).  Each residual,
    then each penalized coefficient, is one two-slope unit; returns (net, PairGroups()).
    """
    _check_lam_alpha(lam, alpha)
    n, p = data.n, data.p
    m = p if lam > 0.0 else 0          # penalty units, none for the intercept
    w1 = np.eye(n + m, p + 1, 1 - n)    # penalty row j is e_(j+1)
    w1[:n, 0] = -1.0                    # residual rows -(1, x_i), intercept first
    np.negative(data.x, out=w1[:n, 1:])
    b1 = np.concatenate([data.y, np.zeros(m)])
    w2 = np.concatenate([np.full(n, alpha), np.full(m, lam)])[None, :]
    off = -np.concatenate([np.full(n, 1.0 - alpha), np.full(m, lam)])
    return ReluNetwork([w1, w2], [b1, np.zeros(1)], off), PairGroups()


def quantile_loss(data: RegressionData, theta, alpha: float = 0.5, lam: float = 0.0) -> float:
    """Direct evaluation of the quantile + L1 objective (intercept first); alpha and lam as the builder takes them."""
    _check_lam_alpha(lam, alpha)
    theta = _theta(theta, data.p + 1)
    r = data.y - (theta[0] + data.x @ theta[1:])
    rho = alpha * np.maximum(r, 0.0) + (1.0 - alpha) * np.maximum(-r, 0.0)
    return float(np.sum(rho) + lam * np.sum(np.abs(theta[1:])))


def build_clad(data: RegressionData):
    """Least absolute deviations for a censored (ReLU) linear model.

    The network value at theta is sum_i |y_i - max(<theta, x_i>, 0)|.
    No intercept column is added; include one in the design if wanted.
    Each absolute residual is one two-slope unit; returns (net, PairGroups()).
    """
    if not data.p:
        raise ValueError("clad needs at least one feature column besides the response; the data has none")
    n = data.n
    return ReluNetwork([data.x.copy(), np.eye(n), np.ones((1, n))], [np.zeros(n), -data.y, np.zeros(1)],
                       np.full(n, -1.0)), PairGroups()


def clad_loss(data: RegressionData, theta) -> float:
    """Direct evaluation of the censored LAD objective."""
    fit = np.maximum(data.x @ _theta(theta, data.p), 0.0)
    return float(np.sum(np.abs(data.y - fit)))


def build_l1_first_layer(base: ReluNetwork, data: RegressionData):
    """L1 training loss of a network's first layer, as a network.

    The returned network's input is the flattened first-layer parameters
    (weight rows in order, then biases) of `base`; its value is
    sum_i |y_i - base(x_i)| with all deeper layers of `base` frozen.
    Dimensions: base first layer has n1 * (n0 + 1) parameters; the loss
    network stacks every observation's copy of the deeper layers as block
    diagonals and ends in N two-slope residual units.  Returns (net, PairGroups()).
    """
    n0, n1 = base.input_dim, base.relu_widths[0]
    if base.off_weights.any():      # the loss network's middle layers hold plain ReLUs only
        raise ValueError("base has bit-0 slopes in its last hidden layer; the loss network needs plain ReLUs")
    if data.p != n0:
        raise ValueError(f"data has {data.p} features but base expects {n0}")
    n, eye = data.n, np.eye(n1)
    # layer 1: per sample, unit k's argument is x_i . (row k of the weights) + bias k
    layers_w = [np.hstack([(eye[None, :, :, None] * data.x[:, None, None, :]).reshape(n * n1, n1 * n0),
                           np.tile(eye, (n, 1))])]
    layers_b = [np.zeros(n * n1)]
    # middle layers: one frozen copy of each deeper hidden layer per sample, block diagonal
    for l in range(1, base.depth):
        layers_w.append(np.kron(np.eye(n), base.weights[l]))
        layers_b.append(np.tile(base.biases[l], n))
    # residual layer: the frozen output map against y, one two-slope unit per sample
    layers_w += [np.kron(np.eye(n), base.weights[-1]), np.ones((1, n))]     # (n, n * n_last)
    layers_b += [-data.y + np.tile(base.biases[-1], n), np.zeros(1)]
    return ReluNetwork(layers_w, layers_b, np.full(n, -1.0)), PairGroups()


def flatten_first_layer(base: ReluNetwork) -> np.ndarray:
    """First-layer parameters of base in the loss network's input order."""
    return np.concatenate([base.weights[0].ravel(), base.biases[0]])


def set_first_layer(base: ReluNetwork, theta) -> ReluNetwork:
    """Copy of base with its first layer replaced by the flattened theta."""
    n1, n0 = base.weights[0].shape
    theta = _theta(theta, n1 * (n0 + 1))
    weights = [w.copy() for w in base.weights]
    biases = [b.copy() for b in base.biases]
    weights[0] = theta[: n1 * n0].reshape(n1, n0)
    biases[0] = theta[n1 * n0:]
    return ReluNetwork(weights, biases, base.off_weights)


def l1_first_layer_loss(base: ReluNetwork, data: RegressionData, theta) -> float:
    """Direct evaluation: sum_i |y_i - base(x_i)| with the first layer set to theta."""
    net = set_first_layer(base, theta)
    return float(sum(abs(data.y[i] - evaluate(net, data.x[i])) for i in range(data.n)))


def build_lasso(data: RegressionData, lam: float = 0.0):
    """Least squares with L1 penalty: quadratic part plus a penalty network.

    Returns (net, q, PairGroups()): q(theta) = |y - X theta|^2 expanded, and
    the network contributes lam * sum_j |theta_j| through p two-slope units
    (constant zero at lam = 0).  No intercept; center or augment the design beforehand.
    """
    if not data.p:
        raise ValueError("lasso needs at least one feature column besides the response; the data has none")
    _check_lam_alpha(lam)
    p = data.p
    q = QuadraticObjective(
        quad=data.x.T @ data.x,
        lin=-2.0 * data.x.T @ data.y,
        const=float(data.y @ data.y),
    )
    return ReluNetwork([lam * np.eye(p), np.ones((1, p))], [np.zeros(p), np.zeros(1)],
                       np.full(p, -1.0)), q, PairGroups()


def lasso_loss(data: RegressionData, theta, lam: float = 0.0) -> float:
    """Direct evaluation of |y - X theta|^2 + lam * |theta|_1; lam as build_lasso takes it."""
    _check_lam_alpha(lam)
    theta = _theta(theta, data.p)
    r = data.y - data.x @ theta
    return float(r @ r + lam * np.sum(np.abs(theta)))


def build_from_lp(lp: LpInstance, penalty: float = 1.0):
    """Exact penalty network for an LP: objective plus weighted violations.

    Value is <c, x> + penalty * (sum of constraint violations + sum of
    negative parts of x).  The objective is one two-slope unit; returns
    (net, PairGroups()).  With a large enough penalty, minima coincide
    with LP optima; an unbounded LP keeps the network unbounded.
    """
    if not 0.0 < penalty < np.inf:      # also false for nan
        raise ValueError(f"penalty must be finite and positive, got {penalty}")
    n_var = len(lp.c)
    n_con = len(lp.b)
    w1 = np.vstack([lp.c[None, :], lp.a, -np.eye(n_var)])
    b1 = np.concatenate([np.zeros(1), -lp.b, np.zeros(n_var)])
    w2 = np.concatenate([[1.0], np.full(n_con + n_var, penalty)])[None, :]
    off = np.concatenate([[1.0], np.zeros(n_con + n_var)])     # <c, x> on both sides of the objective's wall
    return ReluNetwork([w1, w2], [b1, np.zeros(1)], off), PairGroups()


def _rows(path):
    """(line number, line) of each line of path with a cell that is not blank."""
    with open(path, encoding="utf-8-sig") as fh:
        for k, line in enumerate(fh, 1):
            text = line.replace(",", "").strip()
            if text and ('"' not in text or any(cell.strip() for cell in next(csv.reader([line])))):
                yield k, line


def _numbers(lines, **usecols) -> np.ndarray | None:
    """numpy's C reader on CSV lines: a 2-D float array, or None when it rejects a line."""
    try:
        return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2, **usecols)
    except ValueError:
        return None


def _fault(path, header: bool) -> str:
    """Why path's data rows are no table of finite numbers: the first ragged row, else the first bad cell."""
    bad = lambda a: a is None or not np.isfinite(a).all()
    fault = width = None
    for number, line in itertools.islice(_rows(path), header, None):
        cells = next(csv.reader([line]))
        width = width or len(cells)
        if len(cells) != width:
            return f"row {number} has {len(cells)} cells, expected {width}"
        if fault is None and bad(_numbers([line])):
            fault = next((f"row {number}, column {j + 1}: not a finite number: {cell!r}"
                          for j, cell in enumerate(cells) if bad(_numbers([line], usecols=j))), f"row {number}")
    return fault


def load_csv(path, response=None) -> RegressionData:
    """Numeric CSV -> RegressionData, parsed by numpy's C reader.

    Comma separated, UTF-8 with or without a byte-order mark; '"' quotes a
    cell.  A number is what float() reads, less '_' and non-ASCII digits.
    Lines of blank cells are skipped; a first row that is not all numbers
    is a header.  The response is the named column (header required; a
    name two columns share is rejected) or the last column.  A ragged row
    or a bad or non-finite cell is reported by file line and 1-based
    column, a header of the wrong width by both widths.
    """
    lines = (line for _, line in _rows(path))
    first, header = next(lines, None), None
    if first is not None and _numbers([first]) is None:
        header, first = [cell.strip() for cell in next(csv.reader([first]))], next(lines, None)
    if first is None:
        raise ValueError(f"{path}: {'header but ' * (header is not None)}no data rows")
    data = _numbers(itertools.chain([first], lines))
    if data is None:
        raise ValueError(f"{path}: {_fault(path, header is not None)}")
    try:    # RegressionData makes the one finiteness scan of a good file
        if header is not None and len(header) != data.shape[1]:
            raise ValueError(f"{path}: header has {len(header)} columns but the data rows have {data.shape[1]}")
        y_col = data.shape[1] - 1
        if response is not None:
            if header is None:
                raise ValueError(f"{path}: response column {response!r} needs a header row")
            if not (named := [j for j, name in enumerate(header) if name == response]):
                raise ValueError(f"{path}: no column named {response!r}")
            if named[1:]:
                raise ValueError(f"{path}: response {response!r} names columns {', '.join(str(j + 1) for j in named)}")
            y_col = named[0]
        # x and y own their data, so the parsed table is freed on return
        return RegressionData(x=np.delete(data, y_col, axis=1), y=data[:, y_col].copy(),
                              columns=header and header[:y_col] + header[y_col + 1:])
    except ValueError:
        if np.isfinite(data).all():
            raise
        # a non-finite cell is reported before the header's faults, by its row and column
        raise ValueError(f"{path}: {_fault(path, header is not None)}") from None
