"""Incremental pseudoinverse maintenance and the region line search.

The pivoting solver tracks a set of constraint hyperplanes (one per
"owner" unit) through the rows of a left pseudoinverse of the matrix
whose columns are the owners' oriented normals.  Row k is biorthogonal
to the columns: <row_k, normal_of_owner_m> = delta_km.  Rows double as
the feasible edge directions leaving the current point inside its
region, which is what makes the pivot step cheap.

All update operations are O(m * input_dim) given the inner products of
one vector with every unit normal, which a single bias-free forward
sweep provides (inner_products_all).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import (
    ZERO_TOL,
    ActivationPattern,
    PairGroups,
    ReluNetwork,
    inner_products_all,
    oriented_normal,
    subjective_arguments,
)

DEP_TOL = 1e-8     # relative dependence threshold for new columns
TIE_TOL = 1e-12    # relative window for line-search ties


class DependentColumn(Exception):
    """A normal to be added lies (numerically) in the span of the tracked ones."""


class Degenerate(Exception):
    """An axis update hit a vanishing denominator; the vertex is not regular."""


@dataclass
class PseudoInverse:
    """Rows biorthogonal to the oriented normals of the owner units.

    matrix has one row per owner; matrix @ A = identity, where A stacks
    the owners' oriented normals as columns.  The columns themselves are
    never stored; they are recomputed from (net, s, owner) on demand.
    """

    matrix: np.ndarray            # (m, input_dim)
    owners: list                  # m flat unit indices

    @classmethod
    def empty(cls, input_dim: int) -> "PseudoInverse":
        return cls(np.zeros((0, input_dim)), [])

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def copy(self) -> "PseudoInverse":
        return PseudoInverse(self.matrix.copy(), list(self.owners))


@dataclass
class AdvanceResult:
    """Outcome of the line search: the wall the step stops at, or unbounded.

    t is the step length to unit neuron's wall (may be slightly negative
    when the start point sits marginally past it); neuron is None and t is
    +inf when nothing stops the ray.  crossed holds the flat indices of the
    walls the step passed before stopping, in crossing order.
    """

    t: float
    neuron: int | None
    crossed: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    @property
    def bounded(self) -> bool:
        return self.neuron is not None


def project(pinv: PseudoInverse, net: ReluNetwork, s: ActivationPattern, v) -> np.ndarray:
    """Component of v inside the span of the tracked oriented normals."""
    v = np.asarray(v, dtype=np.float64)
    if pinv.m == 0:
        return np.zeros_like(v)
    w = np.concatenate(inner_products_all(net, s, v))[pinv.owners]
    return pinv.matrix.T @ w


def remove_pseudorow(pinv: PseudoInverse, i: int) -> PseudoInverse:
    """Drop row i and its owner, restoring the pseudoinverse of the rest."""
    ai = pinv.matrix[i]
    nrm2 = float(ai @ ai)
    if nrm2 == 0.0:
        raise Degenerate("cannot remove a zero row")
    others = np.delete(pinv.matrix, i, axis=0)
    coef = (others @ ai) / nrm2
    owners = list(pinv.owners)
    del owners[i]
    return PseudoInverse(others - np.outer(coef, ai), owners)


def add_axis(
    pinv: PseudoInverse,
    net: ReluNetwork,
    s: ActivationPattern,
    c: int,
    dep_tol: float = DEP_TOL,
) -> PseudoInverse:
    """Track unit c's hyperplane: add its oriented normal u as a new column.

    Raises DependentColumn when u lies within dep_tol (relative) of the
    span of the current columns.
    """
    u = oriented_normal(net, s, c)
    w_perp = u - project(pinv, net, s, u)
    nu = np.linalg.norm(u)
    if nu == 0.0 or np.linalg.norm(w_perp) <= dep_tol * nu:
        raise DependentColumn(f"normal of unit {c} is dependent on the tracked set")
    new_row = w_perp / float(w_perp @ u)
    if pinv.m == 0:
        return PseudoInverse(new_row[None, :], [c])
    # existing rows must become orthogonal to the new column
    shifted = pinv.matrix - np.outer(pinv.matrix @ u, new_row)
    return PseudoInverse(np.vstack([shifted, new_row]), list(pinv.owners) + [c])


def dense_pseudoinverse(net: ReluNetwork, s: ActivationPattern, owners,
                        dep_tol: float = DEP_TOL) -> PseudoInverse:
    """Pseudoinverse for owners built from scratch by an O(n^3) dense solve.

    Raises Degenerate when the owners' normals are (numerically) dependent,
    including when there are more owners than input dimensions.
    """
    if not owners:
        return PseudoInverse.empty(net.input_dim)
    cols = np.stack([oriented_normal(net, s, c) for c in owners], axis=1)
    sv = np.linalg.svd(cols, compute_uv=False)
    if len(owners) > net.input_dim or sv[-1] <= dep_tol * sv[0]:
        raise Degenerate("tracked normals are not independent")
    return PseudoInverse(np.linalg.pinv(cols, rcond=1e-13), list(owners))


def update_axis_new_region(
    pinv: PseudoInverse,
    i: int,
    net: ReluNetwork,
    s: ActivationPattern,
    c: int,
    dep_tol: float = DEP_TOL,
) -> PseudoInverse:
    """Recompute row i after the activation bit of its owner c changed.

    Flipping one unit leaves every other tracked axis unchanged, so only
    row i needs work.  All inner products are taken under the new pattern
    s.  Raises Degenerate on a vanishing denominator.
    """
    if pinv.owners[i] != c:
        raise ValueError(f"row {i} belongs to unit {pinv.owners[i]}, not {c}")
    u = oriented_normal(net, s, c)
    g = np.concatenate(inner_products_all(net, s, u))[pinv.owners]
    w = u - (pinv.matrix.T @ g - g[i] * pinv.matrix[i])
    denom = float(w @ u)
    uu = float(u @ u)
    if uu == 0.0 or abs(denom) <= dep_tol * uu:
        raise Degenerate(f"axis update for unit {c} is degenerate")
    matrix = pinv.matrix.copy()
    matrix[i] = w / denom
    return PseudoInverse(matrix, list(pinv.owners))


def _crossing_weights(net: ReluNetwork, pairs: PairGroups | None) -> np.ndarray:
    """Output weight of each last-layer unit plus its partner's.

    Crossing the wall of last-layer unit c at rate beta_c changes the slope
    along the ray by this weight times |beta_c|, whichever side c starts on.
    """
    w = net.weights[-1][0]
    if pairs is None:
        return w
    off = net.offsets[-2]
    last = pairs.first >= off          # pairs never straddle layers
    crossing = w.copy()
    crossing[pairs.first[last] - off] += w[pairs.second[last] - off]
    return crossing


def advance_max(
    net: ReluNetwork,
    x,
    v,
    s: ActivationPattern,
    ignore=(),
    pairs: PairGroups | None = None,
    zero_tol: float = ZERO_TOL,
    slope: float | None = None,
    slope_tol: float = 0.0,
) -> AdvanceResult:
    """Step along v from x to the wall where the line search stops.

    Walks the arguments and their directional rates in one sweep under
    pattern s.  A unit is a candidate when moving along v drives its
    argument against its current bit (active and falling, or inactive and
    rising); rates within zero_tol of 0 are not candidates, nor are
    ignored units or second pair members.  Candidates are sorted by
    (crossing step, flat index).

    Without slope the step stops at the first wall.  Given slope, the
    directional derivative of the network along v at x, it is a long
    (Barrodale-Roberts) step: it passes walls while the slope stays below
    -slope_tol, each last-layer wall adding its crossing weight times
    |rate|, and stops before any wall of an earlier layer, whose flip would
    bend the walls behind it, and before any wall at t <= 0.  If nothing
    stops it, the result is unbounded with every candidate in crossed.

    The stop wall is the smallest flat index, which is the
    lexicographically smallest (layer, unit), among the walls within
    TIE_TOL * (1 + |t|) of the first wall of the stopping tie group.  A
    marginally negative t signals the start point sits just past that
    wall; the caller decides what to accept.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if pairs is not None:
        ignore_mask = pairs.secondary_flat_mask(net)
    else:
        ignore_mask = np.zeros(net.num_neurons, dtype=bool)
    ignore_mask[np.asarray(ignore, dtype=np.intp)] = True
    if slope is not None:
        weights = _crossing_weights(net, pairs)

    alpha = x
    beta = v
    cand_flat: list[np.ndarray] = []
    cand_t: list[np.ndarray] = []
    cand_gain: list[np.ndarray] = []
    for l in range(1, net.depth + 1):
        w, b = net.weights[l - 1], net.biases[l - 1]
        alpha = w @ alpha + b
        beta = w @ beta
        sl = s.layer(l)
        off = net.offsets[l - 1]
        sel = ~ignore_mask[off:off + len(alpha)]
        sel &= np.abs(beta) > zero_tol
        sel &= np.where(sl == 1, beta < 0.0, beta > 0.0)
        idx = np.nonzero(sel)[0]
        if idx.size:
            cand_flat.append(off + idx)
            cand_t.append(-alpha[idx] / beta[idx])
            if slope is not None:
                cand_gain.append(weights[idx] * np.abs(beta[idx]) if l == net.depth
                                 else np.full(idx.size, np.inf))
        if l < net.depth:
            alpha = sl * alpha
            beta = sl * beta
    if not cand_flat:
        return AdvanceResult(float("inf"), None)
    # flat indices ascend within the concatenation, so a stable sort on t
    # orders candidates by (t, flat index)
    ts = np.concatenate(cand_t)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    flat = np.concatenate(cand_flat)[order]
    stop = 0
    if slope is not None:
        climb = slope + np.cumsum(np.concatenate(cand_gain)[order])
        stops = np.flatnonzero((climb >= -slope_tol) | (ts <= 0.0))
        if not stops.size:
            return AdvanceResult(float("inf"), None, flat)
        stop = int(stops[0])
    # the stopping tie group starts at the first wall within the tie window
    # of the stop wall; everything before it is crossed
    first = int(np.searchsorted(ts, ts[stop] - TIE_TOL * (1.0 + abs(ts[stop]))))
    end = int(np.searchsorted(ts, ts[first] + TIE_TOL * (1.0 + abs(ts[first])), side="right"))
    k = first + int(np.argmin(flat[first:end]))
    return AdvanceResult(float(ts[k]), int(flat[k]), flat[:first])


def argument_residuals(pinv: PseudoInverse, net: ReluNetwork, s: ActivationPattern, x) -> np.ndarray:
    """Arguments of the owner units at x (zero when x sits on every tracked wall)."""
    return np.concatenate(subjective_arguments(net, s, x))[pinv.owners]
