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
    PairGroups,
    ReluNetwork,
    inner_products_all,
    oriented_normal,
    oriented_normals,
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


def project(pinv: PseudoInverse, net: ReluNetwork, s: np.ndarray, v) -> np.ndarray:
    """Component of v inside the span of the tracked oriented normals."""
    v = np.asarray(v, dtype=np.float64)
    if pinv.m == 0:
        return np.zeros_like(v)
    return pinv.matrix.T @ inner_products_all(net, s, v)[pinv.owners]


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
    s: np.ndarray,
    c: int,
) -> PseudoInverse:
    """Track unit c's hyperplane: add its oriented normal u as a new column.

    Raises DependentColumn when u lies within DEP_TOL (relative) of the
    span of the current columns.
    """
    u = oriented_normal(net, s, c)
    w_perp = u - project(pinv, net, s, u)
    nu = np.linalg.norm(u)
    if nu == 0.0 or np.linalg.norm(w_perp) <= DEP_TOL * nu:
        raise DependentColumn(f"normal of unit {c} is dependent on the tracked set")
    new_row = w_perp / float(w_perp @ u)
    if pinv.m == 0:
        return PseudoInverse(new_row[None, :], [c])
    # existing rows must become orthogonal to the new column
    shifted = pinv.matrix - np.outer(pinv.matrix @ u, new_row)
    return PseudoInverse(np.vstack([shifted, new_row]), list(pinv.owners) + [c])


def dense_pseudoinverse(net: ReluNetwork, s: np.ndarray, owners) -> PseudoInverse:
    """Pseudoinverse for owners built from scratch by an O(n^3) dense solve.

    Raises Degenerate when the owners' normals are (numerically) dependent,
    including when there are more owners than input dimensions.
    """
    if not owners:
        return PseudoInverse.empty(net.input_dim)
    cols = oriented_normals(net, s, owners).T
    sv = np.linalg.svd(cols, compute_uv=False)
    if len(owners) > net.input_dim or sv[-1] <= DEP_TOL * sv[0]:
        raise Degenerate("tracked normals are not independent")
    return PseudoInverse(np.linalg.pinv(cols, rcond=1e-13), list(owners))


def update_axis_new_region(
    pinv: PseudoInverse,
    i: int,
    net: ReluNetwork,
    s: np.ndarray,
    c: int,
) -> PseudoInverse:
    """Recompute row i after the activation bit of its owner c changed.

    Flipping one unit leaves every other tracked axis unchanged, so only
    row i needs work.  All inner products are taken under the new pattern
    s.  Raises Degenerate on a vanishing denominator.
    """
    if pinv.owners[i] != c:
        raise ValueError(f"row {i} belongs to unit {pinv.owners[i]}, not {c}")
    u = oriented_normal(net, s, c)
    g = inner_products_all(net, s, u)[pinv.owners]
    w = u - (pinv.matrix.T @ g - g[i] * pinv.matrix[i])
    denom = float(w @ u)
    uu = float(u @ u)
    if uu == 0.0 or abs(denom) <= DEP_TOL * uu:
        raise Degenerate(f"axis update for unit {c} is degenerate")
    matrix = pinv.matrix.copy()
    matrix[i] = w / denom
    return PseudoInverse(matrix, list(pinv.owners))


def _crossing_gains(net: ReluNetwork, pairs: PairGroups | None) -> np.ndarray:
    """Slope change per unit |rate| from crossing each flat unit's wall.

    Crossing the wall of last-layer unit c at rate beta_c changes the slope
    along the ray by c's output weight plus its partner's, times |beta_c|,
    whichever side c starts on.  Units of earlier layers get inf: their
    walls always stop a long step.
    """
    off = net.offsets[-2]
    w = net.weights[-1][0]
    gains = np.full(net.num_neurons, np.inf)
    gains[off:] = w
    if pairs is not None:
        last = pairs.first >= off          # pairs never straddle layers
        gains[pairs.first[last]] += w[pairs.second[last] - off]
    return gains


def scan_arrays(net: ReluNetwork, pairs: PairGroups | None):
    """(skip, gains) for advance_max: second pair members, never candidates, and crossing gains."""
    skip = pairs.secondary_flat_mask(net) if pairs is not None else np.zeros(net.num_neurons, dtype=bool)
    return skip, _crossing_gains(net, pairs)


def advance_max(
    net: ReluNetwork,
    x,
    v,
    s: np.ndarray,
    ignore=(),
    pairs: PairGroups | None = None,
    slope: float | None = None,
    slope_tol: float = 0.0,
    scan: tuple | None = None,
) -> AdvanceResult:
    """Step along v from x to the wall where the line search stops.

    Takes the arguments at x and their rates along v under pattern s, both
    oriented so that a unit's argument is positive on the side s claims.
    A unit is a candidate when its oriented rate is below -ZERO_TOL, so
    moving along v drives its argument against its current bit; ignored
    units and second pair members are not candidates.  Candidates are
    sorted by (crossing step, flat index).

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

    scan is scan_arrays(net, pairs); a solve builds it once and passes it
    to every line search, and it is built here when not given.
    """
    skip, gains = scan if scan is not None else scan_arrays(net, pairs)
    ignore_mask = skip.copy()
    ignore_mask[np.asarray(ignore, dtype=np.intp)] = True
    rate = inner_products_all(net, s, v)
    flat = np.flatnonzero((rate < -ZERO_TOL) & ~ignore_mask)
    if not flat.size:
        return AdvanceResult(float("inf"), None)
    arg = subjective_arguments(net, s, x)[flat]
    rate = rate[flat]
    ts = -np.where(s[flat] == 1, arg, -arg) / rate
    # flat ascends, so a stable sort on t orders candidates by (t, flat index)
    order = np.argsort(ts, kind="stable")
    ts, flat, rate = ts[order], flat[order], rate[order]
    stop = 0
    if slope is not None:
        climb = slope + np.cumsum(gains[flat] * -rate)
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


def argument_residuals(pinv: PseudoInverse, net: ReluNetwork, s: np.ndarray, x) -> np.ndarray:
    """Arguments of the owner units at x (zero when x sits on every tracked wall)."""
    return subjective_arguments(net, s, x)[pinv.owners]
