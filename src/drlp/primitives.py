"""Incremental pseudoinverse maintenance and the region line search.

The pivoting solver tracks a set of constraint hyperplanes (one per
"owner" unit) through the rows of a left pseudoinverse of the matrix
whose columns are the owners' oriented normals.  Row k is biorthogonal
to the columns: <row_k, normal_of_owner_m> = delta_km.  Rows double as
the feasible edge directions leaving the current point inside its
region, which is what makes the pivot step cheap.

All update operations are O(m * input_dim) given the normals involved.
A pivot is one basis exchange (exchange_axis): one partial backward sweep
for the entering unit's oriented normal.  When flipping that unit bends a
later owner's wall, update_axis_new_region bends the entering row in
closed form from the caller's crossing_terms bend column, with no sweep.
add_axis takes one sweep of each kind.  remove_pseudorow needs no normal
at all; the quadratic solver's working set releases walls with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import (
    ZERO_TOL,
    ReluNetwork,
    _crossing_gains,
    inner_products_all,
    normal_matrices,
    oriented_normal,
    subjective_arguments,
)

DEP_TOL = 1e-8     # relative dependence threshold for new columns
TIE_TOL = 1e-12    # relative window for line-search ties


class DependentColumn(Exception):
    """A normal to be added lies (numerically) in the span of the tracked ones."""


class Degenerate(Exception):
    """Tracked normals lost independence, or a row to remove is zero; the vertex is not regular."""


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


def exchange_axis(pinv: PseudoInverse, i: int, net: ReluNetwork, s: np.ndarray, c: int,
                  bend: np.ndarray) -> PseudoInverse:
    """Replace owner i by unit c: one rank-one basis exchange, as in a simplex pivot.

    s is the pattern after the pivot flipped c's bit; pinv tracks its
    owners under s with c's bit flipped back.  u is c's oriented normal
    under s and beta = P u, with pivot element beta_i.  Row i becomes c's
    row P_i / beta_i and moves last, after c's owner; every other row k
    becomes P_k - beta_k P_i / beta_i, which keeps it biorthogonal to its
    own column and makes it orthogonal to u.  With input_dim owners,
    |beta_i| / |P_i| is the distance of u from the span of the other
    normals, the quantity add_axis tests: raises DependentColumn when it is
    within DEP_TOL of |u|.  Flipping c bends the walls of owners in later
    layers, which only c's row sees: bend is crossing_terms' bend column of
    c under s, over the new owners (the staying ones, then c), and where it
    is nonzero update_axis_new_region bends c's row.
    """
    u = oriented_normal(net, s, c)
    beta = pinv.matrix @ u
    row = pinv.matrix[i]
    if abs(beta[i]) <= DEP_TOL * np.linalg.norm(u) * np.linalg.norm(row):
        raise DependentColumn(f"normal of unit {c} is dependent on the tracked set")
    new_row = row / beta[i]
    others = np.delete(pinv.matrix, i, axis=0) - np.outer(np.delete(beta, i), new_row)
    out = PseudoInverse(np.vstack([others, new_row]), pinv.owners[:i] + pinv.owners[i + 1:] + [c])
    return update_axis_new_region(out, out.m - 1, bend) if bend.any() else out


def dense_pseudoinverse(net: ReluNetwork, s: np.ndarray, owners) -> PseudoInverse:
    """Pseudoinverse for owners built from scratch by an O(n^3) dense solve.

    Raises Degenerate when the owners' normals are (numerically) dependent,
    including when there are more owners than input dimensions.
    """
    if not owners:
        return PseudoInverse.empty(net.input_dim)
    rows = normal_matrices(net, s)[owners]
    u, sv, vt = np.linalg.svd(np.where(s[owners, None] == 1, rows, -rows).T, full_matrices=False)
    if len(owners) > net.input_dim or sv[-1] <= DEP_TOL * sv[0]:
        raise Degenerate("tracked normals are not independent")
    # np.linalg.pinv's formula on the same SVD; past the check above no
    # singular value falls under its rcond=1e-13 cutoff
    return PseudoInverse(vt.T @ ((1.0 / sv)[:, None] * u.T), list(owners))


def update_axis_new_region(pinv: PseudoInverse, i: int, bend: np.ndarray) -> PseudoInverse:
    """Bend row i after its owner c's bit flipped: row i becomes P_i - bend @ P.

    Row i must already be biorthogonal to c's oriented normal u under the
    new pattern.  The flip bends each owner j's normal by bend[j] u, where
    bend[j] = sigma_j d arg_j / d out_c is c's column of crossing_terms'
    bend under the new pattern (bend[i] = 0).  The bent columns are
    A (I + e_i bend'), whose inverse I - e_i bend' changes row i alone;
    its determinant is 1, so the bent basis is as independent as A.
    """
    matrix = pinv.matrix.copy()
    matrix[i] -= bend @ pinv.matrix
    return PseudoInverse(matrix, list(pinv.owners))


def advance_max(
    net: ReluNetwork,
    x,
    v,
    s: np.ndarray,
    ignore=(),
    *,
    slope: float | None = None,
    slope_tol: float = 0.0,
) -> AdvanceResult:
    """Step along v from x to the wall where the line search stops.

    Takes the arguments at x and their rates along v under pattern s, both
    oriented so that a unit's argument is positive on the side s claims.
    A unit is a candidate when its oriented rate is below -ZERO_TOL, so
    moving along v drives its argument against its current bit; ignored
    units are not candidates.  Candidates are sorted by (crossing step,
    flat index).

    Without slope the step stops at the first wall.  Given slope, the
    directional derivative of the network along v at x, it is a long
    (Barrodale-Roberts) step: it passes walls while the slope stays below
    -slope_tol, each last-layer wall adding its crossing gain
    (``_crossing_gains``) times |rate|, and stops before any wall of an
    earlier layer, whose flip would bend the walls behind it, and before
    any wall at t <= 0.  If nothing stops it, the result is unbounded with
    every candidate in crossed.

    The stop wall is the smallest flat index, which is the
    lexicographically smallest (layer, unit), among the walls within
    TIE_TOL * (1 + |t|) of the first wall of the stopping tie group.  A
    marginally negative t signals the start point sits just past that
    wall; the caller decides what to accept.
    """
    rate = inner_products_all(net, s, v)
    candidate = rate < -ZERO_TOL
    candidate[np.asarray(ignore, dtype=np.intp)] = False
    flat = np.flatnonzero(candidate)
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
        climb = slope + np.cumsum(_crossing_gains(net)[flat] * -rate)
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
