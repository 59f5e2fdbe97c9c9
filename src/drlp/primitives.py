"""The biorthogonal basis of both solvers, and the region line search.

A basis tracks constraint hyperplanes, one per "owner" unit: the owners'
oriented normals as the rows of A, and rows P with P A' = I.  Rows of P
double as the feasible edge directions leaving the current point inside
its region, which is what makes the pivot step cheap.

Each basis update is O(m * input_dim) on normals the caller passes, and
none sweeps the network: project is P'(A v), add_axis and
remove_pseudorow hold and release a wall, a pivot is one rank-one
exchange (exchange_axis), and update_axis_new_region bends the walls a
flip bends, from the caller's crossing_terms.  Only advance_max and
argument_residuals read the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import (
    ZERO_TOL,
    ReluNetwork,
    _crossing_gains,
    inner_products_all,
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
    """Rows P biorthogonal to the owners' oriented normals A: P A' = I.

    Row k of normals is owner k's oriented normal, and row k of matrix is
    biorthogonal to it.  Every update changes both together.
    """

    matrix: np.ndarray            # P, (m, input_dim)
    normals: np.ndarray           # A, (m, input_dim)
    owners: list                  # m flat unit indices

    @classmethod
    def empty(cls, input_dim: int) -> "PseudoInverse":
        return cls(np.zeros((0, input_dim)), np.zeros((0, input_dim)), [])

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


@dataclass
class AdvanceResult:
    """Outcome of the line search: the wall the step stops at, or unbounded.

    t is the step length to unit neuron's wall (may be slightly negative
    when the start point sits marginally past it); neuron is None and t is
    +inf when nothing stops the ray.  crossed holds the flat indices of the
    walls the step passed before stopping, in crossing order.  args and rates
    are every unit's argument at x and its rate along v under the search's
    pattern, unoriented: at(t, units) is the arguments at x + t v with no sweep,
    and at the stop also after its flips (last-layer walls, and the stop unit,
    whose argument is 0 there).
    """

    t: float
    neuron: int | None
    crossed: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    args: np.ndarray | None = None
    rates: np.ndarray | None = None

    @property
    def bounded(self) -> bool:
        return self.neuron is not None

    def at(self, t: float, units=slice(None)) -> np.ndarray:
        return self.args[units] + t * self.rates[units]


def project(pinv: PseudoInverse, v) -> np.ndarray:
    """Component of v inside the span of the tracked normals, P'(A v)."""
    return pinv.matrix.T @ (pinv.normals @ v)


def remove_pseudorow(pinv: PseudoInverse, i: int) -> PseudoInverse:
    """Drop row i, its normal and its owner, restoring the pseudoinverse of the rest."""
    ai = pinv.matrix[i]
    if not (nrm2 := float(ai @ ai)):
        raise Degenerate("cannot remove a zero row")
    others = np.delete(pinv.matrix, i, axis=0)
    return PseudoInverse(others - np.outer(others @ ai / nrm2, ai), np.delete(pinv.normals, i, axis=0),
                         pinv.owners[:i] + pinv.owners[i + 1:])


def add_axis(pinv: PseudoInverse, u: np.ndarray, c: int) -> PseudoInverse:
    """Track unit c's hyperplane: add its oriented normal u as a new row of A.

    Raises DependentColumn when u lies within DEP_TOL (relative) of the
    span of the tracked normals.
    """
    w_perp = u - project(pinv, u)
    w_perp -= project(pinv, w_perp)     # a second pass, as in Gram-Schmidt
    nu = math.sqrt(u @ u)
    if nu == 0.0 or math.sqrt(w_perp @ w_perp) <= DEP_TOL * nu:
        raise DependentColumn(f"normal of unit {c} is dependent on the tracked set")
    new_row = w_perp / float(w_perp @ u)
    # existing rows must become orthogonal to the new normal
    shifted = pinv.matrix - np.outer(pinv.matrix @ u, new_row)
    return PseudoInverse(np.vstack([shifted, new_row]), np.vstack([pinv.normals, u]),
                         pinv.owners + [c])


def exchange_axis(pinv: PseudoInverse, i: int, u: np.ndarray, c: int,
                  bend: np.ndarray) -> PseudoInverse:
    """Replace owner i by unit c: one rank-one basis exchange, as in a simplex pivot.

    pinv tracks its owners before the pivot flipped c's bit; u is c's
    oriented normal after it, and beta = P u.  Row i becomes c's row
    P_i / beta_i and moves last, with u and c; every other row k becomes
    P_k - beta_k P_i / beta_i.  |beta_i| / |P_i| is u's distance from the
    other normals' span, as add_axis tests: raises DependentColumn when it
    is within DEP_TOL of |u|.  Flipping c bends later owners' walls: bend
    is c's crossing_terms bend column after the pivot, over the new owners
    (the staying ones, then c), applied by update_axis_new_region.
    """
    beta = pinv.matrix @ u
    if abs(beta[i]) <= DEP_TOL * math.sqrt(u @ u) * math.sqrt(pinv.matrix[i] @ pinv.matrix[i]):
        raise DependentColumn(f"normal of unit {c} is dependent on the tracked set")
    order = [*range(i), *range(i + 1, pinv.m), i]
    matrix, normals, beta = pinv.matrix[order], pinv.normals[order], beta[order]
    matrix[-1] /= beta[-1]
    matrix[:-1] -= beta[:-1, None] * matrix[-1]
    normals[-1] = u
    out = PseudoInverse(matrix, normals, pinv.owners[:i] + pinv.owners[i + 1:] + [c])
    return update_axis_new_region(out, out.m - 1, bend) if bend.any() else out


def dense_pseudoinverse(normals: np.ndarray, owners) -> PseudoInverse:
    """The basis of the owners' oriented normals (rows of A), P = R^-1 Q' from one QR of A'.

    |R_kk| is normal k's distance from the span of the ones before it, as
    add_axis tests: raises Degenerate when it is within DEP_TOL of the
    normal's length for any k, or when there are more normals than inputs.
    """
    if len(normals) <= normals.shape[1]:
        q, r = np.linalg.qr(normals.T)
        if (np.abs(np.diagonal(r)) > DEP_TOL * np.sqrt(np.einsum("ij,ij->i", normals, normals))).all():
            return PseudoInverse(np.linalg.solve(r, q.T), normals, list(owners))
    raise Degenerate("tracked normals are not independent")


def update_axis_new_region(pinv: PseudoInverse, i: int, bend: np.ndarray) -> PseudoInverse:
    """Bend row i after its owner c's bit flipped: row i becomes P_i - bend @ P.

    Row i and normal i must already be c's under the new pattern, with
    oriented normal u.  The flip bends each owner j's normal by bend[j] u,
    where bend[j] = sigma_j d arg_j / d out_c is c's column of
    crossing_terms' bend under the new pattern (bend[i] = 0).  The bent
    columns are A' (I + e_i bend'), whose inverse I - e_i bend' changes row
    i of P alone; its determinant is 1, so the bent basis is as independent
    as A.
    """
    matrix = pinv.matrix.copy()
    matrix[i] -= bend @ pinv.matrix
    return PseudoInverse(matrix, pinv.normals + np.outer(bend, pinv.normals[i]), list(pinv.owners))


def advance_max(
    net: ReluNetwork,
    x,
    v,
    s: np.ndarray,
    ignore=(),
    *,
    slope: float | None = None,
    slope_tol: float = 0.0,
    gains: np.ndarray | None = None,
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
    -slope_tol, each last-layer wall adding its crossing gain (gains, a
    solve's ``_crossing_gains``) times |rate|, and stops before any wall of an
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
    alpha, beta = subjective_arguments(net, s, x), np.where(s, rate, -rate)
    candidate = rate < -ZERO_TOL
    candidate[np.asarray(ignore, dtype=np.intp)] = False
    flat = candidate.nonzero()[0]
    if not flat.size:
        return AdvanceResult(float("inf"), None, args=alpha, rates=beta)
    ts = -alpha[flat] / beta[flat]     # the orientation cancels
    # flat ascends, so a stable sort on t orders candidates by (t, flat index)
    order = ts.argsort(kind="stable")
    ts, flat = ts[order], flat[order]
    stop = 0
    if slope is not None:
        climb = slope - ((_crossing_gains(net) if gains is None else gains)[flat] * rate[flat]).cumsum()
        stops = (climb >= -slope_tol) | (ts <= 0.0)
        if not stops[stop := int(stops.argmax())]:
            return AdvanceResult(float("inf"), None, flat, alpha, beta)
    # the stopping tie group starts at the first wall within the tie window
    # of the stop wall; everything before it is crossed
    first = int(ts.searchsorted(ts[stop] - TIE_TOL * (1.0 + abs(ts[stop]))))
    end = int(ts.searchsorted(ts[first] + TIE_TOL * (1.0 + abs(ts[first])), side="right"))
    k = first + int(flat[first:end].argmin())
    return AdvanceResult(float(ts[k]), int(flat[k]), flat[:first], alpha, beta)


def argument_residuals(pinv: PseudoInverse, net: ReluNetwork, s: np.ndarray, x) -> np.ndarray:
    """Arguments of the owner units at x (zero when x sits on every tracked wall)."""
    return subjective_arguments(net, s, x)[pinv.owners]
