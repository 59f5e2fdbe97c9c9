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
argument_residuals read the network.  add_axis, exchange_axis and
dense_pseudoinverse test independence by one rule and raise Degenerate
when it fails, as remove_pseudorow does on a zero row.  A basis may also
carry Z, an orthonormal basis of the walls' null space; add_axis and
remove_pseudorow keep it, and the other updates drop it.  Each update
writes in place, into input_dim x input_dim buffers, and allocates none
of their size: it consumes its basis, which code that keeps copies first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import (
    ZERO_TOL,
    ReluNetwork,
    inner_products_all,
    subjective_arguments,
)

DEP_TOL = 1e-8     # relative dependence threshold for new columns
TIE_TOL = 1e-12    # relative window for line-search ties
_BLOCK = 64        # rows per rank-one block, whose temporary stays in cache


class Degenerate(Exception):
    """The walls are not regular: a normal within DEP_TOL (relative) of the others' span, or a zero row to remove."""


class PseudoInverse:
    """Rows P biorthogonal to the owners' oriented normals A: P A' = I.

    Row k of normals is owner k's oriented normal, and row k of matrix is
    biorthogonal to it; both are views of a buffer's first m rows, and an
    update writes a new row into spare capacity.  null, when kept
    (solve_quadratic's faces), is Z: orthonormal columns spanning null(A),
    Z'Z = I and A Z = 0, updated by add_axis and remove_pseudorow; Z' is a
    contiguous range of a third buffer's rows, and setting null to None drops it.
    """

    def __init__(self, matrix, normals, owners, null=None):
        n, self.owners = np.shape(normals)[1], list(owners)      # m flat unit indices
        self._p, self._a, self._zt = np.empty((n, n)), np.empty((n, n)), None
        self._p[:len(normals)], self._a[:len(normals)] = matrix, normals
        if null is not None:
            self._zt, self._z0, self._z1 = np.empty((n, n)), 0, null.shape[1]
            self._zt[:self._z1] = null.T
        self._live(null is not None)

    @classmethod
    def empty(cls, input_dim: int) -> "PseudoInverse":
        return cls(np.zeros((0, input_dim)), np.zeros((0, input_dim)), [])

    def _live(self, null: bool):
        """Point m, matrix (P) and normals (A), (m, input_dim), and null (Z) or None, at the live rows."""
        self.m = m = len(self.owners)
        self.matrix, self.normals = self._p[:m], self._a[:m]
        self.null = self._zt[self._z0:self._z1].T if null else None

    def copy(self) -> "PseudoInverse":
        return PseudoInverse(self.matrix, self.normals, self.owners, self.null)


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


def _move_rows(to: int, lo: int, hi: int, *bufs):
    """Copy rows lo .. hi - 1 of each buffer to rows to ..: one flat copy, which moves overlapping rows in place."""
    for buf in bufs:
        n, flat = buf.shape[1], buf.reshape(-1)
        flat[to * n:(to + hi - lo) * n] = flat[lo * n:hi * n]


def _outer_update(op, out: np.ndarray, a: np.ndarray, b: np.ndarray):
    """out = op(out, outer(a, b)) in place, _BLOCK rows at a time, so no temporary is larger."""
    for k in range(0, len(a), _BLOCK):
        rows = out[k:k + _BLOCK]
        op(rows, a[k:k + _BLOCK, None] * b, out=rows)


def remove_pseudorow(pinv: PseudoInverse, i: int) -> PseudoInverse:
    """Drop row i, its normal and its owner, restoring the pseudoinverse of the rest.

    The later rows move up one, in order.  P_i lies in span(A) and is orthogonal to the
    others' normals, so a kept Z gains the null space's new direction P_i / |P_i|.
    """
    ai, m = pinv.matrix[i].copy(), pinv.m
    if not (nrm2 := float(ai @ ai)):
        raise Degenerate("cannot remove a zero row")
    _move_rows(i, i + 1, m, pinv._p, pinv._a)
    pinv.owners = pinv.owners[:i] + pinv.owners[i + 1:]
    _outer_update(np.subtract, others := pinv._p[:m - 1], others @ ai / nrm2, ai)
    if kept := pinv.null is not None:
        if pinv._z1 == len(zt := pinv._zt):     # the buffer's end: Z' moves to its start
            _move_rows(0, pinv._z0, pinv._z1, zt)
            pinv._z0, pinv._z1 = 0, pinv._z1 - pinv._z0
        zt[pinv._z1], pinv._z1 = ai / math.sqrt(nrm2), pinv._z1 + 1
    pinv._live(kept)
    return pinv


def add_axis(pinv: PseudoInverse, u: np.ndarray, c: int) -> PseudoInverse:
    """Track unit c's hyperplane: add its oriented normal u as a new row of A.

    Raises Degenerate when u's part w off the tracked normals' span is within
    DEP_TOL of |u|: w = Z h, h = Z'u, if Z is kept, else u - P'(A u) taken
    twice, as in Gram-Schmidt.  Z then loses h's direction: the Householder
    reflection I - 2gg'/g'g, g = h + sign(h_1)|h| e_1, takes h onto e_1, and
    Z's reflected columns but the first are orthogonal to u.
    """
    m, kept = pinv.m, pinv.null is not None
    if not kept:
        w_perp = u - project(pinv, u)
        w_perp -= project(pinv, w_perp)     # a second pass, as in Gram-Schmidt
    else:
        w_perp = (h := (z := pinv.null.T) @ u) @ z      # z is Z', rows of its buffer
    nu = math.sqrt(u @ u)
    if nu == 0.0 or math.sqrt(w_perp @ w_perp) <= DEP_TOL * nu:
        raise Degenerate(f"normal of unit {c} is dependent on the tracked set")
    new_row = w_perp / float(w_perp @ u)
    # existing rows must become orthogonal to the new normal
    _outer_update(np.subtract, pinv.matrix, pinv.matrix @ u, new_row)
    pinv._p[m], pinv._a[m] = new_row, u
    pinv.owners = pinv.owners + [c]
    if kept:
        h[0] += (shift := math.copysign(math.sqrt(h @ h), h[0]))       # g; g'Z' = w + shift Z_1'
        _outer_update(np.subtract, z[1:], h[1:] * (2.0 / (h @ h)), w_perp + shift * z[0])
        pinv._z0 += 1
    pinv._live(kept)
    return pinv


def exchange_axis(pinv: PseudoInverse, i: int, u: np.ndarray, c: int,
                  bend: np.ndarray) -> PseudoInverse:
    """Replace owner i by unit c: one rank-one basis exchange, as in a simplex pivot.

    pinv tracks its owners before the pivot flipped c's bit; u is c's
    oriented normal after it, and beta = P u.  Row i becomes c's row
    P_i / beta_i and moves last, with u and c; every other row k becomes
    P_k - beta_k P_i / beta_i.  |beta_i| / |P_i| is u's distance from the
    other normals' span, as add_axis tests: raises Degenerate when it
    is within DEP_TOL of |u|.  Flipping c bends later owners' walls: bend
    is c's crossing_terms bend column after the pivot, over the new owners
    (the staying ones, then c), applied by update_axis_new_region.
    """
    beta, m = pinv.matrix @ u, pinv.m
    if abs(beta[i]) <= DEP_TOL * math.sqrt(u @ u) * math.sqrt(pinv.matrix[i] @ pinv.matrix[i]):
        raise Degenerate(f"normal of unit {c} is dependent on the tracked set")
    row = pinv.matrix[i] / beta[i]
    _outer_update(np.subtract, pinv.matrix, beta, row)      # row i's result is overwritten below
    _move_rows(i, i + 1, m, pinv._p, pinv._a)
    pinv._p[m - 1], pinv._a[m - 1] = row, u
    pinv.owners = pinv.owners[:i] + pinv.owners[i + 1:] + [c]
    pinv._live(False)
    return update_axis_new_region(pinv, m - 1, bend) if bend.any() else pinv


def dense_pseudoinverse(normals: np.ndarray, owners, null: bool = False) -> PseudoInverse:
    """The basis of the owners' oriented normals (rows of A), P = R^-1 Q' from one QR of A'.

    |R_kk| is normal k's distance from the span of the ones before it, as
    add_axis tests: raises Degenerate when it is within DEP_TOL of the
    normal's length for any k, or when there are more normals than inputs.
    With null, the QR is complete and its last input_dim - m columns are Z.
    """
    if (m := len(normals)) <= normals.shape[1]:
        q, r = np.linalg.qr(normals.T, mode="complete" if null else "reduced")
        if (np.abs(np.diagonal(r)) > DEP_TOL * np.sqrt(np.einsum("ij,ij->i", normals, normals))).all():
            return PseudoInverse(np.linalg.solve(r[:m], q[:, :m].T), normals, owners, q[:, m:] if null else None)
    raise Degenerate("tracked normals are not independent")


def update_axis_new_region(pinv: PseudoInverse, i: int, bend: np.ndarray) -> PseudoInverse:
    """Bend row i after its owner c's bit flipped: row i becomes P_i - bend @ P.

    Row i and normal i must already be c's under the new pattern, with
    oriented normal u.  The flip bends each owner j's normal by bend[j] u,
    where bend[j] = sigma_j d arg_j / d out_c is c's column of
    crossing_terms' bend under the new pattern (bend[i] = 0).  The bent
    columns are A' (I + e_i bend'), whose inverse I - e_i bend' changes row
    i of P alone; its determinant is 1, so the bent basis is as independent
    as A.  Z is dropped.
    """
    pinv.matrix[i] -= bend @ pinv.matrix
    _outer_update(np.add, pinv.normals, bend, pinv.normals[i].copy())
    pinv.null = None
    return pinv


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
    units are not candidates.

    Without slope the step stops at the first wall, found with no sort.  Given
    slope, the directional derivative of the network along v at x, candidates
    are sorted by (crossing step, flat index) for a long (Barrodale-Roberts)
    step: it passes walls while the slope stays below
    -slope_tol, each last-layer wall adding its crossing gain (``net.gains``)
    times |rate|, and stops before any wall of an earlier layer, whose flip
    would bend the walls behind it, and before any wall at t <= 0.  If
    nothing stops it, the result is unbounded with every candidate in crossed.

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
    if slope is None:       # flat ascends, so the first candidate in the least t's tie window is the stop
        k = int((ts <= (t := ts.min()) + TIE_TOL * (1.0 + abs(t))).argmax())
        return AdvanceResult(float(ts[k]), int(flat[k]), args=alpha, rates=beta)
    order = ts.argsort(kind="stable")      # by (t, flat index), as flat ascends
    ts, flat = ts[order], flat[order]
    climb = slope - (net.gains[flat] * rate[flat]).cumsum()
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
