"""One-dimensional bound and box states in image-potential wells.

Two independent solvers:

* ``solve_eigenstates`` -- fixed-step 4th-order (Numerov) shooting on the
  tridiagonal matrix T(E) of Numerov's recurrence, from a wall (psi = 0) on
  the left.  Its right end is closed, by a wall or a mirror's centre, the
  same at every E; or open, by a half line's decaying tail, which moves with
  E.  T(E)'s Sturm count (Barth, Martin & Wilkinson 1967) isolates each
  eigenvalue until the bracket ends count k and k + 1, where det T(E) has
  the sign (-1)^count (Sylvester's law of inertia).  Safeguarded Newton on
  det T(E) polishes it to 1e-13 relative, and one inverse iteration (LAPACK
  ``dstein``) gives the eigenvector.  All three take the same end, except
  that an open end still counts with a wall at the truncation radius; its
  level takes the tail where the tail's root lies in that count's bracket,
  and the wall otherwise.
  An interval whose potential is its mirror to within 1e-9 of its largest
  magnitude is solved as the exact mirror 0.5 (u + u[::-1]) (bitwise u for
  every two-plate profile), as its even and odd halves, each closed at the
  centre by the mirror condition: state k is level k // 2 of half k % 2.
  State k has k nodes, certified by the count, and the parity of its half.
* ``diagonalization_oracle`` -- second-order central-difference Hamiltonian
  diagonalized with a symmetric tridiagonal eigensolver.  Exists to
  cross-check the shooting path and must never share its integration core.

Profiles are stored in atomic units (Bohr / Hartree); eigenstate energies
convert to eV at the accessor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dpttrf, dstein

from .constants import BOHR_RADIUS_NM, HARTREE_EV, HBAR_JS, STANDARD_GRAVITY_MS2
from .errors import DomainError, EigenSearchError, GridError

_POLISH = 1.0e-13  # Newton's last step, relative to the level


class DomainKind(Enum):
    HALF_LINE_WALL_LEFT = "half_line_wall_left"
    HALF_LINE_WALL_RIGHT = "half_line_wall_right"
    INTERVAL = "interval"


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    NONE = "none"


class StateKind(Enum):
    BOUND = "bound"
    BOX = "box"


@dataclass(frozen=True, eq=False)
class PotentialProfile:
    """Potential energy on a uniform grid (lengths Bohr, energies Hartree).
    Entries at a hard wall are never read and must be finite."""

    grid_bohr: np.ndarray
    u_hartree: np.ndarray
    kind: DomainKind

    def __post_init__(self) -> None:
        grid = np.ascontiguousarray(np.asarray(self.grid_bohr, dtype=float))
        u = np.ascontiguousarray(np.asarray(self.u_hartree, dtype=float))
        if grid.ndim != 1 or u.shape != grid.shape or grid.size < 3:
            raise GridError("grid and potential must be 1-D arrays of equal size >= 3")
        steps = np.diff(grid)
        if np.any(steps <= 0.0):
            raise GridError("grid must be strictly increasing")
        h = steps[0]
        if np.any(np.abs(steps - h) > 1.0e-9 * h):
            raise GridError("grid must be uniform")
        if not np.all(np.isfinite(u)):
            raise GridError("potential values must be finite")
        grid.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "grid_bohr", grid)
        object.__setattr__(self, "u_hartree", u)

    @property
    def step_bohr(self) -> float:
        return float(self.grid_bohr[1] - self.grid_bohr[0])

    @property
    def span_bohr(self) -> float:
        return float(self.grid_bohr[-1] - self.grid_bohr[0])

    def classification_reference(self) -> float:
        """Energy (Hartree) separating bound from box-like states: the
        midpoint barrier for an interval, the truncation-end value for a
        half line."""
        u = self.u_hartree
        if self.kind is DomainKind.INTERVAL:
            return float(u[(u.size - 1) // 2])
        if self.kind is DomainKind.HALF_LINE_WALL_LEFT:
            return float(u[-1])
        return float(u[0])


@dataclass(frozen=True, eq=False)
class Eigenstate:
    """A normalised state.  From shooting, state k has ``nodes`` = k, the
    count that isolated it, and the ``parity`` of the mirror half it was
    solved on (``NONE`` off a mirror); from the oracle, state j has
    ``nodes`` = j, as the oscillation theorem gives for its Jacobi matrix,
    and ``parity`` is psi's mirror overlap beyond +-0.99 on a mirror
    profile.  ``domain`` is its profile's kind, whose wall
    ``bohr_radius_numeric`` measures from."""

    energy_h: float
    psi: np.ndarray
    grid_bohr: np.ndarray
    nodes: int
    parity: Parity
    kind: StateKind
    domain: DomainKind = DomainKind.INTERVAL

    @property
    def energy_ev(self) -> float:
        return self.energy_h * HARTREE_EV


# ---------------------------------------------------------------------------
# Numerov's z-form matrix T(E): node count, residual and eigenvector, each
# evaluating its right end at its own E.  An end(v, h, two_m, e) is (s, c,
# dc/dE, psi[-1]/psi[-2]): T(E)'s last diagonal entry a becomes s a + c, and
# psi past the last row is that ratio times psi on it.


def _closed(s, c):
    """The closed end (s, c) at every E, psi = 0 past the last row."""
    def end(v, h, two_m, e):
        return s, c, 0.0, 0.0
    return end


_WALL = _closed(1.0, 0.0)


def _tail(v, h, two_m, e):
    """The open end: the decaying tail psi[-1] = e^(-kappa h) psi[-2], kappa =
    sqrt(2m (v[-1] - E)), is the closure (1, -g), g = (1 - t[-1])/(1 - t[-2])
    e^(-kappa h); a wall once E reaches v[-1]."""
    gap = two_m * (v[-1] - e)
    if not gap > 0.0:
        return _WALL(v, h, two_m, e)
    kappa = math.sqrt(gap)
    decay = math.exp(-kappa * h)
    coefficient = h * h / 12.0 * two_m
    t_r, t_out = (coefficient * (v[-2:] - e)).tolist()
    g = (1.0 - t_out) / (1.0 - t_r) * decay
    # d ln g/dE: both 1 - t grow by the coefficient, kappa falls by m/kappa
    rate = coefficient / (1.0 - t_out) - coefficient / (1.0 - t_r) + 0.5 * h * two_m / kappa
    return 1.0, -g, -g * rate, decay


def _count_nodes(u, h, two_m, e, end=_WALL):
    """Interior sign changes of the pass with psi(0) = 0.  In z_i = (1 - t_i) psi_i
    Numerov reads z_{i+1} + z_{i-1} = (12/(1 - t_i) - 10) z_i, so while every
    1 - t_i > 0 they are the Sturm count of that tridiagonal matrix, closed
    by ``end``: its eigenvalues below zero (Barth, Martin & Wilkinson, Numer.
    Math. 9, 386 (1967)), here the non-positive pivots of its LDL^T
    factorisation.  LAPACK ``dpttrf`` factors up to the first such pivot q;
    the sweep restarts past it with the next diagonal entry less 1/q, taking
    q = -``sys.float_info.min`` for |q| below that.  With the -1 off-diagonal
    this is the pivot recurrence of LAPACK's bisection eigensolver (``?stebz``
    via ``?laebz``, pivmin included) float for float, so the counts are its
    counts, except where it splits the matrix: a_j a_{j-1} above about 2e31,
    i.e. 1 - t below about 3e-15, at the edge of the grid guard."""
    d = u[1:-1] - e  # becomes 1 - t, then the diagonal, in place
    d *= h * h / 12.0 * two_m
    np.subtract(1.0, d, out=d)
    if not d.min() > 0.0:
        raise GridError(f"grid too coarse: 1 - h^2/12 2m (u - E) <= 0 at E = {e:.6g} Hartree")
    np.divide(12.0, d, out=d)
    d -= 10.0
    s, c = end(u, h, two_m, e)[:2]
    d[-1] = s * d[-1] + c
    off = np.full(d.size - 1, -1.0)
    count = 0
    while d.size > 1:  # the wrapper rejects a single entry
        d, off, info = dpttrf(d, off, overwrite_d=1, overwrite_e=1)
        if info == 0:
            return count
        if info < 0:
            raise EigenSearchError(f"Sturm count failed (LAPACK dpttrf info {info})")
        count += 1
        if info == d.size:
            return count
        d[info] -= 1.0 / min(d[info - 1], -sys.float_info.min)
        d, off = d[info:], off[info:]
    return count + int(d[0] < sys.float_info.min)  # a last pivot below pivmin counts


def _bisect(side, lo, hi, rtol):
    """Shrink [lo, hi] around the root of ``side`` (> 0 above it, < 0 below)
    until the width is within ``rtol`` (relative) or the midpoint stops
    moving; an exact zero returns ``(mid, mid)``."""
    for _ in range(240):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        s = side(mid)
        if s == 0.0:
            return mid, mid
        if s > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rtol * max(abs(lo), abs(hi)):
            break
    return lo, hi


def _newton(f, lo, hi, rising, x, rtol):
    """Safeguarded Newton from x for the one root of f in [lo, hi]; f(e) is
    (value, slope), its value below the root < 0 if ``rising``, else > 0.
    Each value moves a bracket end to e; a step that leaves the bracket, or
    is not under half the step before, bisects instead (Press et al.,
    *Numerical Recipes*, ``rtsafe``).  Returns the stepped point once a step
    is within ``rtol`` of x or no longer moves it, the midpoint once the
    bracket is that narrow, or x at an exact zero."""
    last = math.inf
    for _ in range(240):
        value, slope = f(x)
        if value == 0.0:
            return x
        if (value > 0.0) == rising:
            hi = x
        else:
            lo = x
        step = value / slope if slope else math.inf
        if abs(step) <= rtol * abs(x) or x - step == x:
            return x - step
        if not (lo < x - step < hi and abs(step) <= 0.5 * abs(last)):
            step = x - 0.5 * (lo + hi)
            if hi - lo <= rtol * abs(x) or x - step in (lo, hi):
                return x - step
        x, last = x - step, step
    return x


def _steps(v, h, two_m, e):
    """1 - t_i and delta_i = 12 t_i/(1 - t_i), free of the cancellation in
    a_i - 2 = 12/(1 - t_i) - 12, on the interior rows of ``v``."""
    t = h * h / 12.0 * two_m * (v[1:-1] - e)
    w = 1.0 - t
    return w, 12.0 * t / w


def _residual(v, h, two_m, e, end):
    """(r, r', k) with (r, r') 2^k = (det T(E), its E-derivative).  det T(E)
    is D_{L-1} + s delta_L z_L + (2s - 1 + c) z_L, Numerov's summed form D_i =
    D_{i-1} + delta_i z_i, z_{i+1} = z_i + D_i (Henrici 1962) run from z_0 = 0,
    z_1 = 1 at the left wall and closed at row L by ``end``'s (s, c) at E, c
    moving with E by its dc/dE: the last LDL^T pivot of T(E) (see
    _count_nodes) times z_L, so its sign is (-1)^count.  In the unknowns
    (z_1, D_1, ..., z_L, D_{L-1} + s delta_L z_L) the pass is one unit lower
    triangular band solve L x = rhs (BLAS ``dtbsv``), k = 0, and its
    derivative the same solve of L x' = -L' x, where L' holds only
    -delta'_i = 12 c_N/(1 - t_i)^2, c_N = h^2/12 2m.  One that overflows is
    redone in blocks from (z_j, D_{j-1}) and their derivatives scaled by
    powers of two, whose exponents k adds up: the same passes, scaled
    exactly, with r in [0.5, 1)."""
    s, c, slope, _ = end(v, h, two_m, e)
    w, delta = _steps(v, h, two_m, e)
    rate = np.square(w, out=w)
    np.divide(-12.0 * (h * h / 12.0 * two_m), rate, out=rate)  # delta'_i
    delta[-1] *= s
    rate[-1] *= s
    close = 2.0 * s - 1.0 + c
    ab = np.full((3, 2 * delta.size), -1.0, order="F")  # row 0, the unit diagonal, is never read
    np.negative(delta, out=ab[1, 0::2])
    rhs = np.zeros(ab.shape[1])
    rhs[:2] = 1.0  # (z_1, D_0)
    x = dtbsv(2, ab, rhs, lower=1, diag=1)
    np.multiply(rate, x[0::2], out=rhs[1::2])
    rhs[0::2] = 0.0
    dx = dtbsv(2, ab, rhs, lower=1, diag=1)
    z, d, dz, dd = x[-2:].tolist() + dx[-2:].tolist()
    if all(map(math.isfinite, (z, d, dz, dd))):
        return d + close * z, dd + close * dz + slope * z, 0
    # a row grows max(|z|, |D|) at most 2 + |delta|-fold, and the derivative
    # at most 1 + sum |delta'| times more: blocks of up to 2^1000 in all
    bits = np.cumsum(np.log2(2.0 + np.abs(delta)))
    budget = 1000.0 - math.log2(1.0 + float(np.sum(np.abs(rate))))
    z, d, dz, dd, start, done, k = 0.0, 1.0, 0.0, 0.0, 0, 0.0, 0  # (z_0, D_0) and derivatives
    while start < delta.size:
        stop = max(int(np.searchsorted(bits, done + budget, side="right")), start + 1)
        shift = math.frexp(max(abs(z + d), abs(d), abs(dz + dd), abs(dd)))[1]
        band = ab[:, 2 * start : 2 * stop]
        rhs = np.zeros(band.shape[1])
        rhs[:2] = math.ldexp(z + d, -shift), math.ldexp(d, -shift)
        x = dtbsv(2, band, rhs, lower=1, diag=1)
        rhs = np.zeros(band.shape[1])
        rhs[1::2] = rate[start:stop] * x[0::2]
        rhs[:2] += math.ldexp(dz + dd, -shift), math.ldexp(dd, -shift)
        dx = dtbsv(2, band, rhs, lower=1, diag=1)
        z, d, dz, dd = x[-2:].tolist() + dx[-2:].tolist()
        start, done, k = stop, float(bits[stop - 1]), k + shift
    r, shift = math.frexp(d + close * z)
    return r, math.ldexp(dd + close * dz + slope * z, -shift), k + shift


def _eigenvector(v, h, two_m, e, end):
    """psi on ``v`` at the eigenvalue e, psi[0] = 0 and psi[-1] as ``end``
    gives: inverse iteration (LAPACK ``dstein``) for the eigenvalue 0 of T(E)
    closed by ``end``, whose eigenvector is z_i = (1 - t_i) psi_i."""
    s, c, _, decay = end(v, h, two_m, e)
    w, delta = _steps(v, h, two_m, e)
    diag = 2.0 + delta
    diag[-1] = s * diag[-1] + c
    size = diag.size
    off = np.full(max(size - 1, 1), -1.0)  # the wrapper wants one entry even at size 1
    z, info = dstein(diag, off, [0.0], np.ones(size, np.int32), np.full(size, size, np.int32))
    if info != 0:
        raise EigenSearchError(f"inverse iteration failed (LAPACK dstein info {info})")
    psi = np.zeros(v.size)
    psi[1:-1] = z[:, 0] / w
    psi[-1] = decay * psi[-2]
    return psi


def _sectors(u):
    """(u up to one point past the centre, closed end, parity) of the even
    and the odd half of an interval equal to its mirror.
    Its Jacobi matrix is persymmetric, so eigenvector k is symmetric or skew
    with k sign changes (Cantoni & Butler, Linear Algebra Appl. 13, 275
    (1976)).  At a centre point M, psi[M+1] = psi[M-1] halves row M (exactly
    in floats), or psi[M] = 0; at a centre pair psi[K] = +-psi[K-1] shifts
    row K - 1 by -+1."""
    n, c = u.size, u.size // 2 + 1
    if n % 2:
        return [(u[: c + 1], _closed(0.5, 0.0), Parity.EVEN), (u[:c], _WALL, Parity.ODD)]
    return [(u[:c], _closed(1.0, -1.0), Parity.EVEN), (u[:c], _closed(1.0, 1.0), Parity.ODD)]


def _profile_is_symmetric(profile: PotentialProfile) -> bool:
    if profile.kind is not DomainKind.INTERVAL:
        return False
    u = profile.u_hartree[1:-1]
    scale = float(np.max(np.abs(u))) or 1.0
    return bool(np.all(np.abs(u - u[::-1]) <= 1.0e-9 * scale))


def _finalize(energy_h: float, psi: np.ndarray, profile: PotentialProfile,
              nodes: int, parity: Parity | None = None) -> Eigenstate:
    """The state of psi normalised, its first lobe above 1e-3 of the peak
    positive, labelled ``nodes`` and ``parity``; the oracle's parity (None)
    is psi's mirror overlap."""
    grid = profile.grid_bohr
    norm = math.sqrt(float(np.trapezoid(psi * psi, grid)))
    if norm == 0.0:
        raise EigenSearchError("degenerate zero eigenvector")
    psi = psi / norm
    scale = np.max(np.abs(psi))
    lead = np.nonzero(np.abs(psi) > 1.0e-3 * scale)[0][0]
    if psi[lead] < 0.0:
        psi = -psi
    if parity is None:
        parity = Parity.NONE
        if _profile_is_symmetric(profile):
            overlap = float(np.trapezoid(psi * psi[::-1], grid))
            if overlap > 0.99:
                parity = Parity.EVEN
            elif overlap < -0.99:
                parity = Parity.ODD
    kind = StateKind.BOUND if energy_h < profile.classification_reference() else StateKind.BOX
    psi = np.ascontiguousarray(psi)
    psi.setflags(write=False)
    return Eigenstate(energy_h, psi, grid, nodes, parity, kind, profile.kind)


def solve_eigenstates(
    profile: PotentialProfile, m_eff: float = 1.0, n_states: int = 1
) -> list[Eigenstate]:
    """Lowest ``n_states`` eigenstates by Numerov shooting.

    Each eigenvalue is first isolated by bisection on the Sturm count of
    T(E) (``_count_nodes``), which needs every interior 1 - t_i > 0, t_i =
    h^2/12 2m (u_i - E); a grid too coarse for that raises ``GridError``.
    The count stops once the bracket ends count k and k + 1, and needs none
    at the window's bottom, where every 0 < t_i < 1 makes T(E) diagonally
    dominant; a mirror's odd half never counts more than its even half, so
    it starts from the even half's counts of 0.  Safeguarded Newton
    (``_newton``) on det T(E) and its derivative (``_residual``) then
    polishes it to 1e-13 relative from the bracket's midpoint; det T(E) has
    the sign (-1)^count at the bracket ends without a pass.  An open end
    (``_tail``) first brackets each level to 1e-6 relative with the count,
    which closes it with a wall, and is closed by the tail where the tail's
    det T(E) takes the count's signs at the bracket ends (one pass each), by
    that wall otherwise.  An interval whose potential is its mirror to
    within 1e-9 of its largest magnitude (``_profile_is_symmetric``) is
    solved as the exact mirror 0.5 (u + u[::-1]) -- u itself when u is one,
    and levels moved by about the asymmetry |u - u[::-1]|/2 at most when u
    is near one -- split into its even and odd halves (``_sectors``), whose
    levels stay apart however deep the double well.  The eigenvector
    (``_eigenvector``) takes the level's end too.  State k is labelled by the
    count that isolated it, k nodes, and by its half, even or odd (``NONE``
    off a mirror).
    A grid of fewer than 4 points, or a step h with h^2 or h^2/12 2m not a
    normal float, raises ``GridError``; more states than T(E) has rows, or
    levels that no count separates at float resolution, raise
    ``EigenSearchError``.
    """
    if n_states < 1:
        raise DomainError("n_states must be >= 1")
    if not (m_eff > 0.0 and math.isfinite(m_eff)):
        raise DomainError("m_eff must be positive and finite")
    flipped = profile.kind is DomainKind.HALF_LINE_WALL_RIGHT
    u = profile.u_hartree[::-1] if flipped else profile.u_hartree
    n = u.size
    h = profile.step_bohr
    two_m = 2.0 * m_eff
    open_right = profile.kind is not DomainKind.INTERVAL
    # psi = 0 at a hard wall, so the kernels take its entry from the neighbour
    inner = u[1:] if open_right else u[1:-1]
    u = np.pad(inner, (1, 0 if open_right else 1), mode="edge")
    mirrored = _profile_is_symmetric(profile)
    if mirrored:  # the exact mirror: u itself when it is one
        u = 0.5 * (u + u[::-1])
    # (u, right end, parity) of the domain, or of each half
    problems = _sectors(u) if mirrored else [(u, _tail if open_right else _WALL, Parity.NONE)]

    if n < 4:  # a mirror of 3 points leaves its odd half no row
        raise GridError(f"shooting needs at least 4 grid points, got {n}")
    # Numerov's factors h^2/12 2m (u - E) lose digits once h^2 or their
    # coefficient leaves the normal floats, and the 1/span^2 energy scale
    # overflows soon after (about a 1e-152 nm gap on 4001 points)
    if h * h < sys.float_info.min:
        raise GridError(f"grid step {h:.3g} Bohr too fine: h^2 is not a normal float")
    coefficient = h * h / 12.0 * two_m  # as every kernel forms it
    if coefficient < sys.float_info.min:
        raise GridError(f"h^2/12 2m = {coefficient:.3g} is not a normal float: "
                        "step or mass too small")
    # window from below the well bottom to past the barrier top (interval)
    # or the tail (half line); a mirror's halves hold alternate states
    span = profile.span_bohr
    quantum = math.pi**2 / (2.0 * m_eff * span * span)
    umin = float(np.min(inner))
    lo = 1.5 * umin if umin < 0.0 else -quantum
    u_ref = profile.classification_reference()
    if n_states > n - 2:
        raise EigenSearchError(f"{n_states} states asked of a matrix of {n - 2} rows")
    # the window's top doubles its step until it holds n_states levels: T(E)
    # is negative definite, every row counted, once every t_i < -1/2
    step = 50.0 * max(1.0, n_states * n_states / 16.0) * quantum
    while (total := _count_nodes(u, h, two_m, u_ref + step)) < n_states:
        step *= 2.0
    hi = u_ref + step

    states: list[Eigenstate] = []
    # (energy, count) of each problem, every count exact.  At lo every 0 <
    # t_i < 1 makes T(lo) diagonally dominant, count 0, without a count
    # (-1 when lo is not known to be below every level); at hi the window's
    # count splits between the halves, the even one holding the extra level
    floor = 0 if coefficient * (float(np.max(u)) - lo) < 1.0 else -1
    shares = [(total + 1) // 2, total // 2] if mirrored else [total]
    measured = [[(lo, floor), (hi, share)] for share in shares]
    for k in range(n_states):
        level, p = divmod(k, len(problems))
        (v, end, parity), seen = problems[p], measured[p]

        def count(e):
            c = _count_nodes(v, h, two_m, e, _WALL if end is _tail else end)
            seen.append((e, c))
            if c == 0 and p == 0 and mirrored:  # the odd half counts no more than the even
                measured[1].append((e, 0))
            return c

        def above(e):  # node count level + 1 or more: e lies above that eigenvalue
            # counts grow with energy: level + 1 or more at or below e, or
            # level or less at or above e, decides e without a new count
            for e_m, c in seen:
                if (c > level and e_m <= e) or (c <= level and e_m >= e):
                    return c - level - 0.5
            return count(e) - level - 0.5

        def det(e):  # (det T(E), its slope), both over the same 2^k
            return _residual(v, h, two_m, e, end)[:2]

        rising = level % 2 == 1  # det T(E) below the level: (-1)^level
        if end is _tail:  # an open end: the count (with a wall there) to 1e-6 first
            _bisect(above, lo, hi, 1.0e-6)
        # count only until the bracket ends count level and level + 1, where
        # det T(E) has the sign (-1)^count
        e_lo, c_lo = max(m for m in seen if m[1] <= level)
        e_hi, c_hi = min(m for m in seen if m[1] > level)
        while c_lo < level or c_hi > level + 1:
            mid = 0.5 * (e_lo + e_hi)
            if mid in (e_lo, e_hi):
                raise EigenSearchError(f"level {level} not isolated at float resolution")
            if count(mid) > level:
                e_hi, c_hi = seen[-1]
            else:
                e_lo, c_lo = seen[-1]
        # an open end is closed by the decaying tail where its det T(E) takes
        # the count's signs at the bracket ends too, and by a wall otherwise
        sign = 1.0 if rising else -1.0
        if end is _tail and not det(e_lo)[0] * sign < 0.0 < det(e_hi)[0] * sign:
            end = _WALL
        energy = _newton(det, e_lo, e_hi, rising, 0.5 * (e_lo + e_hi), _POLISH)
        psi = _eigenvector(v, h, two_m, energy, end)
        if mirrored:  # the half and its mirror image
            image = psi[n // 2 - 1 :: -1]
            psi = np.concatenate((psi[: (n + 1) // 2], image if parity is Parity.EVEN else -image))
        if flipped:
            psi = psi[::-1]
        states.append(_finalize(energy, psi, profile, k, parity))

    for a, b in zip(states, states[1:]):  # each level is polished to 1e-13 relative
        width = 1.0e-13 * (abs(a.energy_h) + abs(b.energy_h))
        if b.energy_h < a.energy_h - max(1.0e-12 / m_eff, width):
            raise EigenSearchError("eigenvalues out of order; grid too coarse")
    return states


def _symmetrize_degenerate_pairs(states, profile, m_eff):
    for i in range(len(states) - 1):
        a, b = states[i], states[i + 1]
        if abs(b.energy_h - a.energy_h) >= 1.0e-12 / m_eff:
            continue
        even_raw = a.psi + a.psi[::-1]
        if float(np.max(np.abs(even_raw))) < 1.0e-6:
            even_raw = b.psi + b.psi[::-1]
        odd_raw = a.psi - a.psi[::-1]
        if float(np.max(np.abs(odd_raw))) < 1.0e-6:
            odd_raw = b.psi - b.psi[::-1]
        states[i] = _finalize(a.energy_h, even_raw, profile, i)
        states[i + 1] = _finalize(b.energy_h, odd_raw, profile, i + 1)


def diagonalization_oracle(
    profile: PotentialProfile, m_eff: float = 1.0, n_states: int = 1
) -> list[Eigenstate]:
    """Independent check: diagonalize the central-difference Hamiltonian.

    Dirichlet conditions at both grid ends (for open half-lines the decaying
    tail is approximated by the hard truncation, adequate whenever the
    profile extends far past the state).  Requires at least 50 grid points,
    and m h^2 a normal float.  State j has j nodes: the matrix is an
    unreduced Jacobi matrix with a negative off-diagonal, whose j-th
    eigenvector changes sign exactly j times (Gantmacher & Krein,
    *Oscillation Matrices and Kernels*, ch. II).
    """
    if n_states < 1:
        raise DomainError("n_states must be >= 1")
    if not (m_eff > 0.0 and math.isfinite(m_eff)):
        raise DomainError("m_eff must be positive and finite")
    n = profile.grid_bohr.size
    if n < 50:
        raise GridError(f"oracle needs >= 50 grid points, got {n}")
    h = profile.step_bohr
    u = profile.u_hartree
    mh2 = m_eff * h * h
    if not sys.float_info.min <= mh2 < math.inf:
        raise GridError(f"m h^2 = {mh2:.3g} is not a normal float: step or mass out of range")
    inv = 1.0 / mh2
    # solve s·H with s = 2^-e, which brings the kinetic scale to [1/2, 1):
    # a power-of-two scale is exact, and keeps LAPACK clear of the squares
    # that under- or overflow for very heavy or very light masses
    s = math.ldexp(1.0, -math.frexp(inv)[1])
    diag = inv * s + u[1:-1] * s
    off = np.full(n - 3, -0.5 * inv * s)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_states - 1))
    w = w / s
    states = []
    for j in range(n_states):
        psi = np.zeros(n)
        psi[1:-1] = v[:, j]
        states.append(_finalize(float(w[j]), psi, profile, j))
    if _profile_is_symmetric(profile):  # degenerate pairs re-symmetrized into even/odd
        _symmetrize_degenerate_pairs(states, profile, m_eff)
    return states


# ---------------------------------------------------------------------------
# Hydrogenic closed forms for a charge bound to a single wall


@dataclass(frozen=True)
class HydrogenicParams:
    """Effective one-third-charge hydrogen problem: a charge in a host of
    permittivity ``eps_host`` bound to its image behind a single wall, with
    effective charge ``z_eff`` and effective mass ``m_eff``."""

    z_eff: float
    m_eff: float = 1.0
    eps_host: float = 1.0
    n: int = 1

    def __post_init__(self) -> None:
        if not (self.z_eff > 0.0):
            raise DomainError("z_eff must be positive (no binding otherwise)")
        if self.n < 1:
            raise DomainError("n must be >= 1")


def single_wall_params(
    eps_wall: float, eps_host: float = 1.0, m_eff: float = 1.0, n: int = 1
) -> HydrogenicParams:
    """Effective parameters for a charge facing one half-space of
    permittivity ``eps_wall`` (may be ``inf`` for a metal): z_eff =
    (1/4)|eps_host - eps_wall|/(eps_host + eps_wall), reaching 1/4 at a
    metal."""
    if math.isinf(eps_wall):
        z = 0.25
    else:
        z = 0.25 * abs(eps_host - eps_wall) / (eps_host + eps_wall)
    return HydrogenicParams(z_eff=z, m_eff=m_eff, eps_host=eps_host, n=n)


def hydrogenic_energy_ev(p: HydrogenicParams) -> float:
    return -0.5 * p.m_eff * (p.z_eff / p.eps_host) ** 2 / (p.n * p.n) * HARTREE_EV


def hydrogenic_bohr_radius_nm(p: HydrogenicParams) -> float:
    return p.n * p.n * BOHR_RADIUS_NM * p.eps_host / (p.z_eff * p.m_eff)


def radial_wavefunction(p: HydrogenicParams, r_nm) -> np.ndarray:
    """Normalized radial function R_n (s states, n <= 3) in nm^(-3/2)."""
    r = np.asarray(r_nm, dtype=float)
    a = BOHR_RADIUS_NM * p.eps_host / p.m_eff  # effective length scale
    x = p.z_eff * r / a
    zn = p.z_eff / (p.n * a)
    if p.n == 1:
        return 2.0 * zn**1.5 * np.exp(-x)
    if p.n == 2:
        return 2.0 * zn**1.5 * (1.0 - 0.5 * x) * np.exp(-0.5 * x)
    if p.n == 3:
        return 2.0 * zn**1.5 * (1.0 - 2.0 * x / 3.0 + 2.0 * x * x / 27.0) * np.exp(-x / 3.0)
    raise DomainError("radial forms implemented for n in {1, 2, 3}")


def bohr_radius_numeric(state: Eigenstate) -> float:
    """Most probable distance from the wall (nm), the right one on a
    ``HALF_LINE_WALL_RIGHT`` half line and the left one otherwise: parabolic
    refinement of the grid argmax of psi^2."""
    prob = state.psi * state.psi
    i = int(np.argmax(prob))
    i = min(max(i, 1), prob.size - 2)
    y0, y1, y2 = prob[i - 1], prob[i], prob[i + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
    shift = min(max(shift, -0.5), 0.5)
    x = state.grid_bohr[i] + shift * (state.grid_bohr[1] - state.grid_bohr[0])
    wall = state.grid_bohr[-1 if state.domain is DomainKind.HALF_LINE_WALL_RIGHT else 0]
    return abs(x - wall) * BOHR_RADIUS_NM


def box_energy_ev(length_nm: float, n: int, m_eff: float = 1.0) -> float:
    """Hard-wall box level n (1-based) in eV."""
    if length_nm <= 0.0 or n < 1:
        raise DomainError("need length > 0 and n >= 1")
    length = length_nm / BOHR_RADIUS_NM
    return (n * n * math.pi**2) / (2.0 * m_eff * length * length) * HARTREE_EV


def particle_in_box_levitation(mass_kg: float, n: int, length_nm: float) -> float:
    """Mass (kg) whose weight the outward box-confinement force on one wall
    balances: M = n^2 pi^2 hbar^2 / (m L^3 g)."""
    if mass_kg <= 0.0 or n < 1 or length_nm <= 0.0:
        raise DomainError("need mass > 0, n >= 1, length > 0")
    length_m = length_nm * 1.0e-9
    return (n * n * math.pi**2 * HBAR_JS**2) / (
        mass_kg * length_m**3 * STANDARD_GRAVITY_MS2
    )
