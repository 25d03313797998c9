"""One-dimensional bound and box states in image-potential wells.

Two independent solvers:

* ``solve_eigenstates`` -- fixed-step 4th-order (Numerov) shooting on the
  tridiagonal matrix T(E) of Numerov's recurrence, from a wall (psi = 0) on
  the left.  Its right end is closed, by a wall or a mirror's centre, the
  same at every E; or open, by a half line's decaying tail, which moves with
  E.  T(E)'s Sturm count (Barth, Martin & Wilkinson 1967) isolates each
  eigenvalue until the bracket ends count k and k + 1, where det T(E) has
  the sign (-1)^count (Sylvester's law of inertia).  Safeguarded Newton on
  det T(E) polishes it to 1e-13 relative, and one step of inverse iteration
  (one LAPACK ``dgtsv`` solve) gives the eigenvector.  All three take the
  same end, except that an open end still counts with a wall at the
  truncation radius, until the bracket is also within 1e-6; its level takes
  the tail where the tail's root lies in that count's bracket, and the wall
  otherwise.  A predicted level (``guesses``) is counted first just below
  and above itself, and Newton starts there, or at the bracket end nearest
  it when it lies outside.
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
from scipy.linalg.lapack import dgtsv, dpttrf

from .constants import BOHR_RADIUS_NM, HARTREE_EV
from .errors import (DomainError, EigenSearchError, GridError, require_count, require_finite,
                     require_positive)

_POLISH = 1.0e-13  # Newton's last step, relative to the level
_HUNT = 1.0e-4  # a guessed level's count bracket, relative to the guess


class DomainKind(Enum):
    HALF_LINE_WALL_LEFT = "half_line_wall_left"
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
        return float(u[-1])


@dataclass(frozen=True, eq=False)
class Eigenstate:
    """A normalised state.  From shooting, state k has ``nodes`` = k, the
    count that isolated it, and the ``parity`` of the mirror half it was
    solved on (``NONE`` off a mirror); from the oracle, state j has
    ``nodes`` = j, as the oscillation theorem gives for its Jacobi matrix,
    and ``parity`` is psi's mirror overlap beyond +-0.99 on a mirror
    profile.  ``count_calls`` and ``newton_passes`` are the Sturm counts and
    det T(E) passes shooting spent on this state (state 0 also carries the
    search window's counts), besides its one eigenvector solve; the oracle
    reports 0 for both."""

    energy_h: float
    psi: np.ndarray
    grid_bohr: np.ndarray
    nodes: int
    parity: Parity
    kind: StateKind
    count_calls: int = 0
    newton_passes: int = 0

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
    with np.errstate(over="ignore"):  # a pass that overflows is redone in blocks
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
    gives: one step of inverse iteration for the eigenvalue 0 of T(E) closed
    by ``end``, whose eigenvector is z_i = (1 - t_i) psi_i.  One solve T(E) z
    = b (LAPACK ``dgtsv``, partial pivoting) shrinks each other eigenvector
    component of b against the state's by the ratio of T(E)'s eigenvalue
    nearest 0, at rounding level at a polished level, to that component's
    own.  b is uniform on [-1, 1) from a fixed seed, as LAPACK ``dstein``
    starts, so no state's component is small by construction (a smooth b
    such as all ones has almost none along some box modes).  A second
    path: where T(E) is singular in floats the solve is repeated once at
    T(E) + eps I.  Only the last pivot can be exactly zero, since partial
    pivoting against the unit off-diagonal keeps every other one at least 1
    in magnitude, and only a one-row half (the 4-point box's) has been seen
    to reach it, when Newton lands on its root exactly.  eps moves no entry
    of magnitude 2 or more, so a zero pivot that survives it raises
    ``EigenSearchError``."""
    s, c, _, decay = end(v, h, two_m, e)
    w, delta = _steps(v, h, two_m, e)
    diag = 2.0 + delta
    diag[-1] = s * diag[-1] + c
    size = diag.size
    off = np.full(max(size - 1, 1), -1.0)  # the wrapper wants one entry even at size 1
    start = np.random.default_rng(1).uniform(-1.0, 1.0, size)
    *_, z, info = dgtsv(off, diag, off, start)
    if info > 0:
        *_, z, info = dgtsv(off, diag + sys.float_info.epsilon, off, start)
    if info != 0:
        raise EigenSearchError(f"inverse iteration failed (LAPACK dgtsv info {info})")
    psi = np.zeros(v.size)
    psi[1:-1] = z / w
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


def require_step(h: float) -> None:
    """``GridError`` unless the grid step ``h`` (Bohr) has a square that is a
    normal float: Numerov's factors h^2/12 2m (u - E) lose digits below, and
    past the largest float they are inf."""
    if not sys.float_info.min <= h * h < math.inf:
        raise GridError(f"grid step {h:.3g} Bohr out of range: h^2 is not a normal float")


def _finalize(energy_h: float, psi: np.ndarray, profile: PotentialProfile,
              nodes: int, parity: Parity | None = None,
              count_calls: int = 0, newton_passes: int = 0) -> Eigenstate:
    """The state of psi normalised, its first lobe above 1e-3 of the peak
    positive, labelled ``nodes`` and ``parity`` and carrying its work; the
    oracle's parity (None) is psi's mirror overlap."""
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
    psi.setflags(write=False)
    return Eigenstate(energy_h, psi, grid, nodes, parity, kind, count_calls, newton_passes)


def solve_eigenstates(
    profile: PotentialProfile, m_eff: float = 1.0, n_states: int = 1, guesses=None
) -> list[Eigenstate]:
    """Lowest ``n_states`` eigenstates by Numerov shooting.

    Each eigenvalue is first isolated by bisection on the Sturm count of
    T(E) (``_count_nodes``), which needs every interior 1 - t_i > 0, t_i =
    h^2/12 2m (u_i - E); a grid too coarse for that raises ``GridError``.
    The count stops once the bracket ends count k and k + 1 -- at an open
    end (``_tail``), which it closes with a wall, once the bracket is also
    within 1e-6 relative -- and needs none at the window's bottom, where
    every 0 < t_i < 1 makes T(E) diagonally dominant; a mirror's odd half
    never counts more than its even half, so it starts from the even half's
    counts of 0.  Safeguarded Newton (``_newton``) on det T(E) and its
    derivative (``_residual``) then polishes it to 1e-13 relative from the
    bracket's midpoint; det T(E) has the sign (-1)^count at the bracket ends
    without a pass.  ``guesses`` (Hartree), if given, holds one predicted
    level per state; an entry that is None, not finite or outside the
    search window is ignored.  State k's guess g is counted at g -+ 1e-4 |g|
    first (each count inside the window), and the isolation loop then runs
    from every count made; Newton starts at g, clamped to the bracket it
    ends with (at the midpoint without a finite g).  Every count is exact,
    so a bad guess costs counts and passes but never changes the state.  An
    open end's level is closed by the tail where the tail's det T(E) takes
    the count's signs at the bracket ends (one pass each), by that wall
    otherwise.  An interval
    whose potential is its mirror to within 1e-9 of its largest magnitude
    (``_profile_is_symmetric``) is solved as the exact mirror 0.5 (u +
    u[::-1]) -- u itself when u is one, and levels moved by about the
    asymmetry |u - u[::-1]|/2 at most when u is near one -- split into its
    even and odd halves (``_sectors``), whose levels stay apart however deep
    the double well.  The eigenvector (``_eigenvector``, one inverse
    iteration solve) takes the level's end too.  State k is labelled by the
    count that isolated it, k nodes, and by its half, even or odd (``NONE``
    off a mirror), and carries the counts and det T(E) passes spent on it
    (``count_calls``, ``newton_passes``; the window's counts on state 0).
    An ``n_states`` that is not an integer >= 1, or a number of guesses
    other than it, raises ``DomainError``.  A grid of fewer than 4 points,
    or a step h with h^2 or h^2/12 2m not a normal float, raises
    ``GridError``; more states than T(E) has rows, or levels that no count
    separates at float resolution, raise ``EigenSearchError``.
    """
    require_count("n_states", n_states, 1)
    require_positive("m_eff", m_eff)
    if guesses is not None and len(guesses) != n_states:
        raise DomainError(f"{len(guesses)} guesses given for {n_states} states")
    u = profile.u_hartree
    n = u.size
    h = profile.step_bohr
    two_m = 2.0 * m_eff
    open_right = profile.kind is not DomainKind.INTERVAL
    inner = u[1:] if open_right else u[1:-1]  # no kernel reads a hard wall's entry
    mirrored = _profile_is_symmetric(profile)
    if mirrored:  # the exact mirror: u itself when it is one
        with np.errstate(over="ignore"):  # walls, never read, may hold any finite value
            u = 0.5 * (u + u[::-1])
    # (u, right end, parity) of the domain, or of each half
    problems = _sectors(u) if mirrored else [(u, _tail if open_right else _WALL, Parity.NONE)]

    if n < 4:  # a mirror of 3 points leaves its odd half no row
        raise GridError(f"shooting needs at least 4 grid points, got {n}")
    # Numerov's factors h^2/12 2m (u - E) lose digits once h^2 or their
    # coefficient falls below the normal floats, and the 1/span^2 energy scale
    # overflows soon after (about a 1e-152 nm gap on 4001 points); past the
    # largest float they are inf, and every count NaN
    require_step(h)
    coefficient = h * h / 12.0 * two_m  # as every kernel forms it
    if not sys.float_info.min <= coefficient < math.inf:
        raise GridError(f"h^2/12 2m = {coefficient:.3g} is not a normal float: "
                        "step or mass out of range")
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
    window = 1  # counts of the window's top, charged to state 0
    while (total := _count_nodes(u, h, two_m, u_ref + step)) < n_states:
        step *= 2.0
        window += 1
    hi = u_ref + step

    states: list[Eigenstate] = []
    # (energy, count) of each problem, every count exact.  At lo every 0 <
    # t_i < 1 makes T(lo) diagonally dominant, count 0, without a count
    # (-1 when lo is not known to be below every level); at hi the window's
    # count splits between the halves, the even one holding the extra level
    floor = 0 if coefficient * (float(np.max(inner)) - lo) < 1.0 else -1
    shares = [(total + 1) // 2, total // 2] if mirrored else [total]
    measured = [[(lo, floor), (hi, share)] for share in shares]
    for k in range(n_states):
        level, p = divmod(k, len(problems))
        (v, end, parity), seen = problems[p], measured[p]
        work = [0 if k else window, 0]  # counts and det T(E) passes spent on state k

        def count(e):
            work[0] += 1
            c = _count_nodes(v, h, two_m, e, _WALL if end is _tail else end)
            seen.append((e, c))
            if c == 0 and p == 0 and mirrored:  # the odd half counts no more than the even
                measured[1].append((e, 0))
            return c

        def det(e):  # (det T(E), its slope), both over the same 2^k
            work[1] += 1
            return _residual(v, h, two_m, e, end)[:2]

        rising = level % 2 == 1  # det T(E) below the level: (-1)^level
        g = math.nan if guesses is None or guesses[k] is None else float(guesses[k])
        for e in (g - _HUNT * abs(g), g + _HUNT * abs(g)):  # NaN compares False
            if lo < e < hi:
                count(e)
        # count only until the bracket ends count level and level + 1, where
        # det T(E) has the sign (-1)^count, and at an open end (counted with a
        # wall there) until it is also within 1e-6 relative
        e_lo, c_lo = max(m for m in seen if m[1] <= level)
        e_hi, c_hi = min(m for m in seen if m[1] > level)
        wide = 1.0e-6 if end is _tail else math.inf
        while c_lo < level or c_hi > level + 1 or e_hi - e_lo > wide * max(abs(e_lo), abs(e_hi)):
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
        # Newton from the guess, or from the bracket end nearest a guess that
        # missed: a guess off by more than 1e-4 has left that end next to the
        # level, where the midpoint of a wide bracket would bisect its way down
        start = min(max(g, e_lo), e_hi) if math.isfinite(g) else 0.5 * (e_lo + e_hi)
        energy = _newton(det, e_lo, e_hi, rising, start, _POLISH)
        psi = _eigenvector(v, h, two_m, energy, end)
        if mirrored:  # the half and its mirror image
            image = psi[n // 2 - 1 :: -1]
            psi = np.concatenate((psi[: (n + 1) // 2], image if parity is Parity.EVEN else -image))
        states.append(_finalize(energy, psi, profile, k, parity, *work))

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
    require_count("n_states", n_states, 1)
    require_positive("m_eff", m_eff)
    n = profile.grid_bohr.size
    if n < 50:
        raise GridError(f"oracle needs >= 50 grid points, got {n}")
    if n_states > n - 2:
        raise EigenSearchError(f"{n_states} states asked of a matrix of {n - 2} rows")
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


def single_wall_bohr_radius_nm(
    eps_wall: float, eps_host: float = 1.0, m_eff: float = 1.0, n: int = 1
) -> float:
    """Bohr radius (nm) of level n of a charge of effective mass ``m_eff`` in
    a host of permittivity ``eps_host``, bound to its image behind one wall of
    permittivity ``eps_wall`` (``inf`` for a metal): the hydrogenic radius
    n^2 a0 eps_host / (z_eff m_eff) with z_eff = (1/4)|eps_host - eps_wall| /
    (eps_host + eps_wall), reaching 1/4 at a metal.  The wall binds only when
    eps_wall > eps_host; below, its image repels and this is the radius of
    the attractive wall of the same |z_eff|.  ``DomainError`` unless
    ``eps_wall`` is > 0 or inf and differs from ``eps_host`` (a matched wall
    binds nothing), ``eps_host`` and ``m_eff`` are finite and > 0, ``n`` is
    an integer >= 1, and the radius is a finite float."""
    require_positive("eps_host", eps_host)
    if not eps_wall > 0.0:
        raise DomainError(f"eps_wall must be > 0 or inf, got {eps_wall!r}")
    if math.isinf(eps_wall):
        z = 0.25
    else:
        z = 0.25 * abs(eps_host - eps_wall) / (eps_host + eps_wall)
    require_positive("z_eff", z)  # no binding otherwise
    require_positive("m_eff", m_eff)
    require_count("n", n, 1)
    return require_finite("hydrogenic Bohr radius", lambda: (
        n * n * BOHR_RADIUS_NM * eps_host / (z * m_eff)))


def bohr_radius_numeric(state: Eigenstate) -> float:
    """Most probable distance from the left wall (nm): parabolic refinement
    of the grid argmax of psi^2."""
    prob = state.psi * state.psi
    i = int(np.argmax(prob))
    i = min(max(i, 1), prob.size - 2)
    y0, y1, y2 = prob[i - 1], prob[i], prob[i + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
    shift = min(max(shift, -0.5), 0.5)
    x = state.grid_bohr[i] + shift * (state.grid_bohr[1] - state.grid_bohr[0])
    return abs(x - state.grid_bohr[0]) * BOHR_RADIUS_NM


def box_energy_ev(length_nm: float, n: int, m_eff: float = 1.0) -> float:
    """Hard-wall box level n (1-based) in eV.  ``length_nm`` and ``m_eff``
    are finite and > 0, ``n`` an integer >= 1, and the level a finite float
    (``DomainError`` otherwise; at n = m_eff = 1 it overflows below a length
    of about 5e-155 nm)."""
    require_positive("length_nm", length_nm)
    require_count("n", n, 1)
    require_positive("m_eff", m_eff)
    length = length_nm / BOHR_RADIUS_NM
    return require_finite("box level", lambda: (
        (n * n * math.pi**2) / (2.0 * m_eff * length * length) * HARTREE_EV))

