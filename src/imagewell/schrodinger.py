"""One-dimensional bound and box states in image-potential wells.

Two independent solvers:

* ``solve_eigenstates`` -- two-sided fixed-step 4th-order (Numerov) shooting.
  Node counts of a full left-to-right pass bracket each eigenvalue, then
  bisection on the sign of the two-sided boundary-mismatch Wronskian at an
  interior match point refines it to machine precision.
* ``diagonalization_oracle`` -- second-order central-difference Hamiltonian
  diagonalized with a symmetric tridiagonal eigensolver.  Exists to
  cross-check the shooting path and must never share its integration core.

Profiles are stored in atomic units (Bohr / Hartree); eigenstate energies
convert to eV at the accessor.  Open half-line ends impose a decaying
condition with the local decay constant at the truncation radius; walls are
hard (psi = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .constants import BOHR_RADIUS_NM, HARTREE_EV, HBAR_JS, STANDARD_GRAVITY_MS2
from .errors import DomainError, EigenSearchError, GridError

try:  # pragma: no cover - exercised implicitly
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


_trapezoid = getattr(np, "trapezoid", None) or np.trapz

_RESCALE = 1.0e250
# The node pass tests signs by the product nxt * psi_cur, which must not overflow.
_NODE_RESCALE = 1.0e150


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
    """Potential energy on a uniform grid (lengths Bohr, energies Hartree)."""

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
    energy_h: float
    psi: np.ndarray
    grid_bohr: np.ndarray
    nodes: int
    parity: Parity
    kind: StateKind

    @property
    def energy_ev(self) -> float:
        return self.energy_h * HARTREE_EV


# ---------------------------------------------------------------------------
# Numerov integration kernels (shooting route only)


@njit(cache=True)
def _numerov_nodes(u, h, two_m, e):
    """Interior sign changes of the left-to-right pass with psi(0) = 0."""
    n = u.shape[0]
    c = h * h / 12.0
    t_prev = c * two_m * (u[0] - e)
    t_cur = c * two_m * (u[1] - e)
    psi_prev = 0.0
    psi_cur = 1.0
    nodes = 0
    for i in range(1, n - 1):
        t_next = c * two_m * (u[i + 1] - e)
        nxt = ((2.0 + 10.0 * t_cur) * psi_cur - (1.0 - t_prev) * psi_prev) / (
            1.0 - t_next
        )
        if nxt * psi_cur < 0.0:
            nodes += 1
        psi_prev = psi_cur
        psi_cur = nxt
        t_prev = t_cur
        t_cur = t_next
        a = abs(psi_cur)
        if a > _NODE_RESCALE:
            psi_prev /= a
            psi_cur /= a
    return nodes


@njit(cache=True)
def _numerov_left(u, h, two_m, e, stop):
    """Forward integration psi[0..stop] from a hard wall at index 0."""
    c = h * h / 12.0
    psi = np.zeros(stop + 1)
    psi[1] = 1.0
    for i in range(1, stop):
        t_prev = c * two_m * (u[i - 1] - e)
        t_cur = c * two_m * (u[i] - e)
        t_next = c * two_m * (u[i + 1] - e)
        psi[i + 1] = (
            (2.0 + 10.0 * t_cur) * psi[i] - (1.0 - t_prev) * psi[i - 1]
        ) / (1.0 - t_next)
        a = abs(psi[i + 1])
        if a > _RESCALE:
            psi[: i + 2] /= a
    return psi


@njit(cache=True)
def _numerov_right(u, h, two_m, e, start, kappa):
    """Backward integration psi[start..n-1]; kappa > 0 seeds a decaying tail
    at the open end, kappa <= 0 a hard wall."""
    n = u.shape[0]
    c = h * h / 12.0
    m = n - start
    psi = np.zeros(m)
    if kappa > 0.0:
        psi[m - 1] = 1.0
        g = kappa * h
        if g > 600.0:
            g = 600.0
        psi[m - 2] = math.exp(g)
    else:
        psi[m - 1] = 0.0
        psi[m - 2] = 1.0
    for j in range(m - 2, 0, -1):
        i = start + j
        t_prev = c * two_m * (u[i - 1] - e)
        t_cur = c * two_m * (u[i] - e)
        t_next = c * two_m * (u[i + 1] - e)
        psi[j - 1] = (
            (2.0 + 10.0 * t_cur) * psi[j] - (1.0 - t_next) * psi[j + 1]
        ) / (1.0 - t_prev)
        a = abs(psi[j - 1])
        if a > _RESCALE:
            psi[j - 1 :] /= a
    return psi


def _decay_kappa(u_end: float, e: float, two_m: float) -> float:
    gap = two_m * (u_end - e)
    return math.sqrt(gap) if gap > 0.0 else -1.0


def _mismatch(u, h, two_m, e, m_idx, open_right):
    kappa = _decay_kappa(u[-1], e, two_m) if open_right else -1.0
    left = _numerov_left(u, h, two_m, e, m_idx + 1)
    right = _numerov_right(u, h, two_m, e, m_idx - 1, kappa)
    left = left / (np.max(np.abs(left)) or 1.0)
    right = right / (np.max(np.abs(right)) or 1.0)
    dl = left[m_idx + 1] - left[m_idx - 1]
    dr = right[2] - right[0]
    return left[m_idx] * dr - right[1] * dl, left, right


def _assemble(left, right, m_idx):
    j = int(np.argmax(np.abs(right[:3])))
    denom = right[j]
    if denom == 0.0:
        j = 1
        denom = right[j] if right[j] != 0.0 else 1.0
    ratio = left[m_idx - 1 + j] / denom
    n = m_idx - 1 + right.size
    psi = np.empty(n)
    psi[:m_idx] = left[:m_idx]
    psi[m_idx:] = ratio * right[1:]
    return psi


def _count_nodes_array(psi: np.ndarray) -> int:
    scale = np.max(np.abs(psi))
    if scale == 0.0:
        return 0
    sig = psi[np.abs(psi) > 1.0e-8 * scale]
    return int(np.count_nonzero(np.diff(np.sign(sig)) != 0))


def _profile_is_symmetric(profile: PotentialProfile) -> bool:
    if profile.kind is not DomainKind.INTERVAL:
        return False
    u = profile.u_hartree
    scale = float(np.max(np.abs(u))) or 1.0
    return bool(np.all(np.abs(u - u[::-1]) <= 1.0e-9 * scale))


def _finalize(
    energy_h: float,
    psi: np.ndarray,
    profile: PotentialProfile,
    symmetric: bool,
) -> Eigenstate:
    grid = profile.grid_bohr
    norm = math.sqrt(float(_trapezoid(psi * psi, grid)))
    if norm == 0.0:
        raise EigenSearchError("degenerate zero eigenvector")
    psi = psi / norm
    scale = np.max(np.abs(psi))
    lead = np.nonzero(np.abs(psi) > 1.0e-3 * scale)[0][0]
    if psi[lead] < 0.0:
        psi = -psi
    parity = Parity.NONE
    if symmetric:
        overlap = float(_trapezoid(psi * psi[::-1], grid))
        if overlap > 0.99:
            parity = Parity.EVEN
        elif overlap < -0.99:
            parity = Parity.ODD
    kind = (
        StateKind.BOUND
        if energy_h < profile.classification_reference()
        else StateKind.BOX
    )
    psi = np.ascontiguousarray(psi)
    psi.setflags(write=False)
    return Eigenstate(energy_h, psi, grid, _count_nodes_array(psi), parity, kind)


def _search_window(u, span, m_eff, n_states, expansion):
    quantum = math.pi**2 / (2.0 * m_eff * span * span)
    umin = float(np.min(u))
    lo = 1.5 * umin if umin < 0.0 else -quantum
    u_ref = float(u[-1])
    hi = u_ref + (2.0**expansion) * 50.0 * max(1.0, n_states * n_states / 16.0) * quantum
    return lo, hi


def solve_eigenstates(
    profile: PotentialProfile, m_eff: float = 1.0, n_states: int = 1
) -> list[Eigenstate]:
    """Lowest ``n_states`` eigenstates by two-sided Numerov shooting.

    Each eigenvalue is first isolated by bisection on the node count of the
    full forward pass, then polished by bisection on the sign of the
    boundary-mismatch Wronskian at the match point (outermost classical
    turning point for half-lines, midpoint for intervals).  Degenerate
    symmetric-well pairs are re-symmetrized into even/odd combinations.
    """
    if n_states < 1:
        raise DomainError("n_states must be >= 1")
    if not (m_eff > 0.0 and math.isfinite(m_eff)):
        raise DomainError("m_eff must be positive and finite")
    flipped = profile.kind is DomainKind.HALF_LINE_WALL_RIGHT
    if flipped:
        u = np.ascontiguousarray(profile.u_hartree[::-1])
    else:
        u = profile.u_hartree
    n = u.size
    h = profile.step_bohr
    two_m = 2.0 * m_eff
    open_right = profile.kind is not DomainKind.INTERVAL

    # reference for the bisection window: barrier top (interval) or tail
    if profile.kind is DomainKind.INTERVAL:
        u_win = np.concatenate([u[1:-1], [u[(n - 1) // 2]]])
    else:
        u_win = np.concatenate([u[1:], [u[-1]]])
    for expansion in range(5):
        lo, hi = _search_window(u_win, profile.span_bohr, m_eff, n_states, expansion)
        if _numerov_nodes(u, h, two_m, hi) >= n_states:
            break
    else:
        raise EigenSearchError(
            f"could not bracket {n_states} states after window expansions"
        )

    symmetric = _profile_is_symmetric(profile)
    states: list[Eigenstate] = []
    for k in range(n_states):
        e_lo, e_hi = lo, hi
        # phase 1: node-count bisection isolates eigenvalue k
        for _ in range(240):
            mid = 0.5 * (e_lo + e_hi)
            if mid == e_lo or mid == e_hi:
                break
            if _numerov_nodes(u, h, two_m, mid) >= k + 1:
                e_hi = mid
            else:
                e_lo = mid
            if e_hi - e_lo <= 1.0e-6 * max(abs(e_lo), abs(e_hi), 1.0e-12):
                break
        # match point from the bracket midpoint
        e_mid = 0.5 * (e_lo + e_hi)
        if profile.kind is DomainKind.INTERVAL:
            m_idx = (n - 1) // 2
        else:
            allowed = np.nonzero(u[1:-1] <= e_mid)[0]
            m_idx = int(allowed[-1]) + 1 if allowed.size else n // 2
        m_idx = min(max(m_idx, 2), n - 3)
        # phase 2: mismatch-sign bisection to machine precision
        w_lo, _, _ = _mismatch(u, h, two_m, e_lo, m_idx, open_right)
        w_hi, _, _ = _mismatch(u, h, two_m, e_hi, m_idx, open_right)
        if w_lo * w_hi < 0.0:
            a, b, wa = e_lo, e_hi, w_lo
            for _ in range(200):
                mid = 0.5 * (a + b)
                if mid == a or mid == b:
                    break
                wm, _, _ = _mismatch(u, h, two_m, mid, m_idx, open_right)
                if wm == 0.0:
                    a = b = mid
                    break
                if wa * wm < 0.0:
                    b = mid
                else:
                    a, wa = mid, wm
            energy = 0.5 * (a + b)
        else:
            # no sign change (e.g. splitting below resolution): fall back to
            # node bisection all the way down
            for _ in range(200):
                mid = 0.5 * (e_lo + e_hi)
                if mid == e_lo or mid == e_hi:
                    break
                if _numerov_nodes(u, h, two_m, mid) >= k + 1:
                    e_hi = mid
                else:
                    e_lo = mid
            energy = 0.5 * (e_lo + e_hi)
        _, left, right = _mismatch(u, h, two_m, energy, m_idx, open_right)
        psi = _assemble(left, right, m_idx)
        if flipped:
            psi = psi[::-1]
        states.append(_finalize(energy, psi, profile, symmetric))

    _symmetrize_degenerate_pairs(states, profile, symmetric)
    _validate_ordering(states)
    return states


def _symmetrize_degenerate_pairs(states, profile, symmetric):
    if not symmetric:
        return
    for i in range(len(states) - 1):
        a, b = states[i], states[i + 1]
        if abs(b.energy_h - a.energy_h) >= 1.0e-12:
            continue
        even_raw = a.psi + a.psi[::-1]
        if float(np.max(np.abs(even_raw))) < 1.0e-6:
            even_raw = b.psi + b.psi[::-1]
        odd_raw = a.psi - a.psi[::-1]
        if float(np.max(np.abs(odd_raw))) < 1.0e-6:
            odd_raw = b.psi - b.psi[::-1]
        states[i] = _finalize(a.energy_h, even_raw, profile, symmetric)
        states[i + 1] = _finalize(b.energy_h, odd_raw, profile, symmetric)


def _validate_ordering(states):
    for i in range(len(states) - 1):
        if states[i + 1].energy_h < states[i].energy_h - 1.0e-12:
            raise EigenSearchError("eigenvalues out of order; grid too coarse")
    for i, s in enumerate(states):
        if s.nodes == i:
            continue
        # near-degenerate pairs can carry mixed node counts; anything else
        # means the grid cannot resolve the state
        gap = min(
            abs(s.energy_h - states[j].energy_h)
            for j in (i - 1, i + 1)
            if 0 <= j < len(states)
        ) if len(states) > 1 else math.inf
        if gap > 1.0e-10 * max(1.0, abs(s.energy_h)):
            raise GridError(f"state {i} has {s.nodes} nodes; refine the grid")


def diagonalization_oracle(
    profile: PotentialProfile, m_eff: float = 1.0, n_states: int = 1
) -> list[Eigenstate]:
    """Independent check: diagonalize the central-difference Hamiltonian.

    Dirichlet conditions at both grid ends (for open half-lines the decaying
    tail is approximated by the hard truncation, adequate whenever the
    profile extends far past the state).  Requires at least 50 grid points.
    """
    if n_states < 1:
        raise DomainError("n_states must be >= 1")
    n = profile.grid_bohr.size
    if n < 50:
        raise GridError(f"oracle needs >= 50 grid points, got {n}")
    h = profile.step_bohr
    u = profile.u_hartree
    inv = 1.0 / (m_eff * h * h)
    diag = inv + u[1:-1]
    off = np.full(n - 3, -0.5 * inv)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_states - 1))
    symmetric = _profile_is_symmetric(profile)
    states = []
    for j in range(n_states):
        psi = np.zeros(n)
        psi[1:-1] = v[:, j]
        states.append(_finalize(float(w[j]), psi, profile, symmetric))
    _symmetrize_degenerate_pairs(states, profile, symmetric)
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
        return (
            2.0
            * zn**1.5
            * (1.0 - 2.0 * x / 3.0 + 2.0 * x * x / 27.0)
            * np.exp(-x / 3.0)
        )
    raise DomainError("radial forms implemented for n in {1, 2, 3}")


def bohr_radius_numeric(state: Eigenstate) -> float:
    """Most probable distance from the wall (nm): parabolic refinement of the
    grid argmax of psi^2."""
    prob = state.psi * state.psi
    i = int(np.argmax(prob))
    i = min(max(i, 1), prob.size - 2)
    y0, y1, y2 = prob[i - 1], prob[i], prob[i + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
    shift = min(max(shift, -0.5), 0.5)
    x = state.grid_bohr[i] + shift * (state.grid_bohr[1] - state.grid_bohr[0])
    return (x - state.grid_bohr[0]) * BOHR_RADIUS_NM


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
