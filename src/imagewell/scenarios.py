"""End-to-end studies built on the electrostatics and eigensolver cores.

Three families:

* Schottky-style vacuum gaps: a carrier inside a semiconductor half-space
  facing a metal across a vacuum gap (``schottky_gap_sweep``);
* noble-gas films: an electron in vacuum facing a metal coated with an
  integer number of dielectric monolayers (``noble_film_sweep``), with the
  effective-permittivity readout (``effective_epsilon``);
* two metal plates: an electron between parallel plates
  (``two_plate_spectrum``) with the full force budget -- binding force,
  image-image plate repulsion, Casimir and van der Waals attraction -- and
  the levitation masses that budget supports (``levitation_curve``).

Conventions: the half work factor for bringing the charge in from infinity
is applied exactly once, when a potential profile is built here; energies
in rows are eV, gaps nm, forces N, masses kg.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import electrostatics as el
from . import schrodinger as sc
from .constants import (
    BOHR_RADIUS_NM,
    EV_PER_NM_TO_N,
    HARTREE_EV,
    HBAR_JS,
    SPEED_OF_LIGHT_MS,
    STANDARD_GRAVITY_MS2,
    nm_to_bohr,
)
from .errors import (DomainError, GridError, ImagewellError, MaterialNotFoundError,
                     TableRangeError, require_count, require_finite, require_positive)

# Bumped whenever a builtin material entry changes.
REGISTRY_VERSION = 1

# Placeholder magnitude only (typical metal-metal order); not a sourced
# value -- override whenever a real Hamaker constant is known.
DEFAULT_HAMAKER_J = 1.0e-19


@dataclass(frozen=True)
class Material:
    name: str
    eps: float
    m_electron: float | None = None
    m_hole: float | None = None
    layer_thickness_nm: float | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        if self.eps != math.inf and not self.eps >= 1.0:
            raise DomainError(f"{self.name}: eps must be >= 1 or infinite")
        for name in ("m_electron", "m_hole", "layer_thickness_nm"):
            if (value := getattr(self, name)) is not None:
                require_positive(f"{self.name}: {name}", value)


class Carrier(Enum):
    ELECTRON = "electron"
    HOLE = "hole"


_MATERIALS = {
    "GaAs": Material(
        "GaAs", 12.9, m_electron=0.067, m_hole=0.45,
        notes="electron mass 0.067 (a printed 0.67 fails the zero-gap identity)",
    ),
    "InSb": Material(
        "InSb", 16.8, m_electron=0.0135, m_hole=0.6,
        notes="electron mass 0.0135 (sometimes quoted 0.013)",
    ),
    "LHe": Material(
        "LHe", 1.057, layer_thickness_nm=20.0,
        notes="liquid helium film; bulk value often rounded to 1.05",
    ),
    "sAr": Material("sAr", 1.7, layer_thickness_nm=0.345, notes="solid argon film"),
    "Vacuum": Material("Vacuum", 1.0),
    "Metal": Material("Metal", math.inf),
}


def get_material(name: str) -> Material:
    try:
        return _MATERIALS[name]
    except KeyError:
        raise MaterialNotFoundError(
            f"unknown material {name!r}; known: {sorted(_MATERIALS)}"
        ) from None


def carrier_mass(material: Material, carrier: Carrier) -> float:
    m = material.m_electron if carrier is Carrier.ELECTRON else material.m_hole
    if m is None:
        raise DomainError(f"{material.name} has no {carrier.value} mass")
    return m


# ---------------------------------------------------------------------------
# Potential profiles (the half work factor lives here and only here)


def halfline_profile(
    eps_host: float,
    eps_slab: float,
    gap_nm: float,
    m_eff: float = 1.0,
    q: float = -1.0,
    n_states: int = 1,
    n_points: int = 4001,
    d_max_nm: float | None = None,
) -> sc.PotentialProfile:
    """Potential energy of a charge in a half-space of ``eps_host`` facing a
    slab of ``eps_slab`` (thickness ``gap_nm``) backed by metal.

    The domain is the distance d from the host/slab interface, truncated by
    default at the largest of 20 x the metal wall's Bohr radius, 20 x the
    film wall's when the film attracts (gap > 0 and ``eps_slab`` >
    ``eps_host``), and 10 x gap; each radius is that of the highest
    requested state (``sc.single_wall_bohr_radius_nm``).  The potential is
    evaluated off the wall only; the wall entry repeats its neighbour.  A
    zero gap collapses exactly to the bare metal wall.
    ``n_points`` is an integer >= 3, the fewest a profile takes; a grid step
    whose square is not a normal float raises ``GridError`` before any
    potential is evaluated.
    """
    if gap_nm < 0.0:
        raise DomainError("gap must be >= 0")
    require_count("n_points", n_points, 3)
    if d_max_nm is None:
        scales = [sc.single_wall_bohr_radius_nm(math.inf, eps_host, m_eff, n_states)]
        if gap_nm > 0.0 and eps_slab > eps_host:  # attractive film interface
            scales.append(sc.single_wall_bohr_radius_nm(eps_slab, eps_host, m_eff, n_states))
        d_max_nm = max(20.0 * max(scales), 10.0 * gap_nm)
    sc.require_step(nm_to_bohr(d_max_nm / (n_points - 1)))
    grid_nm = np.linspace(0.0, d_max_nm, n_points)
    if gap_nm == 0.0:
        u_ev = q * q * (-1.0 / (4.0 * eps_host * nm_to_bohr(grid_nm[1:]))) * HARTREE_EV
    else:
        stack = el.DielectricStack(eps_host, eps_slab, el.METAL, 0.0, gap_nm)
        with np.errstate(over="ignore"):  # PotentialProfile rejects what overflows
            u_ev = 0.5 * q * el.halfplane_potential_curve(stack, grid_nm[1:], q=q)
    u_ev = np.concatenate((u_ev[:1], u_ev))
    return sc.PotentialProfile(
        nm_to_bohr(grid_nm), u_ev / HARTREE_EV, sc.DomainKind.HALF_LINE_WALL_LEFT
    )


def interval_profile(
    gap_nm: float,
    q: float = -1.0,
    n_points: int = 4001,
) -> sc.PotentialProfile:
    """Self-energy profile of a charge between two metal plates a distance
    ``gap_nm`` apart (walls at both ends, each repeating its neighbour).
    Between two metals the image sum is exact: U(z; D) = f(z/D)/D with
    f(x) = q^2 [1/4 (psi(x) + psi(1 - x)) + gamma/2] (Abramowitz & Stegun
    6.3.16), evaluated at x = i/(n - 1) on the left half of the grid, off
    the wall, and mirrored, so the profile equals its mirror float for
    float.  ``gap_nm`` is finite and > 0, ``q`` finite, ``n_points`` an
    integer >= 3, the fewest a profile takes; a grid step whose square is not
    a normal float raises ``GridError`` before any potential is evaluated."""
    require_positive("gap_nm", gap_nm)
    require_finite("charge q", lambda: q)
    require_count("n_points", n_points, 3)
    sc.require_step(nm_to_bohr(gap_nm / (n_points - 1)))
    if q == 0.0:
        u = np.zeros(n_points)
    else:
        x = np.arange(1, (n_points + 1) // 2) / (n_points - 1)  # the left half, off the wall
        with np.errstate(over="ignore"):  # PotentialProfile rejects what overflows
            half = 0.5 * q * q * el._two_metal_self(0, x, 1.0 - x) / nm_to_bohr(gap_nm)
        half = np.concatenate((half[:1], half))
        u = np.concatenate((half, half[: n_points // 2][::-1]))
    return sc.PotentialProfile(
        nm_to_bohr(np.linspace(0.0, gap_nm, n_points)), u, sc.DomainKind.INTERVAL
    )


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepRow:
    gap_nm: float
    layers: int | None
    energies_ev: tuple[float, ...]
    bohr_nm: tuple[float, ...]
    kinds: tuple[sc.StateKind | None, ...]  # None where the row failed
    failed: bool = False
    message: str = ""


def _each_flagged(cases, solve, fill):
    """One row per case: ``solve(case)``, or ``fill(case, message)`` where
    that raises an ImagewellError.  Returns the rows and the (index,
    message) of each filled one: a failed row is flagged, not dropped."""
    rows, failed = [], []
    for case in cases:
        try:
            rows.append(solve(case))
        except ImagewellError as exc:
            failed.append((len(rows), str(exc)))
            rows.append(fill(case, str(exc)))
    return rows, failed


def _halfline_rows(eps_host, eps_slab, m_eff, q, cases, n_states, n_points, d_max_nm):
    """Solve one half-line row per ``(gap_nm, layers)`` case; a failed row
    has NaN values and None kinds.  An ``n_states`` that is not an integer
    >= 1 raises ``DomainError`` before any row."""
    require_count("n_states", n_states, 1)

    def solve(case):
        profile = halfline_profile(
            eps_host, eps_slab, case[0], m_eff=m_eff, q=q,
            n_states=n_states, n_points=n_points, d_max_nm=d_max_nm,
        )
        states = sc.solve_eigenstates(profile, m_eff=m_eff, n_states=n_states)
        energies = tuple(s.energy_ev for s in states)
        radii = tuple(sc.bohr_radius_numeric(s) for s in states)
        return SweepRow(*case, energies, radii, tuple(s.kind for s in states))

    nan = (math.nan,) * n_states
    fill = lambda case, message: SweepRow(  # noqa: E731
        *case, nan, nan, (None,) * n_states, failed=True, message=message)
    return _each_flagged(cases, solve, fill)[0]


def schottky_gap_sweep(
    semiconductor: Material,
    carrier: Carrier,
    gaps_nm,
    n_states: int = 1,
    n_points: int = 4001,
    d_max_nm: float | None = None,
) -> list[SweepRow]:
    """Carrier bound inside a semiconductor by the image attraction of a
    metal across a vacuum gap, for each gap width (0 means no gap: the bare
    metal-wall limit).  Failed rows are flagged, not dropped."""
    m_eff = carrier_mass(semiconductor, carrier)
    q = -1.0 if carrier is Carrier.ELECTRON else 1.0
    cases = [(float(gap), None) for gap in gaps_nm]
    return _halfline_rows(semiconductor.eps, 1.0, m_eff, q, cases, n_states, n_points, d_max_nm)


def noble_film_sweep(
    film: Material,
    layers,
    n_states: int = 1,
    n_points: int = 4001,
    d_max_nm: float | None = None,
) -> list[SweepRow]:
    """Electron in vacuum facing a metal coated with an integer number of
    film monolayers; each row solves the half-line problem at gap =
    layers x layer thickness.  A layer count that is not an integer >= 0
    raises ``DomainError`` before any row."""
    if film.layer_thickness_nm is None:
        raise DomainError(f"{film.name} has no layer thickness")
    layers = list(layers)
    for n in layers:
        require_count("layer count", n, 0)
    cases = [(n * film.layer_thickness_nm, int(n)) for n in layers]
    return _halfline_rows(1.0, film.eps, 1.0, -1.0, cases, n_states, n_points, d_max_nm)


# ---------------------------------------------------------------------------
# Effective permittivity readout


METAL_ENDPOINT_BOHR_NM = 4.0 * BOHR_RADIUS_NM


@dataclass(frozen=True, eq=False)
class EffectiveEpsilonTable:
    """Ground-state Bohr radius vs wall permittivity for an electron in
    vacuum facing a single dielectric wall, sorted by ascending radius."""

    bohr_nm: np.ndarray
    eps: np.ndarray

    def __post_init__(self) -> None:
        b = np.ascontiguousarray(np.asarray(self.bohr_nm, dtype=float))
        e = np.ascontiguousarray(np.asarray(self.eps, dtype=float))
        b.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "bohr_nm", b)
        object.__setattr__(self, "eps", e)


@functools.cache
def effective_epsilon_curve() -> EffectiveEpsilonTable:
    """Closed-form reference table radius(eps) for the single-wall analogue
    (electron in vacuum, unit mass), at 2001 permittivities 1 + 1e-3 to 1 +
    1e4, geometrically spaced.  Built once; every call returns that table."""
    eps = 1.0 + np.geomspace(1.0e-3, 1.0e4, 2001)
    bohr = np.array([sc.single_wall_bohr_radius_nm(float(e)) for e in eps])
    # ascending radius <-> descending eps
    return EffectiveEpsilonTable(bohr[::-1], eps[::-1])


def effective_epsilon(bohr_nm: float) -> float:
    """Wall permittivity whose single-wall ground state has the given Bohr
    radius (monotone piecewise-linear inverse of ``effective_epsilon_curve``).

    At the metal endpoint radius the metal marker ``inf`` is returned;
    between the metal endpoint and the densest tabulated entry the lookup
    interpolates in 1/eps toward the endpoint.  Radii outside
    [metal endpoint x 0.98, largest tabulated radius], and NaN, raise
    ``TableRangeError``.
    """
    lo = METAL_ENDPOINT_BOHR_NM
    table = effective_epsilon_curve()
    b, e = table.bohr_nm, table.eps
    if not 0.98 * lo <= bohr_nm <= b[-1]:
        raise TableRangeError(
            f"radius {bohr_nm} nm outside the table's [{0.98 * lo}, {b[-1]}] nm"
        )
    if bohr_nm <= lo * (1.0 + 1.0e-9):
        return math.inf
    if bohr_nm < b[0]:
        # toward the metal endpoint: linear in 1/eps, which hits 0 at lo
        w = (1.0 / e[0]) * (bohr_nm - lo) / (b[0] - lo)
        return 1.0 / w
    return float(np.interp(bohr_nm, b, e))


# ---------------------------------------------------------------------------
# Two metal plates


@dataclass(frozen=True, eq=False)
class TwoPlateSpectrum:
    gap_nm: float
    states: tuple[sc.Eigenstate, ...]
    u_max_ev: float
    profile: sc.PotentialProfile


def two_plate_spectrum(
    gap_nm: float,
    n_states: int = 2,
    q: float = -1.0,
    m_eff: float = 1.0,
    n_points: int = 4001,
    guesses=None,
) -> TwoPlateSpectrum:
    """Eigenstates of a charge between two metal plates, classified against
    the midgap barrier top U_max.  ``guesses`` (Hartree, one per state, or
    None) go to ``solve_eigenstates``."""
    profile = interval_profile(gap_nm, q=q, n_points=n_points)
    states = sc.solve_eigenstates(profile, m_eff=m_eff, n_states=n_states, guesses=guesses)
    u_max_ev = profile.classification_reference() * HARTREE_EV
    return TwoPlateSpectrum(gap_nm, tuple(states), u_max_ev, profile)


def averaged_plate_plate(
    gap_nm: float, state: sc.Eigenstate, q: float = -1.0
) -> float:
    """Expectation of the cross-plate image-image energy over a state's
    probability density (trapezoidal), from the exact two-metal sum at
    x = z/D of every interior grid point."""
    require_positive("gap_nm", gap_nm)
    q2 = require_finite("q^2", lambda: q * q)
    grid = state.grid_bohr
    c = grid[-1] - grid[0]
    if abs(c * BOHR_RADIUS_NM - gap_nm) > 1.0e-6 * gap_nm:
        raise GridError(
            f"state grid spans {c * BOHR_RADIUS_NM} nm but gap is {gap_nm} nm"
        )
    u_pp = q2 * (el._two_metal_cross((grid[1:-1] - grid[0]) / c) / c) * HARTREE_EV
    integrand = np.zeros_like(grid)
    integrand[1:-1] = state.psi[1:-1] ** 2 * u_pp
    return float(np.trapezoid(integrand, grid))


def casimir_force(area_m2: float, gap_nm: float) -> float:
    """Casimir attraction between ideal plates: -hbar c pi^2 A / (240 D^4).
    ``area_m2`` and ``gap_nm`` are finite and > 0, and the force a finite
    float (``DomainError`` otherwise: D^4 overflows past a gap of about
    1e86 nm and underflows below one of about 2e-72 nm)."""
    require_positive("area_m2", area_m2)
    require_positive("gap_nm", gap_nm)
    d = gap_nm * 1.0e-9
    return require_finite("Casimir force", lambda: (
        -HBAR_JS * SPEED_OF_LIGHT_MS * math.pi**2 * area_m2 / (240.0 * d**4)))


def vdw_force(hamaker_j: float, gap_nm: float) -> float:
    """Van der Waals attraction per Hamaker model: -H / (6 pi D^3), a
    pressure in N/m^2, not a force: ``total_force`` adds it to the forces
    in N without the plate area (``casimir_force`` does take the area).
    ``hamaker_j`` and ``gap_nm`` are finite and > 0, and the force a finite
    float (``DomainError`` otherwise: D^3 overflows past a gap of about
    6e111 nm and underflows below one of about 2e-99 nm)."""
    require_positive("hamaker_j", hamaker_j)
    require_positive("gap_nm", gap_nm)
    d = gap_nm * 1.0e-9
    return require_finite("van der Waals force", lambda: -hamaker_j / (6.0 * math.pi * d**3))


@dataclass(frozen=True)
class ForceBreakdown:
    gap_nm: float
    e_binding_ev: float
    u_plate_plate_ev: float
    f_binding_n: float
    f_plate_plate_n: float
    f_casimir_n: float
    f_vdw_n: float
    f_total_n: float
    n_electrons: int
    area_m2: float
    hamaker_j: float
    slope_n_per_nm: float


def _energy_and_pp(gap_nm, state_index, q, m_eff, n_points, guesses=None):
    spec = two_plate_spectrum(gap_nm, state_index + 1, q=q, m_eff=m_eff, n_points=n_points,
                              guesses=guesses)
    state = spec.states[state_index]
    return spec, state.energy_ev, averaged_plate_plate(gap_nm, state, q=q)


def total_force(
    n_electrons: int,
    gap_nm: float,
    area_m2: float,
    hamaker_j: float,
    state_index: int = 0,
    q: float = -1.0,
    m_eff: float = 1.0,
    n_points: int = 4001,
    delta_frac: float = 1.0e-3,
) -> ForceBreakdown:
    """The plate force budget at one gap, N^2 x image-image repulsion + N x
    binding force + Casimir + van der Waals, and its slope dF_total/dD
    (``slope_n_per_nm``).  A zero area or Hamaker constant switches that
    attraction off (the standalone force functions still require positive
    inputs).  All N charges occupy the selected state; exclusion is
    deliberately not modeled.

    Both come from the spectra at gap - dd, gap and gap + dd (first and
    second central differences; the Casimir and van der Waals terms are
    closed forms).  The centre is solved first.  Between two metals
    U(z; D) = f(z/D)/D, so each level moves as dE/dD = (<U> - 2E)/D
    (Hellmann-Feynman; Feynman, Phys. Rev. 56, 340 (1939)), <U> = sum psi^2 u
    / sum psi^2 over the centre state and its profile; the outer spectra
    start from the levels E -+ (<U> - 2E)/D dd that this predicts.  The step
    dd = ``delta_frac`` x gap must leave gap - dd, gap and gap + dd three
    distinct floats and dd^2 a normal float (``DomainError`` otherwise,
    before any spectrum is solved)."""
    require_count("n_electrons", n_electrons, 0)
    if not n_electrons < 2**53:  # past 2**53 floats cannot tell integers apart
        raise DomainError("n_electrons must be below 2**53")
    require_positive("gap_nm", gap_nm)
    if not (0.0 <= area_m2 < math.inf and 0.0 <= hamaker_j < math.inf):
        raise DomainError("area and hamaker must be finite and >= 0")
    if not 0.0 < delta_frac < 1.0:
        raise DomainError(f"delta_frac must lie in (0, 1), got {delta_frac}")
    require_count("state_index", state_index, 0)
    dd = delta_frac * gap_nm
    g_lo, g_hi = gap_nm - dd, gap_nm + dd
    if not (g_lo < gap_nm < g_hi and sys.float_info.min <= dd * dd < math.inf):
        raise DomainError(f"force step {dd:.3g} nm at a {gap_nm:.3g} nm gap: gap -+ step "
                          "are not three distinct floats, or step^2 is not a normal float")
    centre, e_mid, u_mid = _energy_and_pp(gap_nm, state_index, q, m_eff, n_points)
    u = centre.profile.u_hartree
    levels = np.array([s.energy_h for s in centre.states])
    mean_u = np.array([np.dot(s.psi**2, u) / np.dot(s.psi, s.psi) for s in centre.states])
    move = (mean_u - 2.0 * levels) / gap_nm * dd
    _, e_lo, u_lo = _energy_and_pp(g_lo, state_index, q, m_eff, n_points, levels - move)
    _, e_hi, u_hi = _energy_and_pp(g_hi, state_index, q, m_eff, n_points, levels + move)
    f_binding = -(e_hi - e_lo) / (2.0 * dd) * EV_PER_NM_TO_N
    f_pp = -(u_hi - u_lo) / (2.0 * dd) * EV_PER_NM_TO_N
    f_cas = casimir_force(area_m2, gap_nm) if area_m2 > 0.0 else 0.0
    f_vdw = vdw_force(hamaker_j, gap_nm) if hamaker_j > 0.0 else 0.0
    n = int(n_electrons)
    f_total = n * n * f_pp + n * f_binding + f_cas + f_vdw
    curvature = n * n * (u_hi - 2.0 * u_mid + u_lo) + n * (e_hi - 2.0 * e_mid + e_lo)
    slope = -curvature / (dd * dd) * EV_PER_NM_TO_N
    if area_m2 > 0.0:
        slope += (casimir_force(area_m2, g_hi) - casimir_force(area_m2, g_lo)) / (2.0 * dd)
    if hamaker_j > 0.0:
        slope += (vdw_force(hamaker_j, g_hi) - vdw_force(hamaker_j, g_lo)) / (2.0 * dd)
    return ForceBreakdown(
        gap_nm, e_mid, u_mid, f_binding, f_pp, f_cas, f_vdw, f_total,
        n, area_m2, hamaker_j, slope,
    )


@dataclass(frozen=True)
class LevitationRow:
    gap_nm: float
    mass_kg: float
    repulsive: bool
    stable: bool
    breakdown: ForceBreakdown
    failed: bool = False
    message: str = ""


def levitation_curve(
    gaps_nm,
    n_electrons: int,
    area_m2: float,
    hamaker_j: float,
    state_index: int = 0,
    q: float = -1.0,
    m_eff: float = 1.0,
    n_points: int = 4001,
    delta_frac: float = 1.0e-3,
) -> list[LevitationRow]:
    """Levitated mass M(D) = F_total(D)/g wherever the net force is
    repulsive; attractive rows are flagged with a NaN mass.  Stability is
    the sign of dF_total/dD (restoring if the force grows on compression),
    taken by the second central difference over the same three spectra
    that give the row's forces (``slope_n_per_nm``)."""
    def solve(gap):
        b = total_force(
            n_electrons, gap, area_m2, hamaker_j, state_index, q, m_eff, n_points, delta_frac
        )
        repulsive = b.f_total_n > 0.0
        mass = b.f_total_n / STANDARD_GRAVITY_MS2 if repulsive else math.nan
        return LevitationRow(gap, mass, repulsive, bool(b.slope_n_per_nm < 0.0), b)

    def fill(gap, message):
        nanb = ForceBreakdown(gap, *(math.nan,) * 7, n_electrons, area_m2, hamaker_j, math.nan)
        return LevitationRow(gap, math.nan, False, False, nanb, True, message)

    return _each_flagged(map(float, gaps_nm), solve, fill)[0]
