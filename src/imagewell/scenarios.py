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

import math
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
from .errors import DomainError, GridError, ImagewellError, MaterialNotFoundError, TableRangeError

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
        if self.layer_thickness_nm is not None and not self.layer_thickness_nm > 0.0:
            raise DomainError(f"{self.name}: layer thickness must be positive")


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


def builtin_materials() -> dict[str, Material]:
    return dict(_MATERIALS)


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
    default at max(20 x expected Bohr radius of the highest requested state,
    10 x gap).  The potential is evaluated off the wall only; the wall entry
    repeats its neighbour.  A zero gap collapses exactly to the bare metal wall.
    """
    if gap_nm < 0.0:
        raise DomainError("gap must be >= 0")
    if d_max_nm is None:
        scales = [
            sc.hydrogenic_bohr_radius_nm(
                sc.single_wall_params(math.inf, eps_host, m_eff, n_states)
            )
        ]
        if gap_nm > 0.0 and eps_slab > eps_host:  # attractive film interface
            scales.append(
                sc.hydrogenic_bohr_radius_nm(
                    sc.single_wall_params(eps_slab, eps_host, m_eff, n_states)
                )
            )
        d_max_nm = max(20.0 * max(scales), 10.0 * gap_nm)
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
    ``gap_nm`` apart (walls at both ends, each repeating its neighbour).  The
    left half of the grid is evaluated off the wall and mirrored, so the
    profile equals its mirror float for float."""
    if gap_nm <= 0.0:
        raise DomainError("gap must be > 0")
    stack = el.DielectricStack.double_metal(gap_nm)
    grid_nm = np.linspace(0.0, gap_nm, n_points)
    if q == 0.0:
        u_ev = np.zeros_like(grid_nm)
    else:
        z_nm = grid_nm[1 : (n_points + 1) // 2]  # the left half, off the wall
        with np.errstate(over="ignore"):  # PotentialProfile rejects what overflows
            half = 0.5 * q * el.slab_potential_curve(stack, z_nm, q=q)
        half = np.concatenate((half[:1], half))
        u_ev = np.concatenate((half, half[: n_points // 2][::-1]))
    return sc.PotentialProfile(
        nm_to_bohr(grid_nm), u_ev / HARTREE_EV, sc.DomainKind.INTERVAL
    )


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepRow:
    gap_nm: float
    layers: int | None
    energies_ev: tuple[float, ...]
    bohr_nm: tuple[float, ...]
    kinds: tuple[sc.StateKind, ...]
    failed: bool = False
    message: str = ""


def _halfline_rows(eps_host, eps_slab, m_eff, q, cases, n_states, n_points, d_max_nm):
    """Solve one half-line row per ``(gap_nm, layers)`` case; a row whose
    profile or spectrum fails is flagged with NaN values, not dropped."""
    rows = []
    for gap, layers in cases:
        try:
            profile = halfline_profile(
                eps_host, eps_slab, gap, m_eff=m_eff, q=q,
                n_states=n_states, n_points=n_points, d_max_nm=d_max_nm,
            )
            states = sc.solve_eigenstates(profile, m_eff=m_eff, n_states=n_states)
            energies = tuple(s.energy_ev for s in states)
            radii = tuple(sc.bohr_radius_numeric(s) for s in states)
            rows.append(SweepRow(gap, layers, energies, radii, tuple(s.kind for s in states)))
        except ImagewellError as exc:
            nan = (math.nan,) * n_states
            rows.append(SweepRow(gap, layers, nan, nan, (), failed=True, message=str(exc)))
    return rows


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
    layers x layer thickness."""
    if film.layer_thickness_nm is None:
        raise DomainError(f"{film.name} has no layer thickness")
    layers = list(layers)
    if any(n < 0 or int(n) != n for n in layers):
        raise DomainError("layer counts must be non-negative integers")
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


def effective_epsilon_curve(eps_samples=None) -> EffectiveEpsilonTable:
    """Closed-form reference table radius(eps) for the single-wall analogue
    (electron in vacuum, unit mass)."""
    if eps_samples is None:
        eps_samples = 1.0 + np.geomspace(1.0e-3, 1.0e4, 2001)
    eps = np.asarray(eps_samples, float)
    if eps.ndim != 1 or eps.size < 2:
        raise DomainError("need at least two eps samples")
    if np.any(eps <= 1.0) or np.any(np.diff(eps) <= 0.0):
        raise DomainError("eps samples must be > 1 and strictly increasing")
    bohr = np.array(
        [
            sc.hydrogenic_bohr_radius_nm(sc.single_wall_params(float(e)))
            for e in eps
        ]
    )
    # ascending radius <-> descending eps
    return EffectiveEpsilonTable(bohr[::-1], eps[::-1])


def effective_epsilon(bohr_nm: float, table: EffectiveEpsilonTable) -> float:
    """Wall permittivity whose single-wall ground state has the given Bohr
    radius (monotone piecewise-linear inverse of the table).

    At the metal endpoint radius the metal marker ``inf`` is returned;
    between the metal endpoint and the densest tabulated entry the lookup
    interpolates in 1/eps toward the endpoint.  Radii outside
    [metal endpoint x 0.98, largest tabulated radius] are refused.
    """
    lo = METAL_ENDPOINT_BOHR_NM
    if bohr_nm < 0.98 * lo:
        raise TableRangeError(
            f"radius {bohr_nm} nm below the metal endpoint {lo} nm"
        )
    if bohr_nm <= lo * (1.0 + 1.0e-9):
        return math.inf
    b, e = table.bohr_nm, table.eps
    if bohr_nm > b[-1]:
        raise TableRangeError(
            f"radius {bohr_nm} nm beyond tabulated range (max {b[-1]} nm)"
        )
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
) -> TwoPlateSpectrum:
    """Eigenstates of a charge between two metal plates, classified against
    the midgap barrier top U_max."""
    profile = interval_profile(gap_nm, q=q, n_points=n_points)
    states = sc.solve_eigenstates(profile, m_eff=m_eff, n_states=n_states)
    u_max_ev = profile.classification_reference() * HARTREE_EV
    return TwoPlateSpectrum(gap_nm, tuple(states), u_max_ev, profile)


@dataclass(frozen=True, eq=False)
class EnergyCurve:
    gaps_nm: np.ndarray
    energies_ev: np.ndarray
    state_index: int


@dataclass(frozen=True, eq=False)
class ForceCurve:
    gaps_nm: np.ndarray
    forces_n: np.ndarray
    state_index: int


def energy_vs_gap(
    gaps_nm,
    state_index: int = 0,
    q: float = -1.0,
    m_eff: float = 1.0,
    n_points: int = 4001,
) -> EnergyCurve:
    gaps = np.asarray(list(gaps_nm), dtype=float)
    if gaps.size < 3 or np.any(np.diff(gaps) <= 0.0):
        raise DomainError("need at least 3 strictly increasing gaps")
    energies = np.empty_like(gaps)
    for i, d in enumerate(gaps):
        spec = two_plate_spectrum(float(d), state_index + 1, q=q, m_eff=m_eff, n_points=n_points)
        energies[i] = spec.states[state_index].energy_ev
    return EnergyCurve(gaps, energies, state_index)


def force_from_energy(curve: EnergyCurve) -> ForceCurve:
    """F = -dE/dD by central differences (one-sided at the ends), in N."""
    if curve.gaps_nm.size < 3:
        raise DomainError("need at least 3 points to differentiate")
    dedd = np.gradient(curve.energies_ev, curve.gaps_nm)
    return ForceCurve(curve.gaps_nm, -dedd * EV_PER_NM_TO_N, curve.state_index)


def averaged_plate_plate(
    gap_nm: float, state: sc.Eigenstate, q: float = -1.0
) -> float:
    """Expectation of the cross-plate image-image energy over a state's
    probability density (trapezoidal; the pinned-to-zero wavefunction
    suppresses the guarded wall region)."""
    grid = state.grid_bohr
    span_nm = (grid[-1] - grid[0]) * BOHR_RADIUS_NM
    if abs(span_nm - gap_nm) > 1.0e-6 * gap_nm:
        raise GridError(
            f"state grid spans {span_nm} nm but gap is {gap_nm} nm"
        )
    stack = el.DielectricStack.double_metal(gap_nm)
    z_nm = (grid[1:-1] - grid[0]) * BOHR_RADIUS_NM
    u_pp = el.plate_plate_curve(stack, z_nm, q=q)
    integrand = np.zeros_like(grid)
    integrand[1:-1] = state.psi[1:-1] ** 2 * u_pp
    return float(np.trapezoid(integrand, grid))


def casimir_force(area_m2: float, gap_nm: float) -> float:
    """Casimir attraction between ideal plates: -hbar c pi^2 A / (240 D^4)."""
    if not (area_m2 > 0.0 and gap_nm > 0.0):
        raise DomainError("need area > 0 and gap > 0")
    d = gap_nm * 1.0e-9
    return -HBAR_JS * SPEED_OF_LIGHT_MS * math.pi**2 * area_m2 / (240.0 * d**4)


def vdw_force(hamaker_j: float, gap_nm: float) -> float:
    """Van der Waals attraction per Hamaker model: -H / (6 pi D^3)."""
    if not (hamaker_j > 0.0 and gap_nm > 0.0):
        raise DomainError("need hamaker > 0 and gap > 0")
    d = gap_nm * 1.0e-9
    return -hamaker_j / (6.0 * math.pi * d**3)


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


def _energy_and_pp(gap_nm, state_index, q, m_eff, n_points):
    spec = two_plate_spectrum(gap_nm, state_index + 1, q=q, m_eff=m_eff, n_points=n_points)
    state = spec.states[state_index]
    return state.energy_ev, averaged_plate_plate(gap_nm, state, q=q)


def _force_budget(
    n_electrons, gap_nm, area_m2, hamaker_j, state_index, q, m_eff, n_points, delta_frac
):
    """The force budget at one gap and its slope dF_total/dD, both from the
    spectra at gap - dd, gap and gap + dd (first and second central
    differences; the Casimir and van der Waals terms are closed forms)."""
    # NaN fails the chained test; past 2**53 floats cannot tell integers apart
    if not 0 <= n_electrons < 2**53 or int(n_electrons) != n_electrons:
        raise DomainError("n_electrons must be an integer in [0, 2**53)")
    if gap_nm <= 0.0 or not (0.0 <= area_m2 < math.inf and 0.0 <= hamaker_j < math.inf):
        raise DomainError("need gap > 0, and area and hamaker finite and >= 0")
    if not 0.0 < delta_frac < 1.0:
        raise DomainError(f"delta_frac must lie in (0, 1), got {delta_frac}")
    dd = delta_frac * gap_nm
    g_lo, g_hi = gap_nm - dd, gap_nm + dd
    e_lo, u_lo = _energy_and_pp(g_lo, state_index, q, m_eff, n_points)
    e_mid, u_mid = _energy_and_pp(gap_nm, state_index, q, m_eff, n_points)
    e_hi, u_hi = _energy_and_pp(g_hi, state_index, q, m_eff, n_points)
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
        n, area_m2, hamaker_j,
    ), slope


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
    """Compose the plate force budget at one gap: N^2 x image-image
    repulsion + N x binding force + Casimir + van der Waals.  A zero area
    or Hamaker constant switches the corresponding attraction off (the
    standalone force functions still require positive inputs).

    All N charges are assumed to occupy the selected state; exclusion is
    deliberately not modeled.
    """
    return _force_budget(
        n_electrons, gap_nm, area_m2, hamaker_j, state_index, q, m_eff, n_points, delta_frac
    )[0]


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
    that give the row's forces."""
    rows = []
    for gap in gaps_nm:
        gap = float(gap)
        try:
            center, dforce = _force_budget(
                n_electrons, gap, area_m2, hamaker_j, state_index, q, m_eff, n_points, delta_frac
            )
            repulsive = center.f_total_n > 0.0
            mass = center.f_total_n / STANDARD_GRAVITY_MS2 if repulsive else math.nan
            rows.append(
                LevitationRow(gap, mass, repulsive, bool(dforce < 0.0), center)
            )
        except ImagewellError as exc:
            nanb = ForceBreakdown(
                gap, math.nan, math.nan, math.nan, math.nan, math.nan,
                math.nan, math.nan, n_electrons, area_m2, hamaker_j,
            )
            rows.append(
                LevitationRow(gap, math.nan, False, False, nanb, True, str(exc))
            )
    return rows
