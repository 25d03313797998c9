"""Unit tests for the application-level sweeps and force budgets.

Cross-checks used here: closed-form hydrogenic values for the zero-gap and
bare-wall limits, the finite-difference diagonalization route for spectra,
synthetic wavefunctions with known averages, and exact scaling laws for the
macroscopic force terms.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from imagewell import electrostatics as el
from imagewell import scenarios as sn
from imagewell import schrodinger as sc
from imagewell.constants import (
    BOHR_RADIUS_NM,
    ELECTRON_MASS_KG,
    EV_PER_NM_TO_N,
    HARTREE_EV,
    NEUTRON_MASS_KG,
    STANDARD_GRAVITY_MS2,
    nm_to_bohr,
)
from imagewell.errors import (
    DomainError,
    GridError,
    MaterialNotFoundError,
    TableRangeError,
)

import reference


# ---------------------------------------------------------------------------
# Materials


def test_builtin_materials_registry():
    for name in ("GaAs", "InSb", "LHe", "sAr", "Vacuum", "Metal"):
        assert sn.get_material(name).name == name
    gaas = sn.get_material("GaAs")
    assert gaas.eps == 12.9
    assert sn.carrier_mass(gaas, sn.Carrier.ELECTRON) == 0.067
    assert sn.carrier_mass(gaas, sn.Carrier.HOLE) == 0.45
    insb = sn.get_material("InSb")
    assert insb.eps == 16.8 and insb.m_electron == 0.0135
    assert sn.get_material("sAr").layer_thickness_nm == 0.345
    assert sn.get_material("Metal").eps == math.inf
    assert sn.REGISTRY_VERSION == 1


def test_material_validation():
    with pytest.raises(MaterialNotFoundError) as exc:
        sn.get_material("unobtainium")
    # the plain message, not KeyError's quoted repr of it
    assert str(exc.value).startswith("unknown material 'unobtainium'; known: [")
    with pytest.raises(DomainError):
        sn.carrier_mass(sn.get_material("LHe"), sn.Carrier.ELECTRON)
    with pytest.raises(DomainError):
        sn.Material("bad", 0.5)
    with pytest.raises(DomainError):
        sn.Material("bad", 2.0, layer_thickness_nm=0.0)


# ---------------------------------------------------------------------------
# Potential profiles


def test_halfline_profile_contact_limit():
    prof = sn.halfline_profile(1.0, 5.0, 0.0)
    u, d = prof.u_hartree, prof.grid_bohr
    assert np.allclose(u[1:], -1.0 / (4.0 * d[1:]), rtol=1e-14)
    assert u[0] == u[1]  # the wall entry repeats its neighbour
    assert prof.kind is sc.DomainKind.HALF_LINE_WALL_LEFT


def test_halfline_profile_applies_half_work_factor():
    prof = sn.halfline_profile(1.0, 1.7, 0.345)
    stack = el.DielectricStack(1.0, 1.7, el.METAL, 0.0, 0.345)
    j = 100
    d_nm = prof.grid_bohr[j] * BOHR_RADIUS_NM
    v = el.halfplane_potential_curve(stack, np.array([d_nm]), q=-1.0)[0]
    assert prof.u_hartree[j] * HARTREE_EV == pytest.approx(0.5 * (-1.0) * v, rel=1e-12)


def test_halfline_profile_validation():
    with pytest.raises(DomainError):
        sn.halfline_profile(1.0, 5.0, -0.1)


def test_interval_profile_properties():
    prof = sn.interval_profile(1.6)
    assert prof.kind is sc.DomainKind.INTERVAL
    assert np.all(np.isfinite(prof.u_hartree))
    asym = np.abs(prof.u_hartree - prof.u_hartree[::-1]) / np.abs(prof.u_hartree)
    assert np.max(asym) < 1e-11
    # interior samples follow the half-work slab potential
    stack = el.DielectricStack(el.METAL, 1.0, el.METAL, 0.0, 1.6)
    j = 1234
    z_nm = prof.grid_bohr[j] * BOHR_RADIUS_NM
    v = el.slab_potential_curve(stack, np.array([z_nm]), q=-1.0)[0]
    assert prof.u_hartree[j] * HARTREE_EV == pytest.approx(0.5 * (-1.0) * v, rel=1e-12)
    # midgap, psi(1/2) - psi(1) = -2 ln 2 makes u c = -q^2 ln 2 (measured 1 ulp off)
    mid = prof.u_hartree[prof.grid_bohr.size // 2] * prof.grid_bohr[-1]
    assert abs(mid + math.log(2.0)) <= 2.0 * math.ulp(math.log(2.0))
    # free particle: a hard box
    free = sn.interval_profile(1.0, q=0.0)
    assert np.all(free.u_hartree == 0.0)
    with pytest.raises(DomainError):
        sn.interval_profile(0.0)
    for q in (math.nan, math.inf):
        with pytest.raises(DomainError):
            sn.interval_profile(1.6, q=q)


@pytest.mark.parametrize("n_points", [10000, 4001, 4000, 101, 100, 3])
def test_interval_profile_is_an_exact_mirror(n_points):
    for q in (-1.0, 0.5):
        for gap in (0.1, 0.5, 0.9, 1.6, 4.0, 27.3, 100.0):
            u = sn.interval_profile(gap, q=q, n_points=n_points).u_hartree
            assert np.array_equal(u, u[::-1])
            # against the whole interior evaluated point by point, as before mirroring
            z = np.linspace(0.0, gap, n_points)[1:-1]
            stack = el.DielectricStack(el.METAL, 1.0, el.METAL, 0.0, gap)
            full = 0.5 * q * el.slab_potential_curve(stack, z, q=q) / HARTREE_EV
            err = np.abs(u[1:-1] / full - 1.0)
            assert np.max(err) < 1e-11
            # on the left half, x = i/(n - 1) <= 1/2, the digamma closed form is
            # the series to rounding (measured <= 2.7e-15); past it the routes'
            # own b - z0 loses up to 1.3e-13
            left = (n_points - 1) // 2
            assert np.max(err[:left]) < 1e-14
            for i in {1, (left + 1) // 2, left}:  # and the images route at three of them
                v = el.potential_slab_images(stack, z[i - 1], q=q).v
                assert abs(u[i] * HARTREE_EV / (0.5 * q * v) - 1.0) < 1e-14
            assert u[0] == u[1] and u[-1] == u[-2]  # each wall repeats its neighbour


def test_huge_charge_gives_grid_error_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: sn.interval_profile(1.0, q=1e200),
                      lambda: sn.halfline_profile(12.9, 1.0, 1.0, q=1e200)):
            with pytest.raises(GridError, match="must be finite"):
                build()


# ---------------------------------------------------------------------------
# Effective permittivity readout


def test_effective_epsilon_round_trip():
    table = sn.effective_epsilon_curve()
    assert np.all(np.diff(table.bohr_nm) > 0.0)
    assert np.all(np.diff(table.eps) < 0.0)
    for eps in (1.5, 3.0, 20.0):
        r = sc.single_wall_bohr_radius_nm(eps)
        assert abs(sn.effective_epsilon(r) - eps) < 5e-3 * eps


def test_effective_epsilon_metal_marker_and_range():
    table = sn.effective_epsilon_curve()
    assert sn.effective_epsilon(sn.METAL_ENDPOINT_BOHR_NM) == math.inf
    assert sn.effective_epsilon(sn.METAL_ENDPOINT_BOHR_NM * (1.0 + 1e-10)) == math.inf
    # between the metal endpoint and the table start the readout stays finite
    # and exceeds every tabulated value
    mid = 0.5 * (sn.METAL_ENDPOINT_BOHR_NM + table.bohr_nm[0])
    assert math.isfinite(sn.effective_epsilon(mid))
    assert sn.effective_epsilon(mid) > table.eps[0]
    for bad in (500.0, 0.1):
        with pytest.raises(TableRangeError):
            sn.effective_epsilon(bad)


# ---------------------------------------------------------------------------
# Semiconductor-vacuum-metal gap


def test_schottky_zero_gap_identity():
    # at contact the problem collapses to the scaled image ladder, so
    # E0 * eps^2 / m_eff is material independent
    target = -HARTREE_EV / 32.0
    for name in ("GaAs", "InSb"):
        material = sn.get_material(name)
        for carrier in (sn.Carrier.ELECTRON, sn.Carrier.HOLE):
            row = sn.schottky_gap_sweep(material, carrier, [0.0])[0]
            mass = sn.carrier_mass(material, carrier)
            identity = row.energies_ev[0] * material.eps**2 / mass
            assert abs(identity - target) / abs(target) < 2e-3


def test_schottky_sweep_weakens_with_gap():
    gaas = sn.get_material("GaAs")
    rows = sn.schottky_gap_sweep(
        gaas, sn.Carrier.ELECTRON, [0.0, 1.0, 3.0, 10.0, 30.0]
    )
    assert not any(r.failed for r in rows)
    e0 = [r.energies_ev[0] for r in rows]
    radii = [r.bohr_nm[0] for r in rows]
    assert all(e0[i] < e0[i + 1] for i in range(len(e0) - 1))
    assert all(abs(e0[i]) > abs(e0[i + 1]) for i in range(len(e0) - 1))
    assert all(radii[i] < radii[i + 1] for i in range(len(radii) - 1))


def test_schottky_bad_gap_flags_row_not_sweep():
    gaas = sn.get_material("GaAs")
    rows = sn.schottky_gap_sweep(gaas, sn.Carrier.ELECTRON, [1.0, -2.0])
    assert not rows[0].failed
    assert rows[1].failed and rows[1].message
    assert all(math.isnan(e) for e in rows[1].energies_ev)


def test_failed_sweep_row_keeps_one_entry_per_state():
    gaas = sn.get_material("GaAs")
    row, = sn.schottky_gap_sweep(gaas, sn.Carrier.ELECTRON, [1e300], n_states=2)
    assert row.failed
    assert len(row.energies_ev) == len(row.bohr_nm) == len(row.kinds) == 2
    assert row.kinds == (None, None)


# ---------------------------------------------------------------------------
# Noble-gas films


def test_helium_film_single_layer_band():
    row = sn.noble_film_sweep(sn.get_material("LHe"), [1])[0]
    assert 0.85 / 70.0 <= abs(row.energies_ev[0]) <= 0.85 / 50.0


def test_argon_film_layer_scan():
    rows = sn.noble_film_sweep(
        sn.get_material("sAr"), [1, 2, 4, 8, 16, 40], d_max_nm=25.0
    )
    effs = [sn.effective_epsilon(r.bohr_nm[0]) for r in rows]
    # thin films read out well above the bulk permittivity; thick films
    # approach it from above
    assert 2.78 * 0.85 <= effs[0] <= 2.78 * 1.15
    assert 1.7 <= effs[-1] <= 1.7 * 1.02
    assert all(effs[i] > effs[i + 1] for i in range(len(effs) - 1))
    # one layer keeps a sizable fraction of the bare-metal binding
    assert 0.33 <= abs(rows[0].energies_ev[0]) / 0.8503558 <= 0.5


def test_film_three_state_rows_are_ordered():
    rows = sn.noble_film_sweep(sn.get_material("sAr"), [4, 12], n_states=3)
    for r in rows:
        assert r.energies_ev[0] < r.energies_ev[1] < r.energies_ev[2] < 0.0
        assert all(k is sc.StateKind.BOUND for k in r.kinds)


def test_film_zero_layers_is_bare_metal_wall():
    row = sn.noble_film_sweep(sn.get_material("LHe"), [0])[0]
    assert abs(row.energies_ev[0] + 0.8503558) < 0.0043
    assert abs(row.bohr_nm[0] - 4.0 * BOHR_RADIUS_NM) < 0.0043


def test_film_validation():
    lhe = sn.get_material("LHe")
    with pytest.raises(DomainError):
        sn.noble_film_sweep(sn.get_material("GaAs"), [1])  # no layer thickness
    with pytest.raises(DomainError):
        sn.noble_film_sweep(lhe, [1.5])
    with pytest.raises(DomainError):
        sn.noble_film_sweep(lhe, [-1])


def test_film_layer_counts_checked_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(sc, "solve_eigenstates", lambda *a, **k: calls.append(a))
    with pytest.raises(DomainError):
        sn.noble_film_sweep(sn.get_material("LHe"), [1, 2, -1])
    assert calls == []


# ---------------------------------------------------------------------------
# Charge between two plates


def test_two_plate_bound_pair():
    spec = sn.two_plate_spectrum(1.6, 2)
    s0, s1 = spec.states
    assert s0.energy_ev < s1.energy_ev < spec.u_max_ev
    assert s0.parity is sc.Parity.EVEN and s1.parity is sc.Parity.ODD
    assert s0.kind is sc.StateKind.BOUND and s1.kind is sc.StateKind.BOUND
    oracle = sc.diagonalization_oracle(spec.profile, 1.0, 2)
    for a, b in zip(spec.states, oracle):
        assert abs(a.energy_ev - b.energy_ev) < 5e-4


def test_two_plate_splitting_shrinks_with_gap():
    splits = []
    for gap in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
        spec = sn.two_plate_spectrum(gap, 2)
        e0, e1 = spec.states[0].energy_ev, spec.states[1].energy_ev
        assert e0 < e1
        splits.append(e1 - e0)
    assert all(splits[i] >= splits[i + 1] - 1e-12 for i in range(len(splits) - 1))
    # both levels approach the isolated single-wall value from below
    far = sn.two_plate_spectrum(5.0, 2)
    assert abs(far.states[0].energy_ev + 0.8504) < 0.002


def test_two_plate_levels_do_not_depend_on_the_state_count():
    # past about 8 nm each pair's splitting falls below float resolution; the
    # mirror sectors keep one level of every pair each, so each count solves,
    # and the first k levels are the same floats whatever the count asked for
    for gap in (0.8, 1.6, 4.0, 8.0, 14.0, 20.0):
        solved = [sn.two_plate_spectrum(gap, k).states for k in (1, 2, 3, 4)]
        levels = [s.energy_h for s in solved[-1]]
        for states in solved:
            assert [s.energy_h for s in states] == levels[: len(states)]
        assert [(s.nodes, s.parity) for s in solved[-1]] == [
            (0, sc.Parity.EVEN), (1, sc.Parity.ODD), (2, sc.Parity.EVEN), (3, sc.Parity.ODD)]


def _image_shift(gap_nm, n_states, m_eff=1.0):
    """D (E_n(D; q = -1) - E_n(D; 0)) per state, in Hartree Bohr."""
    charged, bare = (sn.two_plate_spectrum(gap_nm, n_states, q=q, m_eff=m_eff).states
                     for q in (-1.0, 0.0))
    return [nm_to_bohr(gap_nm) * (a.energy_h - b.energy_h) for a, b in zip(charged, bare)]


def test_narrow_gap_levels_reach_the_box_limit_in_closed_form():
    # between two metals U(z; D) = f(z/D)/D with f(x) = (psi(x) + psi(1 - x))/4
    # + gamma/2 for unit charge, so first-order perturbation of box state n
    # (1-based) gives D (E_n - E_n^box) -> 2 int_0^1 sin^2(n pi x) f(x) dx
    # = -ln(2 pi n)/2 as D -> 0; the next order is O(m D), linear in the mass
    shifts = [_image_shift(gap, 3) for gap in (0.01, 0.02, 0.04)]
    limits = [8.0 / 3.0 * a - 2.0 * b + c / 3.0 for a, b, c in zip(*shifts)]  # quadratic at D = 0
    for n, limit in enumerate(limits, start=1):
        exact = -0.5 * math.log(2.0 * math.pi * n)
        assert abs(limit - exact) <= 1.0e-6 * abs(exact), n  # measured 4.8e-8 to 3.5e-7
    remainder = {m: (_image_shift(0.01, 1, m)[0] + 0.5 * math.log(2.0 * math.pi)) / m
                 for m in (0.5, 1.0, 2.0)}
    assert remainder[1.0] < 0.0
    for m in (0.5, 2.0):
        assert remainder[m] == pytest.approx(remainder[1.0], rel=1.0e-2), m  # measured 4.3e-3


def test_averaged_plate_plate_even_above_odd():
    for gap in (1.6, 4.0):
        spec = sn.two_plate_spectrum(gap, 2)
        avg_even = sn.averaged_plate_plate(gap, spec.states[0])
        avg_odd = sn.averaged_plate_plate(gap, spec.states[1])
        assert avg_even > avg_odd > 0.0


def _synthetic_state(gap_nm, psi_shape, n_points=2001):
    grid = np.linspace(0.0, nm_to_bohr(gap_nm), n_points)
    psi = psi_shape(grid)
    psi[0] = psi[-1] = 0.0
    psi = psi / math.sqrt(np.trapezoid(psi * psi, grid))
    return sc.Eigenstate(0.0, psi, grid, 0, sc.Parity.NONE, sc.StateKind.BOUND)


def test_averaged_plate_plate_synthetic_states():
    gap = 1.6
    center_ev = el.plate_plate_energy(el.DielectricStack(el.METAL, 1.0, el.METAL, 0.0, gap), gap / 2.0)
    mid = nm_to_bohr(gap) / 2.0
    sigma = nm_to_bohr(gap) / 100.0
    peaked = _synthetic_state(gap, lambda x: np.exp(-((x - mid) ** 2) / (2 * sigma**2)))
    assert sn.averaged_plate_plate(gap, peaked) == pytest.approx(center_ev, rel=1e-3)
    uniform = _synthetic_state(gap, np.ones_like)
    avg = sn.averaged_plate_plate(gap, uniform)
    assert 0.0 < avg < center_ev
    with pytest.raises(GridError):
        sn.averaged_plate_plate(2.0 * gap, uniform)


# ---------------------------------------------------------------------------
# Forces


def test_box_force_matches_closed_form():
    # q = 0 turns the plates into a hard box; F = -dE/dD = 2 E1 / D.  The
    # force stencil's central difference over D -+ 1e-3 D misses E ~ D^-2's
    # slope by 2 (1e-3)^2 relative: measured 2.0e-6
    m_n = NEUTRON_MASS_KG / ELECTRON_MASS_KG
    force = sn.total_force(1, 1.0, 0.0, 0.0, q=0.0, m_eff=m_n).f_binding_n
    analytic = 2.0 * reference.box_level_ev(1.0, 1, m_n) / 1.0 * EV_PER_NM_TO_N
    assert abs(force - analytic) / analytic < 1e-5


@pytest.mark.parametrize(
    "argument, value",
    [("n_states", 2.5), ("n_states", 2.0), ("n_states", 0), ("n_states", -1),
     ("state_index", 1.5), ("state_index", 1.0), ("state_index", -1)],
)
def test_state_counts_must_be_integers(argument, value):
    # a state count that is not an integer >= 1, or a state index that is not
    # an integer >= 0, raises DomainError naming it before any solve, and a
    # levitation row flags it; NumPy integers are integers
    if argument == "n_states":
        box = sn.interval_profile(1.0, q=0.0, n_points=101)
        for solver in (sc.solve_eigenstates, sc.diagonalization_oracle):
            with pytest.raises(DomainError, match="n_states must be an integer >= 1"):
                solver(box, 1.0, value)
            assert len(solver(box, 1.0, np.int64(2))) == 2
        return
    with pytest.raises(DomainError, match="state_index must be an integer >= 0"):
        sn.total_force(1, 1.0, 0.0, 0.0, state_index=value, q=0.0, n_points=101)
    (row,) = sn.levitation_curve([1.0], 1, 0.0, 0.0, state_index=value, q=0.0, n_points=101)
    assert row.failed and "state_index" in row.message and math.isnan(row.mass_kg)
    numpy_index = sn.total_force(1, 1.0, 0.0, 0.0, state_index=np.int64(1), q=0.0, n_points=101)
    assert numpy_index == sn.total_force(1, 1.0, 0.0, 0.0, state_index=1, q=0.0, n_points=101)


@pytest.mark.parametrize("value", [2.5, 2.0, 0, -1])
def test_sweep_state_counts_are_checked_before_any_row(value, monkeypatch):
    # a sweep's state count that is not an integer >= 1 raises DomainError
    # before any row's profile is built; NumPy integers are integers
    gaas, sar = sn.get_material("GaAs"), sn.get_material("sAr")
    sweeps = [
        lambda n: sn.schottky_gap_sweep(gaas, sn.Carrier.ELECTRON, [1.0], n_states=n),
        lambda n: sn.noble_film_sweep(sar, [4], n_states=n),
    ]
    real, built = sn.halfline_profile, []
    monkeypatch.setattr(sn, "halfline_profile", lambda *a, **k: built.append(a) or real(*a, **k))
    for sweep in sweeps:
        with pytest.raises(DomainError, match="n_states must be an integer >= 1"):
            sweep(value)
    assert built == []
    for sweep in sweeps:
        (row,) = sweep(np.int64(2))
        assert not row.failed and len(row.energies_ev) == 2


@pytest.mark.parametrize("value", [2.0, 2, -1, 3.5])
def test_profile_point_counts_must_be_integers(value):
    # a profile takes an integer >= 3 of points: both builders, and every
    # study built on them, raise DomainError, and sweep rows flag it
    message = "n_points must be an integer >= 3"
    builders = [
        lambda: sn.interval_profile(1.0, n_points=value),
        lambda: sn.halfline_profile(12.9, 1.0, 1.0, n_points=value),
        lambda: sn.two_plate_spectrum(1.0, n_points=value),
        lambda: sn.total_force(1, 1.0, 0.0, 0.0, n_points=value),
    ]
    for build in builders:
        with pytest.raises(DomainError, match=message):
            build()
    (row,) = sn.levitation_curve([1.0], 1, 0.0, 0.0, n_points=value)
    assert row.failed and message in row.message and math.isnan(row.mass_kg)
    (row,) = sn.schottky_gap_sweep(sn.get_material("GaAs"), sn.Carrier.ELECTRON, [1.0],
                                   n_points=value)
    assert row.failed and message in row.message
    assert sn.interval_profile(1.0, n_points=np.int64(3)).grid_bohr.size == 3


def test_casimir_and_vdw_forces():
    casimir = sn.casimir_force(1.0e-6, 10.0)
    vdw = sn.vdw_force(1.0e-19, 10.0)
    assert casimir == pytest.approx(-0.130013, rel=1e-4)
    assert vdw == pytest.approx(-5305.1648, rel=1e-6)
    # power laws and linear prefactors, exactly
    assert casimir / sn.casimir_force(1.0e-6, 20.0) == pytest.approx(16.0, rel=1e-12)
    assert vdw / sn.vdw_force(1.0e-19, 20.0) == pytest.approx(8.0, rel=1e-12)
    assert sn.casimir_force(2.0e-6, 10.0) / casimir == pytest.approx(2.0, rel=1e-12)
    assert sn.vdw_force(2.0e-19, 10.0) / vdw == pytest.approx(2.0, rel=1e-12)
    for bad in ((0.0, 10.0), (1.0e-6, 0.0), (-1.0, 10.0)):
        with pytest.raises(DomainError):
            sn.casimir_force(*bad)
        with pytest.raises(DomainError):
            sn.vdw_force(*bad)


def test_total_force_identity_and_switches():
    bd = sn.total_force(2, 1.2, 1.0e-12, 1.0e-19)
    recombined = (
        bd.n_electrons**2 * bd.f_plate_plate_n
        + bd.n_electrons * bd.f_binding_n
        + bd.f_casimir_n
        + bd.f_vdw_n
    )
    assert bd.f_total_n == recombined
    assert bd.f_casimir_n < 0.0 and bd.f_vdw_n < 0.0
    # zero area / zero Hamaker switch those channels off exactly
    off = sn.total_force(1, 1.2, 0.0, 0.0)
    assert off.f_casimir_n == 0.0 and off.f_vdw_n == 0.0
    assert off.f_total_n == off.f_plate_plate_n + off.f_binding_n
    nothing = sn.total_force(0, 1.2, 1.0e-12, 0.0)
    assert nothing.f_total_n == nothing.f_casimir_n
    with pytest.raises(DomainError):
        sn.total_force(-1, 1.2, 0.0, 0.0)
    with pytest.raises(DomainError):
        sn.total_force(1, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        sn.total_force(1, 1.2, -1.0, 0.0)


def test_compressed_regime_force_signs():
    # squeezed below the energy minimum, both electron channels push outward
    for gap in (0.4, 0.5, 0.55):
        bd = sn.total_force(1, gap, 0.0, 0.0)
        assert bd.f_binding_n > 0.0, gap
        assert bd.f_plate_plate_n > 0.0, gap


def test_neutron_levitation_reduction():
    m_n = NEUTRON_MASS_KG / ELECTRON_MASS_KG
    bd = sn.total_force(1, 1.0, 0.0, 0.0, q=0.0, m_eff=m_n)
    assert bd.f_plate_plate_n == 0.0
    assert bd.f_casimir_n == 0.0 and bd.f_vdw_n == 0.0
    mass = bd.f_total_n / STANDARD_GRAVITY_MS2
    assert abs(mass - 6.7022e-15) / 6.7022e-15 < 1e-3
    closed = reference.box_levitation_mass_kg(NEUTRON_MASS_KG, 1, 1.0)
    assert abs(mass - closed) / closed < 1e-3


def test_neutron_levitation_curve_rows():
    m_n = NEUTRON_MASS_KG / ELECTRON_MASS_KG
    rows = sn.levitation_curve([0.9, 1.0, 1.1], 1, 0.0, 0.0, q=0.0, m_eff=m_n)
    assert all(r.repulsive and r.stable and not r.failed for r in rows)
    masses = [r.mass_kg for r in rows]
    assert masses[0] > masses[1] > masses[2]
    assert abs(rows[1].mass_kg - 6.7022e-15) / 6.7022e-15 < 1e-3
    assert rows[1].breakdown.f_total_n == pytest.approx(
        rows[1].mass_kg * STANDARD_GRAVITY_MS2, rel=1e-12
    )


@pytest.mark.parametrize("q", [-1.0, 0.0])
@pytest.mark.parametrize("gap", [0.9, 1.6, 4.0])
def test_binding_force_matches_scaling_identity(gap, q):
    # between two metals U(z; D) = f(z/D)/D, so scaling the Hamiltonian
    # (Hellmann-Feynman) gives F_binding = -dE/dD = (2E - <U>)/D from one
    # spectrum; the central difference in total_force agrees to O(dd^2)
    spec = sn.two_plate_spectrum(gap, 1, q=q)
    state = spec.states[0]
    u_avg = np.trapezoid(state.psi**2 * spec.profile.u_hartree, state.grid_bohr) * HARTREE_EV
    identity = (2.0 * state.energy_ev - u_avg) / gap * EV_PER_NM_TO_N
    assert sn.total_force(1, gap, 0.0, 0.0, q=q).f_binding_n == pytest.approx(identity, rel=1e-5)


@pytest.mark.parametrize("gap, m_eff", [(1.6, 2.0), (1.6, 0.5), (0.9, 3.0), (2.5, 0.7),
                                         (4.0, 1.3)])
def test_levels_scale_with_mass_and_gap(gap, m_eff):
    # U(z; D) = f(z/D)/D makes H(D, m) = H(mD, 1) x m, and on a grid of fixed
    # point count the profile is f(x_i)/c at the same x_i: E(D, m) = m E(mD, 1)
    # to rounding, exactly for a power of two (measured <= 3.4e-16)
    levels = [s.energy_h for s in sn.two_plate_spectrum(gap, 2, m_eff=m_eff, n_points=2001).states]
    scaled = [m_eff * s.energy_h
              for s in sn.two_plate_spectrum(m_eff * gap, 2, n_points=2001).states]
    if math.frexp(m_eff)[0] == 0.5:
        assert levels == scaled
    for level, other in zip(levels, scaled):
        assert abs(level - other) <= 1e-15 * abs(level)


def test_levitation_rows_share_three_spectra(monkeypatch):
    gaps = [1.0, 3.0]  # n = 1, q = -1: unstable at 1 nm, stable at 3 nm
    calls = []
    real = sn.two_plate_spectrum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(sn, "two_plate_spectrum", counted)
    rows = sn.levitation_curve(gaps, 1, 0.0, 0.0)
    assert len(calls) == 3 * len(gaps)
    assert [r.stable for r in rows] == [False, True]
    # the stencil's slope against the nested first difference of f_total
    # (step 2d), which shares no spectrum with it: measured 2.65e-4 and
    # 8.80e-6 apart, relative
    for row, gap, rel in zip(rows, gaps, (3.4e-4, 1.1e-5)):
        d = 1.0e-3 * gap
        assert not row.failed
        assert row.breakdown == sn.total_force(1, gap, 0.0, 0.0)
        nested = (
            sn.total_force(1, gap + d, 0.0, 0.0).f_total_n
            - sn.total_force(1, gap - d, 0.0, 0.0).f_total_n
        ) / (2.0 * d)
        assert row.stable == (nested < 0.0) == (row.breakdown.slope_n_per_nm < 0.0)
        assert abs(row.breakdown.slope_n_per_nm - nested) <= rel * abs(nested)


def test_levitation_rows_reach_the_budget_through_total_force(monkeypatch):
    # the 1e-300 nm gap is flagged inside total_force: its step squared underflows
    gaps = [1.0, 1.0e-300]
    calls, budgets = [], []
    real = sn.total_force

    def counted(*args, **kwargs):
        calls.append(args[1])
        budgets.append(real(*args, **kwargs))
        return budgets[-1]

    monkeypatch.setattr(sn, "total_force", counted)
    rows = sn.levitation_curve(gaps, 1, 0.0, 0.0, q=0.0, n_points=101)
    assert calls == gaps
    assert not rows[0].failed and rows[0].breakdown is budgets[0]
    assert rows[1].failed and "force step" in rows[1].message


def test_force_stencil_outer_spectra_start_warm(monkeypatch):
    # the centre of each row is solved cold, and only its predicted levels
    # seed that row's outer spectra, which then spend two counts past the
    # window's and a short Newton.  Measured: README levitate (a q = 0 box,
    # mass 1833.27) 3 counts and 3 passes per outer spectrum, the q = -1 row
    # at 1 nm 3 and 2; a cold solve takes 4 and 6, and 8 and 9
    spectra = []
    real = sn.two_plate_spectrum

    def recorded(*args, **kwargs):
        spectrum = real(*args, **kwargs)
        spectra.append((kwargs.get("guesses"), spectrum.states[0]))
        return spectrum

    monkeypatch.setattr(sn, "two_plate_spectrum", recorded)
    for gaps, q, m_eff in (([0.9, 1.0, 1.1], 0.0, 1833.27), ([1.0], -1.0, 1.0)):
        spectra.clear()
        rows = sn.levitation_curve(gaps, 1, 0.0, 0.0, q=q, m_eff=m_eff)
        assert not any(r.failed for r in rows) and len(spectra) == 3 * len(gaps)
        for centre, *outer in zip(spectra[0::3], spectra[1::3], spectra[2::3]):
            assert centre[0] is None
            for guesses, state in outer:
                assert len(guesses) == 1
                assert state.count_calls <= 3 and state.newton_passes <= 4


def test_force_budget_rejects_bad_delta_before_solving(monkeypatch):
    calls = []
    real = sn.two_plate_spectrum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(sn, "two_plate_spectrum", counted)
    for delta in (0.0, -1.0e-3, 1.0, math.nan):
        with pytest.raises(DomainError):
            sn.total_force(1, 1.0, 0.0, 0.0, delta_frac=delta)
    assert calls == []


def test_force_budget_rejects_nonfinite_area_or_hamaker_before_solving(monkeypatch):
    calls = []
    real = sn.two_plate_spectrum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(sn, "two_plate_spectrum", counted)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            sn.total_force(1, 1.0, bad, 0.0)
        with pytest.raises(DomainError):
            sn.total_force(1, 1.0, 0.0, bad)
        row = sn.levitation_curve([1.0], 1, bad, 0.0)[0]
        assert row.failed and math.isnan(row.mass_kg) and "area" in row.message
    assert calls == []


def test_force_budget_rejects_nonfinite_electron_count(monkeypatch):
    monkeypatch.setattr(sn, "two_plate_spectrum", None)  # never reached
    for bad in (math.nan, math.inf, 10**400):
        with pytest.raises(DomainError):
            sn.total_force(bad, 1.0, 0.0, 0.0)
        row = sn.levitation_curve([1.0], bad, 0.0, 0.0)[0]
        assert row.failed and math.isnan(row.mass_kg) and "n_electrons" in row.message


def test_levitation_bad_delta_flags_row():
    rows = sn.levitation_curve([1.0], 1, 0.0, 0.0, delta_frac=0.0)
    assert len(rows) == 1
    assert rows[0].failed and "delta_frac" in rows[0].message
    assert math.isnan(rows[0].mass_kg)


def test_levitation_attractive_rows_are_flagged_not_failed():
    # pure Casimir pull: never repulsive, so no mass balances it
    rows = sn.levitation_curve([3.0], 0, 1.0e-6, 0.0)
    assert len(rows) == 1
    assert not rows[0].failed
    assert not rows[0].repulsive
    assert math.isnan(rows[0].mass_kg)
    assert rows[0].breakdown.f_total_n < 0.0


def test_levitation_bad_gap_flags_row():
    rows = sn.levitation_curve([1.0, -1.0], 0, 1.0e-6, 0.0)
    assert not rows[0].failed
    assert rows[1].failed and math.isnan(rows[1].mass_kg)


def test_sweep_row_replace_keeps_shape():
    row = sn.schottky_gap_sweep(sn.get_material("GaAs"), sn.Carrier.ELECTRON, [1.0])[0]
    marked = dataclasses.replace(row, failed=True, message="synthetic")
    assert marked.energies_ev == row.energies_ev and marked.failed


# ---------------------------------------------------------------------------
# Eigenvalue search: work and recorded energies


def test_two_state_solve_work(monkeypatch):
    rows = []
    count_nodes = sc._count_nodes

    def counted(u, *args):
        rows.append(u.size - 2)
        return count_nodes(u, *args)

    monkeypatch.setattr(sc, "_count_nodes", counted)
    for n_states in (1, 2, 3):
        rows.clear()
        states = sn.two_plate_spectrum(1.6, n_states).states
        # past the window's count of the whole 3999-row matrix, every count
        # runs over one half of the 4001-point mirror: at most 2000 rows
        assert rows[0] == 3999 and max(rows[1:]) <= 2000
        # the counts stop once they isolate a level (the 1e-6 bracket took
        # about 30 per state), and Newton on det T(E) needs no pass at the
        # bracket ends.  Measured: 12, 14 and 14 counts; 5, 11 and 16 passes
        assert sum(s.count_calls for s in states) <= 12 * n_states
        assert sum(s.newton_passes for s in states) <= 6 * n_states
    # state 1, the odd half's level 0, starts from the even half's highest
    # count of 0, and state 2, the even half's level 1, from state 0's
    # counts: each costs at most two counts more (measured 2 and 0)
    assert states[1].count_calls <= 2 and states[2].count_calls <= 2


def test_half_line_row_work():
    # a Schottky row: the count brackets the level to 1e-6 with a wall at the
    # truncation end, the decaying tail's det T(E) takes one pass at either
    # bracket end, and Newton polishes the level on the tail (GaAs at 1 nm)
    # or on that wall (at 5 nm).  Measured: 24 counts and 4 passes at 5 nm,
    # 25 and 5 at 1 nm
    gaas = sn.get_material("GaAs")
    m_eff = sn.carrier_mass(gaas, sn.Carrier.ELECTRON)
    for gap, walled in ((5.0, True), (1.0, False)):
        prof = sn.halfline_profile(gaas.eps, 1.0, gap, m_eff=m_eff)
        state = sc.solve_eigenstates(prof, m_eff)[0]
        assert (state.psi[-1] == 0.0) == walled
        assert state.count_calls <= 25 and state.newton_passes <= 5
        if not walled:  # the tail's decay over the last step
            kappa = math.sqrt(2.0 * m_eff * (prof.u_hartree[-1] - state.energy_h))
            decay = math.exp(-kappa * prof.step_bohr)
            assert state.psi[-1] / state.psi[-2] == pytest.approx(decay, rel=1e-12)


# Energies (eV) recorded from the summed-form residual; each lies within 3e-14
# relative of a 45-digit Sturm bisection of the same float profile (GaAs at
# 5 nm with a wall at its truncation end).  They must hold to 1e-12 relative.
# An intended numeric change (fourth order at the singular walls, ROADMAP F)
# re-records them.
RECORDED_PLATES_EV = {
    0.8: (-1.2101363808005048, -0.14404117410363826, 2.521508834017041),
    1.6: (-0.9225124499169122, -0.8326034404724524, -0.07523811341061214),
    4.0: (-0.8522074435608495, -0.8521987206324659, -0.2611136364733779),
}


def test_recorded_energies_hold():
    for gap, recorded in RECORDED_PLATES_EV.items():
        energies = [s.energy_ev for s in sn.two_plate_spectrum(gap, 3).states]
        assert energies == pytest.approx(recorded, rel=1e-12, abs=0.0)
    box = sn.two_plate_spectrum(1.6, 1, q=0.0).states[0].energy_ev
    assert box == pytest.approx(0.1468867822720606, rel=1e-12, abs=0.0)
    # GaAs at a 5 nm gap closes its open end with a wall (ROADMAP H')
    gaas = sn.schottky_gap_sweep(sn.get_material("GaAs"), sn.Carrier.ELECTRON, [5.0])[0]
    assert gaas.energies_ev[0] == pytest.approx(-8.819349329010305e-05, rel=1e-12, abs=0.0)
    film = sn.noble_film_sweep(sn.get_material("sAr"), [3], d_max_nm=25)[0]
    assert film.energies_ev[0] == pytest.approx(-0.2103954033533839, rel=1e-12, abs=0.0)
