"""Acceptance suite: one test per numbered release criterion.

Each test emits exactly one pass/fail line under ``pytest -v`` and encodes the
criterion's stated tolerance; randomized families use fixed seeds so reruns
are bit-identical.
"""

import math
import time

import numpy as np
import pytest

from imagewell import electrostatics as el
from imagewell import scenarios as sn
from imagewell import schrodinger as sc
from imagewell.constants import (
    BOHR_RADIUS_NM,
    ELECTRON_MASS_KG,
    HARTREE_EV,
    NEUTRON_MASS_KG,
    nm_to_bohr,
)

import reference


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def test_criterion_01_three_route_equivalence_on_random_stacks():
    # 500 random stacks: permittivities from [1, 100] with a 25% chance of a
    # metal half-space on either side, gaps log-uniform over [0.1, 100] nm,
    # charge anywhere in the interior 90% of the slab
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    worst_series_images = 0.0
    worst_any_pair = 0.0
    for _ in range(500):
        k2 = rng.uniform(1.0, 100.0)
        k1 = el.METAL if rng.random() < 0.25 else rng.uniform(1.0, 100.0)
        k3 = el.METAL if rng.random() < 0.25 else rng.uniform(1.0, 100.0)
        gap = math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
        frac = rng.uniform(0.05, 0.95)
        stack = el.DielectricStack(k1, k2, k3, 0.0, gap)
        z0 = frac * gap
        vs = el.potential_slab_series(stack, z0).v
        vi = el.potential_slab_images(stack, z0).v
        vq = el.potential_kernel_quadrature(stack, z0).v
        scale = max(abs(vs), abs(vi), abs(vq))
        worst_series_images = max(worst_series_images, abs(vs - vi) / scale)
        worst_any_pair = max(
            worst_any_pair,
            abs(vs - vi) / scale,
            abs(vs - vq) / scale,
            abs(vi - vq) / scale,
        )
    elapsed = time.perf_counter() - t0
    assert worst_series_images < 1e-10
    assert worst_any_pair < 1e-6
    assert elapsed < 60.0


def test_criterion_02_limiting_cases_match_closed_forms():
    # matched left interface: exactly one image across the right interface
    st = el.DielectricStack(3.0, 3.0, 7.0, 0.0, 2.0)
    z0 = 0.6
    single = ((3.0 - 7.0) / (3.0 + 7.0)) / (2.0 * nm_to_bohr(2.0 - z0)) / 3.0 * HARTREE_EV
    assert rel(el.potential_slab_series(st, z0).v, single) < 1e-10
    # remove the far interface: with c = 1e4 x (distance to the near wall)
    # the slab answer approaches the lone-interface image value
    near = 0.5
    st_far = el.DielectricStack(2.0, 5.0, 7.0, 0.0, 1.0e4 * near)
    lone = ((5.0 - 2.0) / (5.0 + 2.0)) / (2.0 * nm_to_bohr(near)) / 5.0 * HARTREE_EV
    assert rel(el.potential_slab_series(st_far, near).v, lone) < 1e-4


def test_criterion_03_metal_wall_ground_state_and_ladder():
    profile = sn.halfline_profile(1.0, 1.0, 0.0, n_states=3)
    states = sc.solve_eigenstates(profile, n_states=3)
    e1 = states[0].energy_ev
    assert abs(e1 / -0.8504 - 1.0) < 0.005
    assert abs(sc.bohr_radius_numeric(states[0]) / 0.2117 - 1.0) < 0.02
    for n in (2, 3):
        assert abs(states[n - 1].energy_ev / e1 * n * n - 1.0) < 0.01


def test_criterion_04_particle_in_a_box_levels():
    profile = sn.interval_profile(1.0, q=0.0)
    states = sc.solve_eigenstates(profile, n_states=5)
    for n, state in enumerate(states, start=1):
        assert abs(state.energy_ev / reference.box_level_ev(1.0, n) - 1.0) < 1e-3


def test_criterion_05_shooting_matches_diagonalization_on_random_wells():
    rng = np.random.default_rng(7)
    worst_energy = 0.0
    worst_psi = 0.0
    for _ in range(50):
        span = rng.uniform(8.0, 14.0)
        grid = np.linspace(0.0, span, 16001)
        x = (grid - span / 2.0) / (span / 4.0)
        depth = rng.uniform(0.5, 1.0)
        tilt = rng.uniform(-0.05, 0.05) * depth
        u = depth * ((x * x - 1.0) ** 2 - 1.0) + tilt * x
        profile = sc.PotentialProfile(grid, u, sc.DomainKind.INTERVAL)
        shot = sc.solve_eigenstates(profile, n_states=2)
        oracle = sc.diagonalization_oracle(profile, n_states=2)
        for s, o in zip(shot, oracle):
            worst_energy = max(
                worst_energy, abs(s.energy_h - o.energy_h) / max(abs(o.energy_h), 1e-12)
            )
            aligned = s.psi if np.dot(s.psi, o.psi) >= 0 else -s.psi
            worst_psi = max(worst_psi, np.max(np.abs(aligned - o.psi)))
    assert worst_energy < 1e-6
    assert worst_psi < 1e-4


def test_criterion_06_zero_gap_identity_for_both_semiconductors():
    target = -HARTREE_EV / 32.0  # the metal-wall ground level, -0.8504 eV
    for name in ("GaAs", "InSb"):
        material = sn.get_material(name)
        for carrier in (sn.Carrier.ELECTRON, sn.Carrier.HOLE):
            row = sn.schottky_gap_sweep(material, carrier, [0.0])[0]
            mass = sn.carrier_mass(material, carrier)
            identity = row.energies_ev[0] * material.eps**2 / mass
            assert abs(identity / target - 1.0) < 0.02, (name, carrier)


def test_criterion_07_single_helium_layer_attenuation():
    row = sn.noble_film_sweep(sn.get_material("LHe"), [1])[0]
    assert 0.85 / 70.0 <= abs(row.energies_ev[0]) <= 0.85 / 50.0


def test_criterion_08_effective_epsilon_sweep_endpoints():
    argon = sn.noble_film_sweep(
        sn.get_material("sAr"), [1, 2, 3, 4, 6, 8, 12, 16, 24, 40], d_max_nm=25.0
    )
    argon_effs = [sn.effective_epsilon(r.bohr_nm[0]) for r in argon]
    assert 2.78 * 0.85 <= argon_effs[0] <= 2.78 * 1.15
    assert 1.7 <= argon_effs[-1] <= 1.7 * 1.02
    helium = sn.noble_film_sweep(
        sn.get_material("LHe"), [1, 2, 3, 5, 8, 12, 20, 32], d_max_nm=300.0
    )
    helium_effs = [sn.effective_epsilon(r.bohr_nm[0]) for r in helium]
    assert 1.1 * 0.9 <= helium_effs[0] <= 1.1 * 1.1
    assert 1.05 <= helium_effs[-1] <= 1.05 * 1.01


def test_criterion_09_double_well_pair_splitting_and_continuity():
    spec = sn.two_plate_spectrum(1.6, 2)
    s0, s1 = spec.states
    assert s0.energy_ev < s1.energy_ev < spec.u_max_ev
    assert s0.parity is sc.Parity.EVEN and s1.parity is sc.Parity.ODD
    assert s0.kind is sc.StateKind.BOUND and s1.kind is sc.StateKind.BOUND
    splits = []
    for gap in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0):
        states = sn.two_plate_spectrum(gap, 2).states
        splits.append(states[1].energy_ev - states[0].energy_ev)
    assert all(splits[i] >= splits[i + 1] - 1e-12 for i in range(len(splits) - 1))
    # discrete continuity across the bound/box crossover: no secant slope may
    # jump an order of magnitude relative to its neighbors
    gaps = np.linspace(1.0, 5.0, 81)
    energies = np.array(
        [[s.energy_ev for s in sn.two_plate_spectrum(float(d), 2).states] for d in gaps]
    )
    step = gaps[1] - gaps[0]
    for level in (0, 1):
        slopes = np.abs(np.diff(energies[:, level])) / step
        for i in range(1, len(slopes) - 1):
            assert slopes[i] <= 5.0 * max(slopes[i - 1], slopes[i + 1]) + 1e-9, (
                level,
                gaps[i],
            )


def test_criterion_10_plate_plate_maximum_at_midgap():
    stack = el.DielectricStack(el.METAL, 1.0, el.METAL, 0.0, 0.75)
    z = np.linspace(0.075, 0.675, 241)
    u = el.plate_plate_curve(stack, z)
    step = z[1] - z[0]
    assert abs(z[np.argmax(u)] - 0.375) <= step + 1e-12
    assert np.max(np.abs(u - u[::-1]) / np.abs(u)) < 1e-8


def test_criterion_11_symmetric_state_average_exceeds_antisymmetric():
    for gap in (1.0, 1.6, 2.5, 4.0):
        states = sn.two_plate_spectrum(gap, 2).states
        avg_even = sn.averaged_plate_plate(gap, states[0])
        avg_odd = sn.averaged_plate_plate(gap, states[1])
        assert avg_even > avg_odd, gap


def test_criterion_12_neutron_levitation_mass():
    m_eff = NEUTRON_MASS_KG / ELECTRON_MASS_KG
    rows = sn.levitation_curve([1.0], 1, 0.0, 0.0, q=0.0, m_eff=m_eff)
    assert not rows[0].failed and rows[0].repulsive
    assert abs(rows[0].mass_kg / 6.7022e-15 - 1.0) < 1e-3


def test_criterion_13_force_composition_and_power_laws():
    for n_electrons, area, hamaker in [
        (0, 1.0e-6, 1.0e-19),
        (1, 0.0, 0.0),
        (2, 1.0e-12, 1.0e-19),
        (3, 1.0e-6, 0.0),
    ]:
        bd = sn.total_force(n_electrons, 1.2, area, hamaker)
        recombined = (
            bd.n_electrons**2 * bd.f_plate_plate_n
            + bd.n_electrons * bd.f_binding_n
            + bd.f_casimir_n
            + bd.f_vdw_n
        )
        assert bd.f_total_n == recombined  # exact, by construction
    assert abs(sn.casimir_force(1.0e-6, 5.0) / sn.casimir_force(1.0e-6, 10.0) - 16.0) < 1e-12
    assert abs(sn.vdw_force(1.0e-19, 5.0) / sn.vdw_force(1.0e-19, 10.0) - 8.0) < 1e-12
