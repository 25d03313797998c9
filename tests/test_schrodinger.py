"""Unit tests for the one-dimensional eigenproblem solvers.

The shooting solver is checked against closed forms (hard box, image-charge
wall ladder) and against the independent finite-difference diagonalization
route; the finite-difference route itself is checked for second-order grid
convergence toward the analytic box levels.
"""

import math
import warnings

import numpy as np
import pytest

from imagewell import scenarios as sn
from imagewell import schrodinger as sc
from imagewell.constants import BOHR_RADIUS_NM, HARTREE_EV
from imagewell.errors import DomainError, EigenSearchError, GridError

import reference
from bisection import bisect


def box_profile(length_bohr, n_points):
    grid = np.linspace(0.0, length_bohr, n_points)
    return sc.PotentialProfile(grid, np.zeros_like(grid), sc.DomainKind.INTERVAL)


def metal_wall_profile(n_states=3, n_points=4001):
    """u = -1/(4d) on a half line, truncated far beyond the highest state
    and sampled half a grid step inside the wall."""
    d_max = 20.0 * 4.0 * n_states**2
    grid = np.linspace(0.0, d_max, n_points)
    d = grid.copy()
    d[0] = 0.5 * (grid[1] - grid[0])
    return sc.PotentialProfile(grid, -1.0 / (4.0 * d), sc.DomainKind.HALF_LINE_WALL_LEFT)


# ---------------------------------------------------------------------------
# Hard box


def test_box_levels_nodes_parity():
    length = 30.0
    prof = box_profile(length, 2001)
    states = sc.solve_eigenstates(prof, n_states=5)
    for n, s in enumerate(states, start=1):
        exact = n * n * math.pi**2 / (2.0 * length * length)
        assert abs(s.energy_h / exact - 1.0) < 1e-8
        assert s.nodes == n - 1
        assert s.parity is (sc.Parity.EVEN if n % 2 == 1 else sc.Parity.ODD)
        assert s.kind is sc.StateKind.BOX
        assert s.energy_ev == pytest.approx(s.energy_h * HARTREE_EV, rel=1e-15)
        assert type(s.energy_h) is float  # a numpy scalar would print True for true


def test_box_states_are_orthonormal():
    prof = box_profile(30.0, 2001)
    states = sc.solve_eigenstates(prof, n_states=5)
    grid = prof.grid_bohr
    for i in range(5):
        for j in range(5):
            overlap = np.trapezoid(states[i].psi * states[j].psi, grid)
            assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-6


def test_box_energy_scales_inversely_with_mass():
    prof = box_profile(30.0, 1001)
    e1 = sc.solve_eigenstates(prof, m_eff=1.0)[0].energy_h
    e2 = sc.solve_eigenstates(prof, m_eff=2.0)[0].energy_h
    assert e2 == pytest.approx(0.5 * e1, rel=1e-9)


# ---------------------------------------------------------------------------
# Image-charge wall ladder


def test_metal_wall_ladder():
    states = sc.solve_eigenstates(metal_wall_profile(), n_states=3)
    for n, s in enumerate(states, start=1):
        exact_ev = -0.5 * 0.25**2 / (n * n) * HARTREE_EV
        assert abs(s.energy_ev / exact_ev - 1.0) < 5e-3
        assert s.kind is sc.StateKind.BOUND
    assert abs(states[0].energy_ev / -0.850360 - 1.0) < 2e-3


def test_metal_wall_most_probable_distance():
    state = sc.solve_eigenstates(metal_wall_profile(), n_states=1)[0]
    assert abs(sc.bohr_radius_numeric(state) / (4.0 * BOHR_RADIUS_NM) - 1.0) < 0.01


def test_metal_wall_two_routes_agree():
    prof = metal_wall_profile()
    shot = sc.solve_eigenstates(prof, n_states=3)
    orc = sc.diagonalization_oracle(prof, n_states=3)
    for s, o in zip(shot, orc):
        # independent algorithms of different discretization order: near the
        # sampled singularity they agree to the grid's own accuracy
        assert abs(s.energy_h - o.energy_h) / abs(s.energy_h) < 2e-3


@pytest.mark.parametrize(
    "kind, center", [(sc.DomainKind.HALF_LINE_WALL_LEFT, 10.0)], ids=["wall_left"]
)
def test_harmonic_well_through_rescaled_passes(kind, center, monkeypatch):
    # the tail of u = (x - 10)^2 / 2 spans about e^1250 between the well and
    # the open end at 60 bohr, so the kept pass from that end rescales
    grid = np.linspace(0.0, 60.0, 6001)
    prof = sc.PotentialProfile(grid, 0.5 * (grid - center) ** 2, kind)
    exponents = []
    residual = sc._residual

    def evaluated(*args):
        out = residual(*args)
        exponents.append(out[2])
        return out

    monkeypatch.setattr(sc, "_residual", evaluated)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        states = sc.solve_eigenstates(prof, n_states=3)
    for n, s in enumerate(states):
        assert abs(s.energy_h - (n + 0.5)) < 1e-8
        assert s.nodes == n
    assert min(exponents) > 1000  # every pass went through the blocks
    # the rescaled passes carry det T(E) and its slope by the same power of
    # two, so Newton takes a step as on an unscaled pass.  Measured: an open
    # end's 1e-6 count bracket takes 73 counts for the 3 states (33, 20 and
    # 20, the window's on state 0), and each state one pass at either end of
    # it and two Newton steps
    assert sum(s.count_calls for s in states) <= 25 * len(states)
    assert all(s.newton_passes <= 4 for s in states)


def test_half_line_pass_whose_slope_overflows_is_silent():
    # on a 10 nm LHe film's half line of 1001 points, the third level's first
    # det T(E) pass is finite but its slope's right-hand side overflows: that
    # pass is redone in blocks, without a RuntimeWarning
    prof = sn.halfline_profile(1.0, 1.057, 10.0, n_states=3, n_points=1001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        states = sc.solve_eigenstates(prof, n_states=3)
    assert [s.nodes for s in states] == [0, 1, 2]


def test_well_centred_in_an_interval_returns_every_state_asked():
    # the window's first top, the centre's u = 0 plus 50 quanta of the 60
    # bohr box, lies below level 0.5 of u = (x - 30)^2 / 2: it doubles until
    # the count holds every state asked for.  T(E) has no more levels than
    # rows, and asking for more is an error before any count
    grid = np.linspace(0.0, 60.0, 6001)
    prof = sc.PotentialProfile(grid, 0.5 * (grid - 30.0) ** 2, sc.DomainKind.INTERVAL)
    states = sc.solve_eigenstates(prof, n_states=3)
    assert [s.energy_h for s in states] == pytest.approx([0.5, 1.5, 2.5], rel=1e-9, abs=0.0)
    assert [(s.nodes, s.parity) for s in states] == [
        (0, sc.Parity.EVEN), (1, sc.Parity.ODD), (2, sc.Parity.EVEN)]
    assert len(sc.solve_eigenstates(box_profile(30.0, 5), n_states=3)) == 3
    with pytest.raises(EigenSearchError, match="4 states asked of a matrix of 3 rows"):
        sc.solve_eigenstates(box_profile(30.0, 5), n_states=4)


# ---------------------------------------------------------------------------
# Shooting vs diagonalization on a generic asymmetric double well


def test_double_well_routes_agree():
    length = 10.0
    grid = np.linspace(0.0, length, 16001)
    x = (grid - length / 2.0) / (length / 4.0)
    u = 0.8 * ((x * x - 1.0) ** 2 - 1.0) + 0.02 * x
    prof = sc.PotentialProfile(grid, u, sc.DomainKind.INTERVAL)
    shot = sc.solve_eigenstates(prof, n_states=2)
    orc = sc.diagonalization_oracle(prof, n_states=2)
    assert shot[0].nodes == 0 and shot[1].nodes == 1
    assert shot[0].energy_h < shot[1].energy_h
    for s, o in zip(shot, orc):
        assert abs(s.energy_h - o.energy_h) / abs(o.energy_h) < 1e-6
        aligned = s.psi if np.dot(s.psi, o.psi) >= 0 else -s.psi
        assert np.max(np.abs(aligned - o.psi)) < 1e-4


def quartic_well(height, n_points=4001, tilt=0.0):
    """u = height ((x^2 - 1)^2 - 1) + tilt x, x = (z - 6)/2, on 12 Bohr: two
    wells at z = 4 and 8 Bohr, symmetric to rounding when untilted."""
    grid = np.linspace(0.0, 12.0, n_points)
    x = (grid - 6.0) / 2.0
    return grid, height * ((x * x - 1.0) ** 2 - 1.0) + tilt * x


def test_tilted_double_well_routes_agree():
    # each state sits in one well; state 1's lobe in the far one is 9.2e-9
    # of its peak, under a 1e-8 psi cut: its one node is the count's
    grid, u = quartic_well(50.0, n_points=10001, tilt=0.01)
    prof = sc.PotentialProfile(grid, u, sc.DomainKind.INTERVAL)
    shot = sc.solve_eigenstates(prof, n_states=4)
    orc = sc.diagonalization_oracle(prof, n_states=4)
    assert [s.nodes for s in shot] == [0, 1, 2, 3]
    assert all(s.parity is sc.Parity.NONE for s in shot)
    for s, o in zip(shot, orc):
        assert abs(s.energy_h - o.energy_h) / abs(o.energy_h) < 1e-6


def test_oracle_labels_state_j_with_j_nodes():
    # the oscillation theorem for the oracle's matrix, not a count of psi's
    # signs: state 1's far lobe (9.2e-9 of its peak) read as no node under
    # the 1e-8 cut that count used, on either grid
    for n_points in (4001, 10001):
        grid, u = quartic_well(50.0, n_points=n_points, tilt=0.01)
        prof = sc.PotentialProfile(grid, u, sc.DomainKind.INTERVAL)
        orc = sc.diagonalization_oracle(prof, n_states=4)
        assert [(o.nodes, o.parity) for o in orc] == [(j, sc.Parity.NONE) for j in range(4)]


def test_symmetric_double_well_parity_pair():
    labels = list(zip(range(4), [sc.Parity.EVEN, sc.Parity.ODD] * 2))
    grid, u = quartic_well(2.5)
    states = sc.solve_eigenstates(sc.PotentialProfile(grid, u, sc.DomainKind.INTERVAL), n_states=2)
    assert states[0].energy_h < states[1].energy_h
    assert [(s.nodes, s.parity) for s in states] == labels[:2]
    # deep wells: at H = 100 symmetric to 6.4e-12 Hartree but not float for
    # float, so solved as its exact mirror; at H = 90 an exact mirror whose
    # lowest pair is 4.1e-12 Hartree (5e-14 relative) apart, inside the
    # 1e-13 polish, so its odd level may round below the even one
    u90 = quartic_well(90.0)[1]
    for v in (quartic_well(100.0)[1], 0.5 * (u90 + u90[::-1])):
        prof = sc.PotentialProfile(grid, v, sc.DomainKind.INTERVAL)
        states = sc.solve_eigenstates(prof, n_states=4)
        assert [(s.nodes, s.parity) for s in states] == labels


@pytest.mark.parametrize("asymmetry, parities", [
    (1.0e-7, [sc.Parity.NONE] * 2), (1.0e-10, [sc.Parity.EVEN, sc.Parity.ODD])])
def test_mirror_tolerance_decides_the_parity_labels(asymmetry, parities):
    # a cosine well of scale 1 whose odd part |u - u[::-1]|/2 is at most
    # ``asymmetry``: past the 1e-9 mirror tolerance it is solved whole, within
    # it as its mirror's halves, and the oracle reads parity only off a mirror
    grid = np.linspace(0.0, 10.0, 1001)
    x = (grid - 5.0) / 5.0
    prof = sc.PotentialProfile(grid, asymmetry * x - np.cos(math.pi * x), sc.DomainKind.INTERVAL)
    for solve in (sc.solve_eigenstates, sc.diagonalization_oracle):
        assert [s.parity for s in solve(prof, n_states=2)] == parities


def test_oracle_labels_a_degenerate_mirror_pair_even_and_odd():
    # at depth 800 the exact mirror's lowest pairs are degenerate in the
    # oracle (equal to the last bit here), whose eigenvectors may then sit in
    # either well; re-symmetrised they are even and odd, as shooting's halves
    grid, u = quartic_well(800.0, n_points=2001)
    prof = sc.PotentialProfile(grid, 0.5 * (u + u[::-1]), sc.DomainKind.INTERVAL)
    orc = sc.diagonalization_oracle(prof, n_states=4)
    shot = sc.solve_eigenstates(prof, n_states=4)
    assert abs(orc[1].energy_h - orc[0].energy_h) < 1.0e-12
    labels = list(zip(range(4), [sc.Parity.EVEN, sc.Parity.ODD] * 2))
    assert [(o.nodes, o.parity) for o in orc] == [(s.nodes, s.parity) for s in shot] == labels


def test_oracle_grid_convergence_is_second_order():
    length = 30.0
    exact = math.pi**2 / (2.0 * length * length)
    errors = []
    for n_points in (501, 1001, 2001):
        e = sc.diagonalization_oracle(box_profile(length, n_points))[0].energy_h
        errors.append(abs(e - exact))
    assert errors[0] > errors[1] > errors[2]
    assert 3.5 < errors[0] / errors[1] < 4.5
    assert 3.5 < errors[1] / errors[2] < 4.5


def test_bisect_stops_at_width_zero_or_float_resolution():
    # no float squares to exactly 2, so only width and resolution stop these
    lo, hi = bisect(lambda e: e * e - 2.0, 1.0, 2.0, 1.0e-6)
    assert lo * lo < 2.0 < hi * hi and hi - lo <= 1.0e-6 * hi
    lo, hi = bisect(lambda e: e * e - 2.0, 1.0, 2.0, 0.0)
    assert lo * lo < 2.0 < hi * hi and np.nextafter(lo, 2.0) == hi
    # an exact zero of the predicate ends the search at that point
    assert bisect(lambda e: e - 0.25, 0.0, 1.0, 0.0) == (0.25, 0.25)


def test_newton_stops_at_float_resolution_or_at_a_zero():
    calls = []

    def f(e):
        calls.append(e)
        return e * e - 2.0, 2.0 * e

    root = sc._newton(f, 1.0, 2.0, True, 1.5, 1.0e-13)
    assert abs(root - math.sqrt(2.0)) <= 1.0e-13 * root
    assert len(calls) <= 5  # quadratic, where bisection would take 43
    # at rtol 0 it stops only once a step no longer moves the iterate
    calls.clear()
    root = sc._newton(f, 1.0, 2.0, True, 1.5, 0.0)
    assert abs(root - math.sqrt(2.0)) <= math.ulp(root) and len(calls) <= 8
    # falling, and started from a bracket end: Newton's first step on
    # tan 1 - tan e goes from 0 to 1.56, past the bracket, so it bisects
    # instead
    calls.clear()

    def g(e):
        calls.append(e)
        return math.tan(1.0) - math.tan(e), -1.0 / math.cos(e) ** 2

    root = sc._newton(g, 0.0, 1.4, False, 0.0, 1.0e-13)
    assert abs(root - 1.0) <= 1.0e-13
    assert calls[:2] == [0.0, 0.7] and len(calls) <= 8
    # an exact zero ends the search at that point, at once
    calls.clear()
    assert sc._newton(lambda e: (calls.append(e) or e - 0.25, 1.0), 0.0, 1.0, True, 0.25, 0.0) == 0.25
    assert calls == [0.25]


def node_pass_sign_changes(u, h, two_m, e):
    """Sign changes among psi[1..] of Numerov's recurrence from psi(0) = 0,
    marched row by row in plain Python and rescaled as it grows: a reference
    that shares no code with the solver."""
    t = (h * h / 12.0 * two_m * (u - e)).tolist()
    prev, cur, changes = 0.0, 1.0, 0
    for i in range(1, len(t) - 1):
        nxt = ((2.0 + 10.0 * t[i]) * cur - (1.0 - t[i - 1]) * prev) / (1.0 - t[i + 1])
        changes += nxt * cur < 0.0
        prev, cur = cur, nxt
        if abs(cur) > 1.0e150:
            prev, cur = prev / abs(cur), cur / abs(cur)
    return changes


def test_sturm_count_equals_node_pass_sign_changes():
    gaas = sn.get_material("GaAs")
    m_gaas = sn.carrier_mass(gaas, sn.Carrier.ELECTRON)
    cases = (  # profile, mass, states, energies probed besides those around the roots
        (box_profile(30.0, 1001), 1.0, 8, np.linspace(-0.01, 0.3, 41)),
        (sn.interval_profile(1.6, n_points=1001), 1.0, 4, []),
        (sn.halfline_profile(gaas.eps, 1.0, 1.0, m_eff=m_gaas, n_states=3), m_gaas, 3, []),
    )
    for prof, m_eff, n_states, extra in cases:
        u, h = prof.u_hartree, prof.step_bohr
        roots = np.array([s.energy_h for s in sc.solve_eigenstates(prof, m_eff, n_states)])
        energies = np.concatenate((extra, roots * (1.0 - 1e-6), roots * (1.0 + 1e-6),
                                   0.5 * (roots[1:] + roots[:-1])))
        seen = set()
        for e in energies:
            assert np.min(np.abs(roots - e)) >= 1e-9 * abs(e)
            count = sc._count_nodes(u, h, 2.0 * m_eff, e)
            assert count == node_pass_sign_changes(u, h, 2.0 * m_eff, e)
            seen.add(count)
        assert seen >= set(range(n_states + 1))
    # one interior point still counts (counted directly: LAPACK's wrapper rejects one entry)
    assert [sc._count_nodes(np.zeros(3), 0.1, 2.0, e) for e in (-1.0, 1.0e3)] == [0, 1]


def test_states_report_their_own_work(monkeypatch):
    # every count and det T(E) pass of a solve is charged to exactly one
    # state, the window's counts to state 0: on a mirror, an asymmetric
    # interval, a half line and a warm-started mirror
    made = [0, 0]
    count_nodes, residual = sc._count_nodes, sc._residual

    def counted(*args):
        made[0] += 1
        return count_nodes(*args)

    def evaluated(*args):
        made[1] += 1
        return residual(*args)

    monkeypatch.setattr(sc, "_count_nodes", counted)
    monkeypatch.setattr(sc, "_residual", evaluated)
    mirror = sn.interval_profile(1.6, n_points=1001)
    grid = np.linspace(0.0, 10.0, 1001)
    tilted = sc.PotentialProfile(grid, 0.3 * grid - 0.1 * np.sin(grid), sc.DomainKind.INTERVAL)
    gaas = sn.get_material("GaAs")
    m_gaas = sn.carrier_mass(gaas, sn.Carrier.ELECTRON)
    half_line = sn.halfline_profile(gaas.eps, 1.0, 1.0, m_eff=m_gaas, n_states=2)
    levels = [s.energy_h for s in sc.solve_eigenstates(mirror, n_states=3)]
    for profile, m_eff, guesses in ((mirror, 1.0, None), (tilted, 1.0, None),
                                    (half_line, m_gaas, None), (mirror, 1.0, levels)):
        work = {}
        for n_states in (1, 2, 3):
            made[:] = [0, 0]
            states = sc.solve_eigenstates(profile, m_eff, n_states,
                                          guesses and guesses[:n_states])
            assert [sum(s.count_calls for s in states),
                    sum(s.newton_passes for s in states)] == made
            assert all(s.newton_passes >= 1 for s in states)
            work[n_states] = [(s.count_calls, s.newton_passes) for s in states]
        # the window's top is the same for up to 4 states, so a state's work
        # does not depend on how many states follow it
        assert work[3][:2] == work[2] and work[2][:1] == work[1]
    for state in sc.diagonalization_oracle(mirror, 1.0, 2):
        assert (state.count_calls, state.newton_passes) == (0, 0)


def test_bad_guesses_return_the_cold_states():
    # off a mirror a neighbouring level is a root of the same det T(E), so
    # Newton may start at a guess only once clamped into the bracket that
    # the counts certified; on an asymmetric interval and a half line, every
    # bad guess (a neighbour, +-50 %, zero, outside the window, None, NaN,
    # inf) costs work but returns the cold states
    grid = np.linspace(0.0, 10.0, 1001)
    tilted = sc.PotentialProfile(grid, 0.3 * grid - 0.1 * np.sin(grid), sc.DomainKind.INTERVAL)
    gaas = sn.get_material("GaAs")
    m_gaas = sn.carrier_mass(gaas, sn.Carrier.ELECTRON)
    half_line = sn.halfline_profile(gaas.eps, 1.0, 1.0, m_eff=m_gaas, n_states=3)
    for profile, m_eff in ((tilted, 1.0), (half_line, m_gaas)):
        cold = sc.solve_eigenstates(profile, m_eff, 3)
        levels = [s.energy_h for s in cold]
        for guesses in (levels[1:] + levels[:1], levels[-1:] + levels[:-1],
                        [1.5 * e for e in levels], [0.5 * e for e in levels], [0.0] * 3,
                        [1.0e6, -1.0e6, 1.0e300], [None] * 3, [math.nan] * 3,
                        [math.inf, -math.inf, None]):
            warm = sc.solve_eigenstates(profile, m_eff, 3, guesses)
            assert [(s.nodes, s.parity) for s in warm] == [(s.nodes, s.parity) for s in cold]
            for w, c in zip(warm, cold):
                assert abs(w.energy_h - c.energy_h) <= 2.0 * sc._POLISH * abs(c.energy_h)
    with pytest.raises(DomainError, match="2 guesses given for 3 states"):
        sc.solve_eigenstates(tilted, 1.0, 3, levels[:2])


def test_guesses_that_miss_the_hunt_start_newton_near_the_level():
    # a guess off by more than the 1e-4 hunt leaves the bracket end it
    # missed next to the level, so Newton starts there and takes 3-4 passes
    # (a cold solve 4-6); from a wide bracket's midpoint it took up to 30
    for q in (0.0, -1.0):
        profile = sn.interval_profile(0.8, q=q, n_points=1001)
        levels = [s.energy_h for s in sc.solve_eigenstates(profile, 1.0, 3)]
        for miss in (-3.0e-3, -3.0e-4, 3.0e-4, 3.0e-3):
            warm = sc.solve_eigenstates(profile, 1.0, 3, [e * (1.0 + miss) for e in levels])
            assert [s.nodes for s in warm] == [0, 1, 2]
            assert all(s.newton_passes <= 4 for s in warm)


def test_count_guards_raise_typed_errors(monkeypatch):
    # a barrier too high for the grid step: 1 - t <= 0 inside it
    grid = np.linspace(0.0, 10.0, 51)
    u = np.where(np.abs(grid - 5.0) < 1.0, 1.0e4, 0.0)
    with pytest.raises(GridError, match="too coarse"):
        sc.solve_eigenstates(sc.PotentialProfile(grid, u, sc.DomainKind.INTERVAL))
    h = grid[1]
    for barrier in (6.0 / (h * h), 1.0e4):  # 1 - t exactly zero, then negative
        with pytest.raises(GridError, match="too coarse"):
            sc._count_nodes(np.full(51, barrier), h, 2.0, 0.0)
    monkeypatch.setattr(sc, "dgtsv", lambda dl, d, du, b: (dl, d, du, b, 1))  # a zero pivot
    with pytest.raises(EigenSearchError, match="dgtsv info 1"):
        sc.solve_eigenstates(box_profile(30.0, 101))
    monkeypatch.setattr(sc, "dpttrf", lambda d, e, **kw: (d, e, -2))
    with pytest.raises(EigenSearchError, match="dpttrf info -2"):
        sc.solve_eigenstates(box_profile(30.0, 101))


def test_shooting_needs_four_points(monkeypatch):
    # 4 points, h = 1: Numerov's z-form tridiag(-1, 12/(1 + E/6) - 10, -1) on
    # the two interior points first has a zero eigenvalue at E = 6/11
    for kind in sc.DomainKind:
        state, = sc.solve_eigenstates(sc.PotentialProfile(np.arange(4.0), np.zeros(4), kind))
        assert state.energy_h == pytest.approx(6.0 / 11.0, rel=1e-12) and state.nodes == 0
    # 3 points leave the odd half of a mirror no row: refused before any count
    monkeypatch.setattr(sc, "_count_nodes", None)
    for kind in sc.DomainKind:
        with pytest.raises(GridError, match="at least 4 grid points, got 3"):
            sc.solve_eigenstates(sc.PotentialProfile(np.arange(3.0), np.zeros(3), kind))


def test_residual_changes_sign_where_the_count_steps():
    # r(E) is det T(E) of the closed matrix the count factors: its sign is
    # (-1)^count, so it flips across each count step isolated to 1e-9 (the
    # count itself rounds to about 1e-11 here).  On an asymmetric interval,
    # the four closures of mirror halves (odd and even n), and a half line
    # short enough that its decaying tail moves the levels (by 2e-8 and 4e-3)
    grid = np.linspace(0.0, 10.0, 2001)
    x = (grid - 5.0) / 2.5
    well = 0.8 * ((x * x - 1.0) ** 2 - 1.0) + 0.02 * x
    cases = [(well, grid[1], sc._WALL, 3)]
    for n_points in (1001, 1000):
        plates = sn.interval_profile(1.6, n_points=n_points)
        mirror = np.pad(plates.u_hartree[1:-1], 1, mode="edge")
        cases += [(v, plates.step_bohr, end, 3) for v, end, _ in sc._sectors(mirror)]
    d = np.linspace(0.0, 60.0, 2001)
    d[0] = 0.5 * d[1]
    cases.append((-1.0 / (4.0 * d), d[1], sc._tail, 2))  # two levels below u(60) = -1/240
    for v, h, end, levels in cases:
        def closed(e):
            return sc._count_nodes(v, h, 2.0, e, end), sc._residual(v, h, 2.0, e, end)[0]

        for k in range(levels):
            step = bisect(lambda e: closed(e)[0] - k - 0.5, -1.0, 3.0, 1e-9)
            assert [closed(e)[0] for e in step] == [k, k + 1]
            assert [closed(e)[1] < 0.0 for e in step] == [k % 2 == 1, k % 2 == 0]


def test_residual_slope_is_the_derivative_of_det():
    # the second band solve gives d det T(E)/dE, with the open end's moving
    # closure included, on unscaled passes and on passes rescaled in blocks
    # (the harmonic tail spans about e^1250); against central differences
    plates = sn.interval_profile(1.6, n_points=1001)
    mirror = np.pad(plates.u_hartree[1:-1], 1, mode="edge")
    cases = [(v, plates.step_bohr, end, -0.02) for v, end, _ in sc._sectors(mirror)]
    d = np.linspace(0.0, 60.0, 2001)
    d[0] = 0.5 * d[1]
    cases += [(-1.0 / (4.0 * d), d[1], sc._tail, e) for e in (-0.02, -0.005)]
    grid = np.linspace(0.0, 60.0, 6001)
    cases += [(0.5 * (grid - 10.0) ** 2, grid[1], end, 1.3) for end in (sc._tail, sc._WALL)]
    for v, h, end, e in cases:
        def det(x):
            return sc._residual(v, h, 2.0, x, end)

        _, slope, k = det(e)
        (up, _, k_up), (down, _, k_down) = det(e + 1e-7), det(e - 1e-7)
        central = (math.ldexp(up, k_up - k) - math.ldexp(down, k_down - k)) / 2e-7
        assert slope == pytest.approx(central, rel=1e-7)


def test_fallback_state_ends_at_the_wall_at_the_truncation_end():
    # GaAs at a 5 nm gap: the decaying-tail root lies outside the node-count
    # bracket, so the state is the one with a hard wall at d_max, polished by
    # Newton on that wall's det T(E) to 1e-13
    gaas = sn.get_material("GaAs")
    m_eff = sn.carrier_mass(gaas, sn.Carrier.ELECTRON)
    prof = sn.halfline_profile(gaas.eps, 1.0, 5.0, m_eff=m_eff)
    u, h = prof.u_hartree, prof.step_bohr
    state = sc.solve_eigenstates(prof, m_eff)[0]
    e = state.energy_h
    lo, hi = e - 1e-10 * abs(e), e + 1e-10 * abs(e)
    assert [sc._count_nodes(u, h, 2.0 * m_eff, x) for x in (lo, hi)] == [0, 1]
    tail = [sc._residual(u, h, 2.0 * m_eff, x, sc._tail)[0] for x in (lo, hi)]
    assert tail[0] * tail[1] > 0.0
    lo, hi = e - 2e-13 * abs(e), e + 2e-13 * abs(e)
    wall = [sc._residual(u, h, 2.0 * m_eff, x, sc._WALL)[0] for x in (lo, hi)]
    assert wall[0] * wall[1] < 0.0
    assert state.psi[-1] == 0.0 and state.psi[-2] > 0.0 and state.nodes == 0


def test_tiny_span_raises_grid_error():
    # h^2 below the normal floats: gaps up to about 1e-152 nm on 4001 points
    for gap in (1e-300, 1e-155, 1e-153):
        with pytest.raises(GridError, match="not a normal float"):
            sn.two_plate_spectrum(gap)
    assert sn.two_plate_spectrum(1e-150).states[0].energy_ev > 0.0
    # h^2 normal, but h^2/12 2m subnormal: a light carrier, or a tiny mass
    for gap, m_eff in ((1e-150, 1e-7), (1.0, 1e-308), (1.6, 1e-310)):
        with pytest.raises(GridError, match="not a normal float"):
            sn.two_plate_spectrum(gap, m_eff=m_eff)


# ---------------------------------------------------------------------------
# Validation


def test_profile_validation():
    good = np.linspace(0.0, 1.0, 5)
    with pytest.raises(GridError):
        sc.PotentialProfile(np.array([0.0, 1.0]), np.zeros(2), sc.DomainKind.INTERVAL)
    with pytest.raises(GridError):
        sc.PotentialProfile(np.array([0.0, 0.5, 0.4]), np.zeros(3), sc.DomainKind.INTERVAL)
    with pytest.raises(GridError):
        sc.PotentialProfile(np.array([0.0, 0.1, 1.0]), np.zeros(3), sc.DomainKind.INTERVAL)
    with pytest.raises(GridError):
        sc.PotentialProfile(good, np.full(5, math.nan), sc.DomainKind.INTERVAL)
    prof = sc.PotentialProfile(good, np.zeros(5), sc.DomainKind.INTERVAL)
    with pytest.raises(ValueError):
        prof.u_hartree[0] = 1.0  # stored arrays are read-only


def test_solver_argument_validation():
    prof = box_profile(30.0, 101)
    with pytest.raises(DomainError):
        sc.solve_eigenstates(prof, n_states=0)
    with pytest.raises(DomainError):
        sc.solve_eigenstates(prof, m_eff=0.0)
    with pytest.raises(DomainError):
        sc.solve_eigenstates(prof, m_eff=math.inf)
    with pytest.raises(GridError):
        sc.diagonalization_oracle(box_profile(30.0, 40))
    with pytest.raises(DomainError):
        sc.diagonalization_oracle(prof, n_states=0)
    # a mass the oracle cannot scale is a typed error, not a wrong level
    for m_eff in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            sc.diagonalization_oracle(prof, m_eff=m_eff)
    with pytest.raises(GridError, match="not a normal float"):
        sc.diagonalization_oracle(prof, m_eff=2.0**-1074)
    # more states than rows: the oracle's error is the shooting solver's
    for solve in (sc.solve_eigenstates, sc.diagonalization_oracle):
        with pytest.raises(EigenSearchError, match="59 states asked of a matrix of 58 rows"):
            solve(box_profile(30.0, 60), n_states=59)


# ---------------------------------------------------------------------------
# Hydrogenic closed forms


def test_single_wall_effective_charge():
    # z_eff read through the radius a0 / z_eff of a unit-mass ground state in vacuum
    assert sc.single_wall_bohr_radius_nm(math.inf) == 4.0 * BOHR_RADIUS_NM
    assert sc.single_wall_bohr_radius_nm(3.0) == pytest.approx(8.0 * BOHR_RADIUS_NM, rel=1e-15)
    # host and wall swapped give the same strength (only the contrast matters)
    assert sc.single_wall_bohr_radius_nm(2.0, eps_host=8.0) == pytest.approx(
        BOHR_RADIUS_NM * 8.0 / (0.25 * 6.0 / 10.0), rel=1e-15
    )


def test_hydrogenic_energy_and_radius():
    level = reference.hydrogenic_level_ev(z_eff=0.25, m_eff=1.0, eps_host=1.0, n=1)
    assert level == pytest.approx(-HARTREE_EV / 32.0, rel=1e-12)
    assert abs(level + 0.8503599) < 1e-4
    assert sc.single_wall_bohr_radius_nm(math.inf) == pytest.approx(
        4.0 * BOHR_RADIUS_NM, rel=1e-12
    )
    # dielectric wall in vacuum: radius = 4 a0 (eps+1)/(eps-1)
    for eps in (3.0, 2.0, 1.5):
        expected = 4.0 * BOHR_RADIUS_NM * (eps + 1.0) / (eps - 1.0)
        assert sc.single_wall_bohr_radius_nm(eps) == pytest.approx(expected, rel=1e-12)
    # excited levels follow the 1/n^2 ladder
    level_2 = reference.hydrogenic_level_ev(z_eff=0.25, m_eff=1.0, eps_host=1.0, n=2)
    assert level_2 == pytest.approx(level / 4.0, rel=1e-12)


def test_hydrogenic_validation():
    with pytest.raises(DomainError):
        sc.single_wall_bohr_radius_nm(1.0)  # a wall matched to its host binds nothing
    with pytest.raises(DomainError):
        sc.single_wall_bohr_radius_nm(8.0, eps_host=8.0)
    with pytest.raises(DomainError):
        sc.single_wall_bohr_radius_nm(math.inf, n=0)


@pytest.mark.parametrize("fn, args, kwargs", [
    pytest.param(sc.single_wall_bohr_radius_nm, (math.inf,), {"m_eff": m},
                 id=f"hydrogenic-m_eff-{m}")
    for m in (0.0, -1.0, math.nan)
] + [
    pytest.param(sc.single_wall_bohr_radius_nm, (math.inf,), {"eps_host": e},
                 id=f"hydrogenic-eps_host-{e}")
    for e in (0.0, -1.0, math.nan)
] + [
    pytest.param(sc.single_wall_bohr_radius_nm, (math.inf,), {"n": 1.5}, id="hydrogenic-n-1.5"),
    pytest.param(sn.halfline_profile, (1.0, 1.7, 1.0), {"m_eff": 0.0}, id="halfline-m_eff-0"),
    pytest.param(sc.box_energy_ev, (1.0, 1, 0.0), {}, id="box-m_eff-0"),
    pytest.param(sc.box_energy_ev, (math.nan, 1), {}, id="box-length-nan"),
])
def test_closed_forms_reject_unusable_input(fn, args, kwargs):
    # each check is written so that NaN fails it
    with pytest.raises(DomainError):
        fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Box closed form


def test_box_energy_closed_form():
    length = 1.0  # nm
    e1 = sc.box_energy_ev(length, 1)
    length_bohr = length / BOHR_RADIUS_NM
    assert e1 == pytest.approx(
        math.pi**2 / (2.0 * length_bohr**2) * HARTREE_EV, rel=1e-14
    )
    assert sc.box_energy_ev(length, 3) == pytest.approx(9.0 * e1, rel=1e-14)
    assert sc.box_energy_ev(length, 1, m_eff=4.0) == pytest.approx(e1 / 4.0, rel=1e-14)
    with pytest.raises(DomainError):
        sc.box_energy_ev(0.0, 1)
    with pytest.raises(DomainError):
        sc.box_energy_ev(1.0, 0)
