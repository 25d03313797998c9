"""Property tests for the two reflection-sum routes of the slab potential,
for the node count that brackets the shooting solver's eigenvalues, and for
the one-pass mismatch on mirror-symmetric intervals.

Each property compares a stack with a transformed copy whose exact potential
is known from the first: mirrored, translated, with every length or every
permittivity scaled, or with all three permittivities matched.  The allowed
difference is each result's certified truncation bound plus float rounding:
a few machine epsilons of the leading image magnitude, amplified by how far
the coordinates reach beyond the nearest interface distance (a rounded
position moves a 1/d potential by that ratio).  The amplification was
measured at most 2.8 over 20,000 random cases per property, hence ROUNDING.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from imagewell import electrostatics as el  # noqa: E402
from imagewell import schrodinger as sc  # noqa: E402
from imagewell.constants import HARTREE_EV, nm_to_bohr  # noqa: E402

ROUNDING = 16.0 * np.finfo(float).eps
ROUTES = [el.potential_slab_series, el.potential_slab_images]
route = pytest.mark.parametrize("fn", ROUTES, ids=[fn.__name__ for fn in ROUTES])

dielectric = st.floats(1.0, 20.0)
side = st.one_of(dielectric, st.just(el.METAL))
factor = st.floats(0.1, 10.0)


@st.composite
def charged_stacks(draw):
    """A stack with a charge at least 1e-3 of the slab width inside it."""
    k1, k2, k3 = draw(side), draw(dielectric), draw(side)
    a, c = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.05, 5.0))
    frac = draw(st.floats(1.0e-3, 1.0 - 1.0e-3))
    return el.DielectricStack(k1, k2, k3, a, a + c), a + frac * c


def allowance(stack, z0):
    """Rounding allowance in volts for the potential at z0."""
    da, db = z0 - stack.a_nm, stack.b_nm - z0
    lead = HARTREE_EV / stack.k2 * (1.0 / nm_to_bohr(2.0 * da) + 1.0 / nm_to_bohr(2.0 * db))
    reach = max(abs(stack.a_nm), abs(stack.b_nm)) / min(da, db)
    return ROUNDING * lead * (1.0 + reach)


def assert_same(fn, case, other, factor=1.0):
    """fn at ``case`` equals ``factor`` x fn at ``other`` within bounds."""
    (s1, z1), (s2, z2) = case, other
    r1, r2 = fn(s1, z1), fn(s2, z2)
    bound = r1.truncation_error_bound * abs(r1.v) + r2.truncation_error_bound * abs(r2.v) * factor
    slack = max(allowance(s1, z1), allowance(s2, z2) * factor)
    assert abs(r1.v - factor * r2.v) <= bound + slack


@route
@given(charged_stacks())
def test_mirror(fn, case):
    s, z0 = case
    mirrored = el.DielectricStack(s.k3, s.k2, s.k1, s.a_nm, s.b_nm)
    assert_same(fn, case, (mirrored, s.a_nm + s.b_nm - z0))


@route
@given(charged_stacks(), st.floats(-10.0, 10.0))
def test_translation(fn, case, shift):
    s, z0 = case
    moved = el.DielectricStack(s.k1, s.k2, s.k3, s.a_nm + shift, s.b_nm + shift)
    assert_same(fn, case, (moved, z0 + shift))


@route
@given(charged_stacks(), factor)
def test_length_scaling(fn, case, lam):
    s, z0 = case
    scaled = el.DielectricStack(s.k1, s.k2, s.k3, s.a_nm * lam, s.b_nm * lam)
    assert_same(fn, case, (scaled, z0 * lam), lam)


@route
@given(charged_stacks(), factor)
def test_permittivity_scaling(fn, case, lam):
    s, z0 = case
    scaled = el.DielectricStack(s.k1 * lam, s.k2 * lam, s.k3 * lam, s.a_nm, s.b_nm)
    assert_same(fn, case, (scaled, z0), lam)


@route
@given(charged_stacks())
def test_matched_stack_is_zero(fn, case):
    s, z0 = case
    assert fn(el.DielectricStack(s.k2, s.k2, s.k2, s.a_nm, s.b_nm), z0).v == 0.0


@st.composite
def smooth_wells(draw):
    """An interval well: three cosine modes of amplitude <= 0.5 Hartree over
    5-10 Bohr on 401 points, fine enough to resolve the lowest levels."""
    length = draw(st.floats(5.0, 10.0))
    amps = [draw(st.floats(-0.5, 0.5)) for _ in range(3)]
    grid = np.linspace(0.0, length, 401)
    u = sum(c * np.cos((j + 1) * np.pi * grid / length) for j, c in enumerate(amps))
    return sc.PotentialProfile(grid, u, sc.DomainKind.INTERVAL)


@settings(max_examples=20, deadline=None)
@given(smooth_wells(), st.lists(st.floats(0.0, 1.0), max_size=20))
def test_node_count_equals_state_index(prof, fracs):
    u, h = prof.u_hartree, prof.step_bohr
    roots = [s.energy_h for s in sc.solve_eigenstates(prof, n_states=3)]
    gaps = np.diff(roots)
    assume(np.min(gaps) > 1e-6 * max(1.0, abs(roots[-1])))
    for k, root in enumerate(roots):
        delta = 1e-7 * max(1.0, abs(root))
        assert sc._count_nodes(u, h, 2.0, root - delta) == k
        assert sc._count_nodes(u, h, 2.0, root + delta) == k + 1
    # never decreasing in E, over the whole window from below the well bottom
    lo, hi = float(np.min(u)) - 1.0, roots[-1] + 1.0
    energies = np.sort(np.concatenate((np.linspace(0.0, 1.0, 64), fracs))) * (hi - lo) + lo
    counts = [sc._count_nodes(u, h, 2.0, e) for e in energies]
    assert counts[0] == 0 and counts == sorted(counts)


@st.composite
def mirrored_wells(draw):
    """An interval double well equal to its mirror float for float, on an odd
    or even number of points: cosine modes plus a square barrier over the
    middle 60 % of up to 0.9 of 6/h^2, tall and wide enough that passes
    through it rescale, and an energy between the well's bottom and top, so
    every 1 - h^2/12 2m (u - E) stays above 0.1."""
    n_points = draw(st.integers(151, 401))
    length = draw(st.floats(5.0, 20.0))
    grid = np.linspace(0.0, length, n_points)
    h = grid[1] - grid[0]
    amps = [draw(st.floats(-0.5, 0.5)) for _ in range(3)]
    u = sum(c * np.cos((j + 1) * np.pi * grid / length) for j, c in enumerate(amps))
    barrier = np.abs(grid - 0.5 * length) < 0.3 * length
    u = u + draw(st.floats(0.0, 0.9)) * 6.0 / (h * h) * barrier
    u = 0.5 * (u + u[::-1])
    e = u.min() + draw(st.floats(0.0, 1.0)) * (u.max() - u.min())
    return u, h, e


@settings(max_examples=100, deadline=None)
@given(mirrored_wells())
def test_mirror_mismatch_is_bitwise_the_two_passes(well):
    u, h, e = well
    m = (u.size - 1) // 2
    one = sc._mismatch(u, h, 2.0, e, m, False, True)
    assert np.isfinite(one) and one == sc._mismatch(u, h, 2.0, e, m, False)
