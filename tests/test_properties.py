"""Property tests for the two reflection-sum routes of the slab potential,
for all three routes agreeing at the offset guard, on slowly converging
stacks and on stacks near unit reflection, and failing alike at the
reflection-product cutoff, for the
quadrature's elimination without pivoting agreeing with the reference
``np.linalg.solve`` on the same interface systems, every pivot positive,
for the node count that brackets the shooting solver's eigenvalues (against
LAPACK ``dstebz``'s Sturm count as the reference), for the sector counts of
mirror-symmetric intervals adding up to the whole count, for the labels and
levels of near-mirror and exact-mirror double wells, for shooting meeting
the oracle's levels to the oracle's own second-order error, for Newton's
levels sitting where det T(E) changes sign over the isolation bracket, for
the lower levels of mirror wells not moving with the state count, for
warm-started two-plate levels equal to their cold solves, for the exact
discrete levels of boxes of a few to 10001 points, for the 1/m scaling of box levels
by both eigensolvers, for hard-wall entries of a profile being dead input to both
eigensolvers, and for the CLI's sweep and layer strings ending either as a
usage error or in one row per requested point.

Each property compares a stack with a transformed copy whose exact potential
is known from the first: mirrored, translated, with every length or every
permittivity scaled, or with all three permittivities matched.  The allowed
difference is each result's certified truncation bound plus float rounding:
a few machine epsilons of the leading image magnitude, amplified by how far
the coordinates reach beyond the nearest interface distance (a rounded
position moves a 1/d potential by that ratio).  The amplification was
measured at most 2.8 over 20,000 random cases per property, hence ROUNDING.
"""

import contextlib
import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from scipy.linalg.lapack import dstebz  # noqa: E402

from imagewell import cli  # noqa: E402
from imagewell import electrostatics as el  # noqa: E402
from imagewell import scenarios as sn  # noqa: E402
from imagewell import schrodinger as sc  # noqa: E402
from imagewell.constants import HARTREE_EV, nm_to_bohr  # noqa: E402
from imagewell.errors import ConvergenceError, GridError, ImagewellError  # noqa: E402

from bisection import bisect  # noqa: E402

EPS = np.finfo(float).eps
ROUNDING = 16.0 * EPS
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


def lead_potential(stack, z0):
    """Volts of the two first images at unit reflection, for a charge at z0."""
    da, db = z0 - stack.a_nm, stack.b_nm - z0
    return HARTREE_EV / stack.k2 * (1.0 / nm_to_bohr(2.0 * da) + 1.0 / nm_to_bohr(2.0 * db))


def allowance(stack, z0):
    """Rounding allowance in volts for the potential at z0."""
    da, db = z0 - stack.a_nm, stack.b_nm - z0
    reach = max(abs(stack.a_nm), abs(stack.b_nm)) / min(da, db)
    return ROUNDING * lead_potential(stack, z0) * (1.0 + reach)


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


THREE_ROUTES = ROUTES + [el.potential_kernel_quadrature]


def assert_three_routes_agree(stack, z0):
    """Criterion 01's tolerances, relative to the largest of the three:
    series and images within 1e-10, any two routes within 1e-6."""
    vs, vi, vq = (fn(stack, z0).v for fn in THREE_ROUTES)
    scale = max(abs(vs), abs(vi), abs(vq))
    assert abs(vs - vi) <= 1e-10 * scale
    assert max(abs(vs - vq), abs(vi - vq)) <= 1e-6 * scale


@st.composite
def guarded_charges(draw):
    """A charge on the MIN_OFFSET_FRAC guard at either interface: the float
    nearest the guard that the guard admits.  The stack reflects: a matched
    one gives exactly 0 by reflection and rounding noise by quadrature
    (``test_uniform_stack_gives_zero``)."""
    k1, k2, k3 = draw(side), draw(dielectric), draw(side)
    bset = el.beta_coefficients(k1, k2, k3)
    assume(max(abs(bset.beta_21), abs(bset.beta_23)) >= 1e-6)
    a, c = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.05, 100.0))
    stack = el.DielectricStack(k1, k2, k3, a, a + c)
    guard = el.MIN_OFFSET_FRAC * stack.c_nm
    z0, inward = (a + guard, np.inf) if draw(st.booleans()) else (stack.b_nm - guard, -np.inf)
    while not (z0 - stack.a_nm >= guard and stack.b_nm - z0 >= guard):
        z0 = float(np.nextafter(z0, inward))
    return stack, z0


@settings(max_examples=50)
@given(guarded_charges())
def test_three_routes_agree_at_the_offset_guard(case):
    assert_three_routes_agree(*case)


@st.composite
def slow_stacks(draw):
    """A charge in a stack whose reflection product has magnitude about
    1 - t, t from 3e-5 to 2e-3: a metal facing one contrast, or two
    dielectric contrasts, each reflecting with either sign."""
    t = float(np.exp(draw(st.floats(np.log(3.0e-5), np.log(2.0e-3)))))
    k2 = draw(st.floats(1.0, 10.0))
    metal = draw(st.booleans())
    beta = 1.0 - t if metal else np.sqrt(1.0 - t)

    def facing(sign):  # the permittivity reflecting sign * beta back into the slab
        return k2 * (1.0 - sign * beta) / (1.0 + sign * beta)

    signs = st.sampled_from([-1.0, 1.0])
    k1, k3 = el.METAL if metal else facing(draw(signs)), facing(draw(signs))
    if draw(st.booleans()):
        k1, k3 = k3, k1
    c = draw(st.floats(0.1, 100.0))
    return el.DielectricStack(k1, k2, k3, 0.0, c), draw(st.floats(0.001, 0.999)) * c


@settings(max_examples=25)
@given(slow_stacks())
def test_three_routes_agree_on_slowly_converging_stacks(case):
    bset = el.beta_coefficients(case[0].k1, case[0].k2, case[0].k3)
    assert 2.5e-5 <= 1.0 - abs(bset.ratio) <= 2.5e-3  # 1e4 to 1e6 groups at 1e-10
    assert_three_routes_agree(*case)


@st.composite
def near_unit_stacks(draw):
    """A charge in a stack whose reflection product has magnitude 1 - t, t
    from 1e-11 to 1e-2, of either sign: a metal facing one contrast, or two
    dielectric contrasts.  Two permittivities both far below k2 (both
    coefficients near +1) are left out: there the potential grows as
    ln(1/t) and the quadrature's panels stall short of its tolerance below
    t of about 1e-8 (``test_quadrature_stall_raises_with_diagnostics``)."""
    t = float(np.exp(draw(st.floats(np.log(1.0e-11), np.log(1.0e-2)))))
    k2 = draw(st.floats(1.0, 10.0))
    metal = draw(st.booleans())
    beta = 1.0 - t if metal else np.sqrt(1.0 - t)

    def facing(sign):  # the permittivity reflecting sign * beta back into the slab
        return k2 * (1.0 - sign * beta) / (1.0 + sign * beta)

    signs = st.sampled_from([-1.0, 1.0])
    first, second = draw(signs), draw(signs)
    assume(metal or min(first, second) < 0.0)
    k1, k3 = el.METAL if metal else facing(first), facing(second)
    if draw(st.booleans()):
        k1, k3 = k3, k1
    c = draw(st.floats(0.1, 100.0))
    return el.DielectricStack(k1, k2, k3, 0.0, c), draw(st.floats(0.001, 0.999)) * c


@settings(max_examples=40)
@given(near_unit_stacks())
def test_three_routes_agree_on_stacks_near_unit_reflection(case):
    """The series and images routes end after one block or a few, with the
    Euler-Maclaurin tail.  The routes' rounding is a few ulps of the leading
    image potential (at most 1.4e-15 of it between series and images, 4.3e-15
    against the quadrature, over 3500 random draws), so criterion 01's
    relative 1e-10 can only hold where |v| is not far below that potential:
    a charge next to a zero of v (|v| under 1e-4 of it) is left out."""
    bset = el.beta_coefficients(case[0].k1, case[0].k2, case[0].k3)
    assert 0.9e-11 <= 1.0 - abs(bset.ratio) <= 1.1e-2
    assume(abs(el.potential_slab_series(*case).v) >= 1e-4 * lead_potential(*case))
    assert_three_routes_agree(*case)


@st.composite
def cutoff_stacks(draw):
    """A charge in a stack whose reflection product reaches the cutoff,
    |ratio| >= 1 - 1e-12, with no pair of metals to sum in closed form:
    contrasts of 10^12.7 to 10^30 on one side facing a metal, or on both."""
    k2 = draw(dielectric)

    def contrast():
        return k2 * 10.0 ** (draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(12.7, 30.0)))

    k1, k3 = (el.METAL if draw(st.booleans()) else contrast()), contrast()
    if draw(st.booleans()):
        k1, k3 = k3, k1
    return el.DielectricStack(k1, k2, k3, 0.0, 1.0), draw(st.floats(0.001, 0.999))


@settings(max_examples=40)
@given(cutoff_stacks())
@example((el.DielectricStack(el.METAL, 1.0, 1999999999250.0, 0.0, 1.0), 0.4))  # at: 1 - 1e-12
@example((el.DielectricStack(1.0, 1.0e17, 1.0, 0.0, 1.0), 0.4))  # past: both coefficients +1
def test_every_slab_route_raises_at_the_ratio_cutoff(case):
    bset = el.beta_coefficients(case[0].k1, case[0].k2, case[0].k3)
    assume(not (bset.beta_21 == -1.0 and bset.beta_23 == -1.0))
    assert abs(bset.ratio) >= 1.0 - 1e-12
    for fn in THREE_ROUTES:
        with pytest.raises(ConvergenceError, match="too close to unit magnitude"):
            fn(*case)


def lapack_solve(s):
    """Reference for ``_kernel_integrand``'s elimination: each node's system
    of ``_kernel_system``'s array solved by LAPACK, with partial pivoting."""
    return np.linalg.solve(s[:, :4].transpose(2, 0, 1), s[:, 4].T[..., None])[..., 0]


def lapack_integrand(stack, da, db, k):
    s, ea, eb = el._kernel_system(stack, da, db, k)
    x = lapack_solve(s)
    return ea * x[:, 1] + eb * x[:, 2]


@st.composite
def quadrature_stacks(draw):
    """A charge in any of the four metal/dielectric assemblies, each
    dielectric side matched to k2, near-matched (within 1e-3 to 1e-1 of it)
    or a contrast of 1.1 to 1e4 either way; never matched on both sides,
    where the integrand is rounding noise (``test_uniform_stack_gives_zero``)."""
    k2 = draw(dielectric)

    def outer():
        kind = draw(st.sampled_from(["metal", "matched", "near", "contrast"]))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        if kind == "metal":
            return el.METAL
        if kind == "matched":
            return k2
        if kind == "near":
            return k2 * (1.0 + sign * 10.0 ** draw(st.floats(-3.0, -1.0)))
        return k2 * 10.0 ** (sign * draw(st.floats(0.04, 4.0)))

    k1, k3 = outer(), outer()
    assume(not k1 == k2 == k3)
    a, c = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.05, 5.0))
    return el.DielectricStack(k1, k2, k3, a, a + c), a + draw(st.floats(1.0e-3, 1.0 - 1.0e-3)) * c


@settings(max_examples=150, deadline=None)
@given(quadrature_stacks())
@example((el.DielectricStack(8.8, 9.5, 9.7, 0.0, 1.0), 0.37))
@example((el.DielectricStack(el.METAL, 1.0, 1.0, 0.0, 1.0), 0.75))
def test_column_elimination_agrees_with_lapack(case):
    """The quadrature's elimination without pivoting against LAPACK on the
    same systems at the route's own nodes.  Both solves sit within about
    eps cond(A) |x| of the exact amplitudes, so a node's gap is bounded by
    that times ea + eb, and ``v``'s gap beyond the two error bounds by
    ulps of the leading image potential.  Over 12,000 generated stacks the
    gaps reached 2.1 and 121 of those units; the limits are 16 and 1000."""
    stack, z0 = case
    integrand, calls = el._kernel_integrand, []

    def recorded(*args):
        calls.append(args)
        return integrand(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(el, "_kernel_integrand", recorded)
        new = el.potential_kernel_quadrature(stack, z0)
        mp.setattr(el, "_kernel_integrand", lapack_integrand)
        ref = el.potential_kernel_quadrature(stack, z0)
    for args in calls:
        s, ea, eb = el._kernel_system(*args)
        matrices, x = s[:, :4].transpose(2, 0, 1), lapack_solve(s)
        for j in range(1, 5):  # every pivot is positive: so is every leading minor
            assert (np.linalg.det(matrices[:, :j, :j]) > 0.0).all()
        gap = np.abs(integrand(*args) - (ea * x[:, 1] + eb * x[:, 2]))
        limit = 16.0 * EPS * np.linalg.cond(matrices) * np.abs(x).max(axis=1) * (ea + eb)
        assert (gap <= limit).all()
    assert new.terms_used == ref.terms_used == sum(args[3].size for args in calls)
    assert calls[0][3].size == 1440  # 40 panels of 12 + 24 nodes, in one call
    if len(calls) == 1:
        assert new.terms_used == 1440
    bounds = new.truncation_error_bound * abs(new.v) + ref.truncation_error_bound * abs(ref.v)
    assert abs(new.v - ref.v) <= bounds + 1000.0 * EPS * lead_potential(stack, z0)


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
    middle 60 % of up to 0.9 of 6/h^2, and an energy between the well's
    bottom and top, so every 1 - h^2/12 2m (u - E) stays above 0.1."""
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


@settings(max_examples=200, deadline=None)
@given(mirrored_wells())
def test_sector_counts_add_up_to_the_whole_count(well):
    # the whole matrix's eigenvalues alternate between the even and the odd
    # sector, lowest first, so below any E the even sector holds as many as
    # the odd one or one more.  At that E, det T(E) has the sign (-1)^count
    # for the whole matrix and for each half, with the same end in both (the
    # open end's tail is left out: its count still takes a wall there)
    u, h, e = well
    even, odd = (sc._count_nodes(v, h, 2.0, e, end) for v, end, _ in sc._sectors(u))
    assert even + odd == sc._count_nodes(u, h, 2.0, e) and even - odd in (0, 1)
    for v, end, _ in [(u, sc._WALL, None), *sc._sectors(u)]:
        count = sc._count_nodes(v, h, 2.0, e, end)
        assert (sc._residual(v, h, 2.0, e, end)[0] < 0.0) == (count % 2 == 1)


@settings(max_examples=40, deadline=None)
@given(st.floats(10.0, 16.0), st.floats(2.5, 100.0), st.integers(1001, 4001))
@example(12.0, 100.0, 4001)  # a near mirror whose upper pair splits by 4e-12 Hartree
@example(12.0, 90.0, 4001)  # an exact mirror's lowest pair: 4.1e-12 Hartree, inside the polish
def test_near_and_exact_mirror_wells_give_alternating_labels(length, height, n_points):
    # a quartic double well as np.linspace builds it is a mirror to rounding;
    # it solves as the exact mirror its average is, whatever the depth
    grid = np.linspace(0.0, length, n_points)
    x = (grid - 0.5 * length) / (length / 6.0)
    u = height * ((x * x - 1.0) ** 2 - 1.0)
    labels = list(zip(range(4), [sc.Parity.EVEN, sc.Parity.ODD] * 2))
    levels = []
    for v in (u, 0.5 * (u + u[::-1])):
        states = sc.solve_eigenstates(sc.PotentialProfile(grid, v, sc.DomainKind.INTERVAL), 1.0, 4)
        assert [(s.nodes, s.parity) for s in states] == labels
        levels.append([s.energy_h for s in states])
    assert levels[0] == pytest.approx(levels[1], rel=1e-12, abs=0.0)


@st.composite
def oracle_wells(draw, shapes=("interval", "mirror", "half_line")):
    """(profile, mass) on 1001 to 4001 points over 5-12 Bohr: three cosine
    modes of amplitude <= 0.5 Hartree as an interval, the same made a mirror
    float for float, or a half line walled on the left whose ramp (a quantum
    bouncer of length L/40 to L/20) keeps three states far from its open end;
    ``shapes`` picks among the three."""
    shape = draw(st.sampled_from(shapes))
    length, m_eff = draw(st.floats(5.0, 12.0)), draw(st.floats(0.2, 5.0))
    grid = np.linspace(0.0, length, draw(st.integers(1001, 4001)))
    u = sum(draw(st.floats(-0.5, 0.5)) * np.cos((j + 1) * np.pi * grid / length)
            for j in range(3))
    if shape == "interval":
        return sc.PotentialProfile(grid, u, sc.DomainKind.INTERVAL), m_eff
    if shape == "mirror":
        return sc.PotentialProfile(grid, 0.5 * (u + u[::-1]), sc.DomainKind.INTERVAL), m_eff
    ell = length / draw(st.floats(20.0, 40.0))
    ramp = grid / (2.0 * m_eff * ell**3)
    return sc.PotentialProfile(grid, u + ramp, sc.DomainKind.HALF_LINE_WALL_LEFT), m_eff


@settings(max_examples=60, deadline=None)
@given(oracle_wells())
def test_shooting_agrees_with_the_oracle_to_its_second_order_error(well):
    # the central second difference is psi'' + (h^2/12) d^4 psi + O(h^4), and
    # <psi, d^4 psi> = |psi''|^2 = (2m)^2 <(u - E)^2>, so the oracle's level
    # lies below the exact one by m h^2 <(u - E)^2> / 6 to leading order;
    # Numerov's own error is fourth order.  Over 3600 random wells the gap
    # was that term to within 0.85 %; it must be within 10 %
    profile, m_eff = well
    u, h = profile.u_hartree, profile.step_bohr
    shot = sc.solve_eigenstates(profile, m_eff, 3)
    oracle = sc.diagonalization_oracle(profile, m_eff, 3)
    for s, o in zip(shot, oracle):
        assert (s.nodes, s.parity, s.kind) == (o.nodes, o.parity, o.kind)
        weight = o.psi * o.psi
        leading = m_eff * h * h / 6.0 * np.sum(weight * (u - o.energy_h) ** 2) / np.sum(weight)
        assert abs((s.energy_h - o.energy_h) / leading - 1.0) <= 0.1


def image_tail_well():
    """A 60 Bohr half line under -1/(4d), short enough that its open end moves
    level 0 by 2e-8 relative, inside its 1e-6 count bracket, and level 1 by
    4e-3, outside it: the first is closed by the decaying tail, the second
    by a wall at the truncation end (the third lies above u(60))."""
    grid = np.linspace(0.0, 60.0, 2001)
    d = np.where(grid > 0.0, grid, 0.5 * grid[1])  # the wall's entry is never read
    return sc.PotentialProfile(grid, -1.0 / (4.0 * d), sc.DomainKind.HALF_LINE_WALL_LEFT), 1.0


@settings(max_examples=30, deadline=None)
@given(oracle_wells())
@example(image_tail_well())
def test_newton_levels_sit_where_det_changes_sign(well):
    # every level is polished by Newton on det T(E) from its count bracket:
    # at a closed end det T(E) takes the signs (-1)^count at its ends without
    # a pass, and an open end is closed by the decaying tail or by a wall;
    # a bisection on det's sign over the same bracket, run to adjacent
    # floats, lands within the polish width of it
    profile, m_eff = well
    newton, calls = sc._newton, []

    def recorded(f, lo, hi, rising, x, rtol):
        def side(e):  # > 0 above the level
            return f(e)[0] if rising else -f(e)[0]

        root = newton(f, lo, hi, rising, x, rtol)
        calls.append((root, side(lo) < 0.0 < side(hi), bisect(side, lo, hi, 0.0)))
        return root

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "_newton", recorded)
        states = sc.solve_eigenstates(profile, m_eff, 3)
    assert [s.energy_h for s in states] == [root for root, *_ in calls]
    for root, signs, (a, b) in calls:
        assert signs
        assert abs(root - 0.5 * (a + b)) <= sc._POLISH * abs(root)


@settings(max_examples=15, deadline=None)
@given(oracle_wells(shapes=("mirror",)))
def test_state_count_prefixes_agree(well):
    # asking for more states keeps the lower ones: bitwise while the window
    # (its top set by the state count from 5 states on) stays the same, and
    # to the polish width of each level otherwise
    profile, m_eff = well
    count_nodes, tops = sc._count_nodes, []

    def recorded(u, h, two_m, e, *end):
        if u.size == profile.u_hartree.size:  # the window's count of the whole
            tops.append(e)
        return count_nodes(u, h, two_m, e, *end)

    solves = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "_count_nodes", recorded)
        for k in range(1, 7):
            states = sc.solve_eigenstates(profile, m_eff, k)
            solves[k] = tops[-1], [(s.energy_h, s.nodes, s.parity) for s in states]
    for j in range(1, 6):
        for k in range(j + 1, 7):
            (top_j, low), (top_k, high) = solves[j], solves[k]
            if top_j == top_k:
                assert high[:j] == low
                continue
            for (e_j, *label_j), (e_k, *label_k) in zip(low, high):
                assert label_j == label_k
                assert abs(e_j - e_k) <= 2.0 * sc._POLISH * abs(e_j)


@st.composite
def stencil_steps(draw):
    """A two-plate gap, charge, state count and a signed stencil step dd."""
    gap = draw(st.floats(0.8, 6.0))
    q = draw(st.sampled_from([-1.0, -0.5, 0.0]))
    n_states = draw(st.integers(1, 3))
    step = 10.0 ** draw(st.floats(-4.0, -2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return gap, q, n_states, step * gap


def same_states(warm, cold):
    """Each warm level within the polish width of its cold solve, with the
    same nodes and parity."""
    assert [(s.nodes, s.parity) for s in warm] == [(s.nodes, s.parity) for s in cold]
    for w, c in zip(warm, cold):
        assert abs(w.energy_h - c.energy_h) <= 2.0 * sc._POLISH * abs(c.energy_h)


@settings(max_examples=12, deadline=None)
@given(stencil_steps())
@example((0.8, 0.0, 3, 8.0e-3))  # a box far enough out that the prediction misses the hunt
def test_warm_levels_equal_cold_levels(case):
    # the force stencil's prediction E + (<U> - 2E)/D dd from the centre
    # spectrum, and bad guesses (the neighbouring level, +-50 %, None, NaN),
    # all end in the cold solve's states: the counts certify every bracket
    gap, q, n_states, dd = case

    def spectrum(d, guesses=None):
        return sn.two_plate_spectrum(d, n_states, q=q, n_points=1001, guesses=guesses).states

    centre = sn.two_plate_spectrum(gap, n_states, q=q, n_points=1001)
    u = centre.profile.u_hartree
    predicted = [s.energy_h + (np.dot(s.psi**2, u) / np.dot(s.psi, s.psi) - 2.0 * s.energy_h)
                 / gap * dd for s in centre.states]
    cold = spectrum(gap + dd)
    same_states(spectrum(gap + dd, predicted), cold)
    levels = [s.energy_h for s in cold]
    neighbours = levels[1:] + levels[-2:-1] if n_states > 1 else [2.0 * levels[0]]
    for guesses in (neighbours, [1.5 * e for e in levels], [0.5 * e for e in levels],
                    [None] * n_states, [float("nan")] * n_states):
        same_states(spectrum(gap + dd, guesses), cold)


def exact_box_levels(n_points, h, m_eff, count):
    """Numerov's levels on an n-point box: E_j = 24 sin^2(theta_j/2) /
    (2m h^2 (5 + cos theta_j)), theta_j = j pi / (n - 1), the sine form of
    12 (1 - cos theta_j), which cancels on fine grids."""
    theta = np.arange(1, count + 1) * np.pi / (n_points - 1)
    levels = 24.0 * np.sin(0.5 * theta) ** 2 / (2.0 * m_eff * h * h * (5.0 + np.cos(theta)))
    return levels.tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 12), st.floats(0.5, 50.0), st.floats(0.05, 20.0))
@example(4, 1.0, 1.0)
@example(5, 1.0, 1.0)
def test_tiny_boxes_give_the_exact_discrete_levels(n_points, length, m_eff):
    # 4 and 5 points leave a sector of 3
    grid = np.linspace(0.0, length, n_points)
    box = sc.PotentialProfile(grid, np.zeros(n_points), sc.DomainKind.INTERVAL)
    levels = [s.energy_h for s in sc.solve_eigenstates(box, m_eff, n_points - 2)]
    exact = exact_box_levels(n_points, box.step_bohr, m_eff, n_points - 2)
    assert levels == pytest.approx(exact, rel=1e-12, abs=0.0)


@settings(max_examples=8, deadline=None)
@given(st.integers(1001, 10001), st.floats(1.0, 100.0), st.floats(0.05, 20.0))
@example(1001, 30.0, 1.0)
@example(4001, 30.0, 1.0)
@example(4000, 30.0, 1.0)
@example(10001, 30.0, 1.0)
def test_shooting_meets_the_exact_discrete_box_levels(n_points, length, m_eff):
    # the summed-form residual is exact to rounding: no loss that grows with n
    grid = np.linspace(0.0, length, n_points)
    box = sc.PotentialProfile(grid, np.zeros(n_points), sc.DomainKind.INTERVAL)
    levels = [s.energy_h for s in sc.solve_eigenstates(box, m_eff, 4)]
    exact = exact_box_levels(n_points, box.step_bohr, m_eff, 4)
    assert levels == pytest.approx(exact, rel=1e-13, abs=0.0)


def dstebz_count(u, h, two_m, e):
    """Reference count: LAPACK ``dstebz``'s eigenvalues of Numerov's z-form
    tridiag(-1, 12/(1 - t) - 10, -1) in (-1e300, 0]."""
    w = 1.0 - h * h / 12.0 * two_m * (u[1:-1] - e)
    off = np.full(max(w.size - 1, 1), -1.0)  # the wrapper wants one entry even at size 1
    count, *_, info = dstebz(12.0 / w - 10.0, off, 1, -1.0e300, 0.0, 0, 0, 1.0e300, "E")
    assert info == 0
    return count


@st.composite
def count_wells(draw):
    """(u, h, 2m) on 3 to 401 points (3 leave one interior point): an interval
    of cosine modes, or a half line with an image tail -a/d sampled half a
    step inside the wall at either end; masses from 0.05 to 20."""
    n_points = draw(st.integers(3, 401))
    length = draw(st.floats(5.0, 40.0))
    grid = np.linspace(0.0, length, n_points)
    if draw(st.booleans()):
        amps = [draw(st.floats(-0.5, 0.5)) for _ in range(3)]
        u = sum(c * np.cos((j + 1) * np.pi * grid / length) for j, c in enumerate(amps))
    else:
        d = grid.copy()
        d[0] = 0.5 * grid[1]
        u = -draw(st.floats(0.05, 1.0)) / d
        if draw(st.booleans()):
            u = u[::-1]
    return u, grid[1], 2.0 * draw(st.floats(0.05, 20.0))


def count_steps(u, h, two_m, lo, hi):
    """Each energy in (lo, hi] at which the reference count steps up, to
    adjacent floats: the lowest float with the higher count."""
    return [
        bisect(lambda e: dstebz_count(u, h, two_m, e) - k - 0.5, lo, hi, 0.0)[1]
        for k in range(dstebz_count(u, h, two_m, lo), dstebz_count(u, h, two_m, hi))
    ]


@settings(max_examples=40, deadline=None)
@given(count_wells(), st.lists(st.floats(0.0, 2.0), max_size=20))
def test_chained_count_equals_dstebz(well, fracs):
    u, h, two_m = well
    c = h * h / 12.0 * two_m
    inner = u[1:-1]
    # from just above the grid guard (1 - t = 1/2 at the highest point), or
    # one Hartree below the well, to three count steps up
    lo = max(float(inner.min()) - 1.0, float(inner.max()) - 0.5 / c)
    hi = float(inner.max()) + 1.0
    while dstebz_count(u, h, two_m, hi) < min(dstebz_count(u, h, two_m, lo) + 3, inner.size):
        hi += 2.0 * (hi - lo)
    steps = count_steps(u, h, two_m, lo, hi)
    energies = [lo + f * (hi - lo) for f in fracs]
    for r in steps:
        energies += [np.nextafter(r, -np.inf), r]
        energies += [r * (1.0 + s * 10.0**-p) for s in (-1.0, 1.0) for p in range(2, 15)]
    for e in energies:
        # inside the grid guard, and clear of dstebz's split (1 - t below 3e-15)
        if np.all(1.0 - c * (inner - e) > 1.0e-12):
            assert sc._count_nodes(u, h, two_m, e) == dstebz_count(u, h, two_m, e)


# u whose diagonal entry 12/(1 - u) - 10 is exactly d, at E = 0 with h = 1 and
# 2m = 12 (so h^2/12 2m = 1): chains of them hit exact zero pivots.  The
# second example's pivots are 2, 0, 2^1022, 1, 0, 2^1022, -1, 0, 2^1022.
EXACT_PIVOT_U = {d: 1.0 - 12.0 / (d + 10.0) for d in (2.0, 1.0, 0.5, 0.0, -0.5, -1.0)}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(sorted(EXACT_PIVOT_U.values())),
                          st.floats(-0.5, 0.5)), min_size=1, max_size=12))
@example([EXACT_PIVOT_U[0.0]])
@example([EXACT_PIVOT_U[d] for d in (2.0, 0.5, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 0.0)])
def test_chained_count_at_exact_zero_pivots(interior):
    u = np.array([0.0, *interior, 0.0])
    assert sc._count_nodes(u, 1.0, 12.0, 0.0) == dstebz_count(u, 1.0, 12.0, 0.0)


BOX = sc.PotentialProfile(np.linspace(0.0, 30.0, 201), np.zeros(201), sc.DomainKind.INTERVAL)
BOX_STEP = BOX.step_bohr
# the lightest mass 2^j whose Numerov coefficient h^2/12 2m is a normal float
LIGHTEST = int(np.ceil(np.log2(np.finfo(float).tiny / (BOX_STEP * BOX_STEP / 12.0 * 2.0))))


@settings(max_examples=20, deadline=None)
@given(st.integers(LIGHTEST, 960))
@example(LIGHTEST)
@example(30)
@example(56)
@example(516)
@example(960)
def test_box_levels_times_mass_are_exact_for_powers_of_two(j):
    # scaling m by 2^j scales every energy either solver forms, and every
    # energy threshold shooting applies, by 2^-j exactly; the labels stay
    # those of a box
    m = 2.0**j
    parities = [sc.Parity.EVEN, sc.Parity.ODD] * 2
    for solver in (sc.solve_eigenstates, sc.diagonalization_oracle):
        levels = [s.energy_h for s in solver(BOX, 1.0, 4)]
        states = solver(BOX, m, 4)
        assert [s.energy_h * m for s in states] == levels
        assert [(s.nodes, s.parity) for s in states] == list(zip(range(4), parities))
    with pytest.raises(GridError, match="not a normal float"):
        sc.solve_eigenstates(BOX, 2.0 ** (LIGHTEST - 1))


@st.composite
def walled_wells(draw):
    """(grid, u, kind, wall indices) on 60 to 301 points: an interval of
    cosine modes made mirror-symmetric float for float, with one or both
    walls to change, or a half line with an image tail -a/d and its wall on
    the left."""
    n_points = draw(st.integers(60, 301))
    length = draw(st.floats(10.0, 30.0))
    grid = np.linspace(0.0, length, n_points)
    kind = draw(st.sampled_from(sc.DomainKind))
    if kind is sc.DomainKind.INTERVAL:
        amps = [draw(st.floats(-0.5, 0.5)) for _ in range(3)]
        u = sum(c * np.cos((j + 1) * np.pi * grid / length) for j, c in enumerate(amps))
        return grid, 0.5 * (u + u[::-1]), kind, draw(st.sampled_from([[0], [-1], [0, -1]]))
    u = -draw(st.floats(0.25, 1.0)) / np.maximum(grid, grid[1])
    return grid, u, kind, [0]


def solved(solver, grid, u, kind, m_eff):
    """Every float and label of the lowest two states, or the error raised."""
    try:
        states = solver(sc.PotentialProfile(grid, u, kind), m_eff, 2)
    except ImagewellError as exc:
        return repr(exc)
    return [(s.energy_h, s.psi.tobytes(), s.nodes, s.parity, s.kind) for s in states]


BOX_WALLS = (np.linspace(0.0, 20.0, 101), np.zeros(101), sc.DomainKind.INTERVAL, [0])


@settings(max_examples=40, deadline=None)
@given(walled_wells(), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=2, max_size=2),
       st.one_of(st.floats(0.05, 20.0), st.just(2.0**40)))
@example(BOX_WALLS, [1.0, 0.0], 1.0)
@example(BOX_WALLS, [1.0e300, 0.0], 2.0**40)
@example((*BOX_WALLS[:3], [0, -1]), [1.7e308, 1.7e308], 1.0)  # their mirror sum overflows
def test_hard_wall_entries_are_dead_input(well, values, m_eff):
    # psi is pinned to zero at a hard wall, so no finite value there may move
    # a result: not a one-sided change that breaks the mirror symmetry of an
    # interval, nor one so large that its Numerov factor would overflow
    grid, u, kind, walls = well
    changed = u.copy()
    changed[walls] = values[: len(walls)]
    for solver in (sc.solve_eigenstates, sc.diagonalization_oracle):
        assert solved(solver, grid, changed, kind, m_eff) == solved(solver, grid, u, kind, m_eff)


def run_cli(argv):
    """(exit status, data rows of the CSV on stdout) of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return status, out.getvalue().splitlines()[1:]


POTENTIAL = ["potential", "--k1", "2", "--k2", "1", "--k3", "5", "--a", "-1", "--b", "1"]
z0_end = st.floats(-3.0, 3.0) | st.floats(-1.0, 1.0)


@given(z0_end, z0_end, st.integers(0, 4), st.booleans(), st.booleans())
@example(0.9, -5.0, 3, False, False)
@example(0.9, 0.1, 3, False, False)
@example(-0.29, 0.9, 3, False, True)  # a negative start as its own token
@example(-0.9998, -1.0e-3, 2, True, True)  # a log sweep at the left guard
@example(-0.5, 0.5, 3, True, True)  # a log sweep through zero
@example(0.1, 0.9, 100000000000, False, False)
def test_cli_z0_sweep_is_a_usage_error_or_count_rows(start, stop, count, log, separate):
    # a charge closer than MIN_OFFSET_FRAC of the slab to an interface has no
    # potential, so a sweep with an end there, descending ones included, is
    # refused before any work, as is one of more points than the cap or a log
    # sweep whose ends are not of one sign; every other sweep yields all its
    # rows, whether its spec follows the flag as its own token or after "="
    spec = f"{start!r}:{stop!r}:{count}" + (":log" if log else "")
    status, rows = run_cli(POTENTIAL + (["--z0", spec] if separate else [f"--z0={spec}"]))
    inside = all(end + 1.0 >= 2.0e-4 and 1.0 - end >= 2.0e-4 for end in (start, stop))
    one_sign = min(start, stop) > 0.0 or max(start, stop) < 0.0
    if not 1 <= count <= cli._MAX_ROWS or not inside or (log and not one_sign):
        assert (status, rows) == (2, [])
    else:
        assert status == 0 and len(rows) == count


@given(st.integers(-3, 8), st.integers(-3, 8), st.integers(-1, 3),
       st.sampled_from(["{0}", "{0}:{1}", "{0}:{1}:{2}", "{0}:{1}:{2}:{2}", "{0}:x"]))
@example(0, 100000000000, 1, "{0}:{1}")
def test_cli_layers_are_a_usage_error_or_one_row_each(start, stop, step, form):
    layers = form.format(start, stop, step)
    status, rows = run_cli(["film", "--material", "sAr", "--dmax", "25", "--points", "201",
                            f"--layers={layers}"])
    # the counts a well-formed string asks for, or None for a malformed one
    fields = layers.split(":")
    if "x" in layers or len(fields) > 3:
        want = None
    elif len(fields) == 1:
        want = [start]
    else:
        by = step if len(fields) == 3 else 1
        want = range(start, stop + 1, by) if by > 0 and stop >= start else None
    if want is None or want[0] < 0 or len(want) > cli._MAX_ROWS:
        assert (status, rows) == (2, [])
    else:
        assert [int(row.split(",")[0]) for row in rows] == list(want)
