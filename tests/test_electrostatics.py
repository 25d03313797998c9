"""Unit tests for the three-dielectric electrostatics routes.

Independent oracles used here:
  * a transmission-coefficient series for the charge-outside-the-slab case,
    summed directly from its own closed form;
  * a brute-force cross-pair sum over explicitly generated image charges for
    the plate-plate interaction.
Both are written from scratch in this file so they share no summation or
grouping code with the library routes they check.  The scalar mirror
recursion kept here is the reference the images route's array recursion
must equal float for float, and the slab ladder's block formula, with its
direct term always added, is the reference for the ladder's blocks.
"""

import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from imagewell import electrostatics as el
from imagewell.constants import HARTREE_EV, nm_to_bohr
from imagewell.errors import ConvergenceError, DomainError, SingularityError, StackError

import reference


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def transmission_oracle(k1, k2, k3, d_nm, c_nm, n=400000):
    """Potential on a charge a distance d left of a slab of width c: the
    surviving first reflection plus the transmitted multiple-bounce ladder."""
    b12 = (k1 - k2) / (k1 + k2)
    b21 = -b12
    b23 = -1.0 if k3 == el.METAL else (k2 - k3) / (k2 + k3)
    rho = b21 * b23
    d, c = nm_to_bohr(d_nm), nm_to_bohr(c_nm)
    m = np.arange(n)
    s = b12 / (2.0 * d) + (1.0 - b12**2) * np.sum(
        np.power(rho, m) * b23 / (2.0 * (d + c + m * c))
    )
    return s / k1 * HARTREE_EV


def pair_sum_oracle(stack, z0_nm, order):
    """Plate-plate energy by summing charge products over every (left image,
    right image) pair from the mirror recursion."""
    imgs = el.generate_images(stack, z0_nm, q=1.0, max_order=order)
    zl = np.array([nm_to_bohr(i.z_nm) for i in imgs if i.side is el.Side.LEFT])
    ql = np.array([i.q for i in imgs if i.side is el.Side.LEFT])
    zr = np.array([nm_to_bohr(i.z_nm) for i in imgs if i.side is el.Side.RIGHT])
    qr = np.array([i.q for i in imgs if i.side is el.Side.RIGHT])
    s = np.sum((ql[:, None] * qr[None, :]) / np.abs(zr[None, :] - zl[:, None]))
    return s / stack.k2 * HARTREE_EV


# ---------------------------------------------------------------------------
# Reflection coefficients


def test_beta_coefficient_examples():
    bset = el.beta_coefficients(2.0, 1.0, 5.0)
    assert bset.beta_21 == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert bset.beta_23 == pytest.approx(-2.0 / 3.0, rel=1e-15)
    assert bset.ratio == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert bset.ratio == bset.beta_21 * bset.beta_23


def test_beta_metal_limits_are_exact():
    assert el.beta_coefficients(el.METAL, 1.0, 5.0).beta_21 == -1.0
    assert el.beta_coefficients(2.0, 1.0, el.METAL).beta_23 == -1.0
    both = el.beta_coefficients(el.METAL, 3.0, el.METAL)
    assert both.beta_21 == -1.0 and both.beta_23 == -1.0
    assert both.ratio == 1.0


def test_matched_interface_gives_zero_coefficient():
    bset = el.beta_coefficients(4.0, 4.0, 9.0)
    assert bset.beta_21 == 0.0
    assert bset.ratio == 0.0


def test_sub_unit_permittivity_is_allowed():
    bset = el.beta_coefficients(0.5, 1.0, 2.0)
    assert bset.beta_21 == pytest.approx(1.0 / 3.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Stack construction


def test_stack_validation_errors():
    with pytest.raises(StackError):
        el.DielectricStack(2.0, 1.0, 5.0, 1.0, 1.0)  # a == b
    with pytest.raises(StackError):
        el.DielectricStack(2.0, 1.0, 5.0, 2.0, 1.0)  # a > b
    with pytest.raises(StackError):
        el.DielectricStack(2.0, el.METAL, 5.0, 0.0, 1.0)  # metal slab
    with pytest.raises(StackError):
        el.DielectricStack(2.0, 0.0, 5.0, 0.0, 1.0)
    with pytest.raises(StackError):
        el.DielectricStack(-3.0, 1.0, 5.0, 0.0, 1.0)
    with pytest.raises(StackError):
        el.beta_coefficients(2.0, el.METAL, 5.0)


# ---------------------------------------------------------------------------
# Image generation


def test_image_chain_first_orders():
    st = el.DielectricStack(2.0, 1.0, 5.0, 0.0, 1.0)
    imgs = el.generate_images(st, 0.4, q=1.0, max_order=2)
    by_key = {(i.order, i.side): i for i in imgs}
    assert len(imgs) == 4
    first_left = by_key[(1, el.Side.LEFT)]
    assert first_left.z_nm == pytest.approx(-0.4, abs=1e-15)
    assert first_left.q == pytest.approx(-1.0 / 3.0, rel=1e-15)
    first_right = by_key[(1, el.Side.RIGHT)]
    assert first_right.z_nm == pytest.approx(1.6, abs=1e-15)
    assert first_right.q == pytest.approx(-2.0 / 3.0, rel=1e-15)
    # second mirrors: the left chain crosses b, the right chain crosses a
    assert by_key[(2, el.Side.RIGHT)].z_nm == pytest.approx(2.4, abs=1e-15)
    assert by_key[(2, el.Side.RIGHT)].q == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert by_key[(2, el.Side.LEFT)].z_nm == pytest.approx(-1.6, abs=1e-15)
    assert by_key[(2, el.Side.LEFT)].q == pytest.approx(2.0 / 9.0, rel=1e-15)


def test_image_sides_and_round_trip_ratio():
    st = el.DielectricStack(3.0, 1.5, el.METAL, -0.25, 0.55)
    bset = el.beta_coefficients(st.k1, st.k2, st.k3)
    imgs = el.generate_images(st, 0.1, q=1.0, max_order=9)
    assert all(i.z_nm < st.a_nm for i in imgs if i.side is el.Side.LEFT)
    assert all(i.z_nm > st.b_nm for i in imgs if i.side is el.Side.RIGHT)
    # two extra reflections multiply any image magnitude by the round-trip ratio
    for side in (el.Side.LEFT, el.Side.RIGHT):
        q_by_order = {i.order: i.q for i in imgs if i.side is side}
        for order in range(1, 8):
            assert q_by_order[order + 2] == pytest.approx(
                q_by_order[order] * bset.ratio, rel=1e-14
            )
    with pytest.raises(ValueError):
        el.generate_images(st, 0.1, max_order=0)


def scalar_image_groups(z0, a, b, bset):
    """Reference for the images route: its groups one at a time from the
    alternating-reflection recursion on Python floats."""
    b21, b23 = bset.beta_21, bset.beta_23
    pa, ma, pb, mb = 2.0 * a - z0, b21, 2.0 * b - z0, b23
    while True:
        # chain A: odd order (left of a), then even order (right of b)
        acc = ma / abs(z0 - pa) + mb / abs(pb - z0)
        pa, ma = 2.0 * b - pa, ma * b23
        pb, mb = 2.0 * a - pb, mb * b21
        yield acc + (ma / abs(pa - z0) + mb / abs(z0 - pb))
        pa, ma = 2.0 * a - pa, ma * b21
        pb, mb = 2.0 * b - pb, mb * b23


def scalar_block(z0, a, b, bset):
    """``_image_groups``' block function, served from the reference."""
    groups = scalar_image_groups(z0, a, b, bset)

    def block(n0, n1, out, _tmp):
        out[:] = np.fromiter(islice(groups, n1 - n0), float, n1 - n0)

    return block


# dielectric-dielectric, metal-dielectric, and a contrast of 2e4 against a
# metal, whose first block leaves the rest to the tail at 1e-10
BITWISE_STACKS = [
    el.DielectricStack(1.5, 8.0, 1.2, -0.3, 2.7),
    el.DielectricStack(el.METAL, 2.0, 7.5, 0.0, 0.3),
    el.DielectricStack(el.METAL, 1.0, 2.0e4, 0.0, 1.0),
]


@pytest.mark.parametrize("stack", BITWISE_STACKS, ids=["dielectric", "metal", "high_contrast"])
def test_image_groups_equal_the_scalar_recursion(stack, monkeypatch):
    z0_nm = stack.a_nm + 0.4 * stack.c_nm
    z0, a, b, _, bset = el._slab_geometry_au(stack, z0_nm)
    # the engine's own calls at one point, to 32,704 groups: past the chunk
    # boundaries inside the larger blocks and the doubling block boundaries
    block, calls = el._image_groups(float(z0), a, b, bset), []

    def recorded(n0, n1, out, tmp):
        block(n0, n1, out, tmp)
        calls.append((n0, n1, out.copy()))

    n = el._sum_grouped(recorded, lambda n: math.inf if n < 20_000 else 0.0, None, 1.0e-10,
                        lambda s: s, ())[1]
    assert [c[0] for c in calls[1:]] == [c[1] for c in calls[:-1]] and calls[-1][1] == n
    assert max(c[1] - c[0] for c in calls) == el._CHUNK_GROUPS
    expected = np.fromiter(islice(scalar_image_groups(float(z0), a, b, bset), n), float, n)
    assert np.array_equal(np.concatenate([c[2] for c in calls]), expected)
    # and the whole route: the same sum, group count and bound
    fast = el.potential_slab_images(stack, z0_nm)
    monkeypatch.setattr(el, "_image_groups", scalar_block)
    assert el.potential_slab_images(stack, z0_nm) == fast


def test_generate_images_equals_the_scalar_recursion():
    st = el.DielectricStack(3.0, 1.5, el.METAL, -0.25, 0.55)
    z0, q = 0.1, -0.7
    bset = el.beta_coefficients(st.k1, st.k2, st.k3)
    b21, b23 = bset.beta_21, bset.beta_23
    a, b = st.a_nm, st.b_nm
    pos_a, mag_a, pos_b, mag_b = 2.0 * a - z0, b21 * q, 2.0 * b - z0, b23 * q
    expected = []
    for order in range(1, 42):
        left = order % 2 == 1
        expected += [(pos_a, mag_a, el.Side.LEFT if left else el.Side.RIGHT, order),
                     (pos_b, mag_b, el.Side.RIGHT if left else el.Side.LEFT, order)]
        wa, wb, fa, fb = (b, a, b23, b21) if left else (a, b, b21, b23)
        pos_a, mag_a, pos_b, mag_b = 2.0 * wa - pos_a, mag_a * fa, 2.0 * wb - pos_b, mag_b * fb
    got = el.generate_images(st, z0, q=q, max_order=41)
    assert [(i.z_nm, i.q, i.side, i.order) for i in got] == expected


# ---------------------------------------------------------------------------
# Route agreement inside the slab


MIXED_STACKS = [
    el.DielectricStack(2.0, 1.0, 5.0, 0.0, 1.0),
    el.DielectricStack(12.9, 1.0, el.METAL, 0.0, 2.5),
    el.DielectricStack(el.METAL, 1.0, el.METAL, 0.0, 0.75),
    el.DielectricStack(1.5, 8.0, 1.2, -0.3, 2.7),
    el.DielectricStack(el.METAL, 2.0, 7.5, 0.0, 0.3),
]


def test_three_routes_agree_on_mixed_stacks():
    for st in MIXED_STACKS:
        for frac in (0.2, 0.5, 0.8):
            z0 = st.a_nm + frac * st.c_nm
            vs = el.potential_slab_series(st, z0).v
            vi = el.potential_slab_images(st, z0).v
            vq = el.potential_kernel_quadrature(st, z0).v
            scale = max(abs(vs), abs(vi), abs(vq))
            assert abs(vs - vi) / scale < 1e-10, (st, frac)
            assert abs(vs - vq) / scale < 1e-8, (st, frac)


def test_uniform_stack_gives_zero():
    st = el.DielectricStack(3.0, 3.0, 3.0, 0.0, 1.0)
    assert el.potential_slab_series(st, 0.4).v == 0.0
    assert el.potential_slab_images(st, 0.4).v == 0.0
    assert abs(el.potential_kernel_quadrature(st, 0.4).v) < 1e-12


def test_matched_left_interface_reduces_to_single_image():
    # k1 == k2: only the right interface reflects, once
    st = el.DielectricStack(3.0, 3.0, 7.0, 0.0, 2.0)
    z0 = 0.6
    expected = (
        el.beta_coefficients(3.0, 3.0, 7.0).beta_23
        / (2.0 * nm_to_bohr(st.b_nm - z0))
        / st.k2
        * HARTREE_EV
    )
    assert rel(el.potential_slab_series(st, z0).v, expected) < 1e-12
    assert rel(el.potential_slab_images(st, z0).v, expected) < 1e-12
    assert rel(el.potential_kernel_quadrature(st, z0).v, expected) < 1e-8


def test_double_metal_center_closed_form():
    # midway between grounded plates the image ladder sums to -2 ln2 / c
    st = el.DielectricStack(el.METAL, 1.0, el.METAL, 0.0, 0.75)
    expected = -2.0 * math.log(2.0) / nm_to_bohr(0.75) * HARTREE_EV
    assert rel(el.potential_slab_series(st, 0.375).v, expected) < 1e-13
    assert rel(el.potential_slab_images(st, 0.375).v, expected) < 1e-13
    assert rel(el.potential_kernel_quadrature(st, 0.375).v, expected) < 1e-8


def test_far_interface_drops_out():
    # push the right interface far away: the result approaches the
    # single-interface image value at the near wall, with O(1/c) error
    st = el.DielectricStack(2.0, 5.0, 7.0, 0.0, 500.0)
    z0 = 0.5
    b21 = (5.0 - 2.0) / 7.0
    expected = b21 / (2.0 * nm_to_bohr(z0)) / st.k2 * HARTREE_EV
    assert rel(el.potential_slab_series(st, z0).v, expected) < 1e-3


def test_mirror_symmetry():
    st = el.DielectricStack(2.0, 1.0, 5.0, 0.0, 1.0)
    mirrored = el.DielectricStack(5.0, 1.0, 2.0, 0.0, 1.0)
    for z0 in (0.15, 0.4, 0.7):
        assert rel(
            el.potential_slab_series(st, z0).v,
            el.potential_slab_series(mirrored, 1.0 - z0).v,
        ) < 1e-13


def test_source_charge_scaling_and_energy():
    st = el.DielectricStack(2.0, 1.0, 5.0, 0.0, 1.0)
    one = el.potential_slab_series(st, 0.4, q=1.0)
    two = el.potential_slab_series(st, 0.4, q=2.0)
    assert two.v == pytest.approx(2.0 * one.v, rel=1e-14)
    assert one.energy_ev(3.0) == pytest.approx(3.0 * one.v, rel=1e-15)
    assert two.energy_ev(2.0) == pytest.approx(4.0 * one.v, rel=1e-14)


def test_interior_guard_raises():
    st = el.DielectricStack(2.0, 1.0, 5.0, 0.0, 1.0)
    for z0 in (-0.5, 0.0, 1.0, 1.5, 1e-6, 1.0 - 1e-6):
        with pytest.raises(SingularityError):
            el.potential_slab_series(st, z0)
        with pytest.raises(SingularityError):
            el.potential_kernel_quadrature(st, z0)
    with pytest.raises(SingularityError):
        el.slab_potential_curve(st, np.array([0.4, 1.0 - 1e-6]))


def test_truncation_bound_is_certified_and_relative():
    st = el.DielectricStack(7.0, 1.5, 3.0, 0.0, 0.75)
    res = el.potential_slab_series(st, 0.3)
    assert res.terms_used >= 1
    assert 0.0 <= res.truncation_error_bound <= 1e-10
    # the remainder between two metals is exact: no truncation error
    metal = el.potential_slab_series(el.DielectricStack(el.METAL, 1.0, el.METAL, 0.0, 0.75), 0.3)
    assert metal.truncation_error_bound == 0.0
    # a slowly converging ladder: the certified relative bound, the
    # Euler-Maclaurin remainder's after one block, keeps each value within
    # its promise
    slow = el.DielectricStack(el.METAL, 1.0, 500.0, 0.0, 1.0)
    tight = el.potential_slab_series(slow, 0.4, tol=1e-12)
    loose = el.potential_slab_series(slow, 0.4, tol=1e-4)
    assert tight.truncation_error_bound <= 1e-12
    assert loose.truncation_error_bound <= 1e-4
    assert abs(loose.v - tight.v) <= 2e-4 * abs(tight.v)


def test_first_block_rows_do_not_move_without_the_tail(monkeypatch):
    # the README's dielectric stack converges in its first block: the tail is
    # never added, so every slab route gives the same floats without it
    st, z = el.DielectricStack(2.0, 1.0, 5.0, 0.0, 1.0), np.linspace(0.1, 0.9, 17)
    routes = (el.potential_slab_series, el.potential_slab_images)
    with_tail = [fn(st, float(z0)) for fn in routes for z0 in z] + [el.slab_potential_curve(st, z)]
    assert {r.terms_used for r in with_tail[:-1]} == {64}
    engine = el._sum_grouped
    monkeypatch.setattr(el, "_sum_grouped",
                        lambda block, bound, tail, *rest: engine(block, bound, None, *rest))
    without = [fn(st, float(z0)) for fn in routes for z0 in z] + [el.slab_potential_curve(st, z)]
    assert with_tail[:-1] == without[:-1]
    assert np.array_equal(with_tail[-1], without[-1])


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("s", [1.0e-4, 0.5, 1.0])
@pytest.mark.parametrize("rho", [0.5, 0.9, 0.99, 0.999, -0.5, -0.9, -0.99, -0.999])
def test_lerch_tail_is_within_its_certified_bound(rho, s, n):
    got, err = el._lerch_tail(rho, n, s)
    want = reference.lerch_tail(rho, n, s)
    assert err >= 0.0
    assert abs(got - want) <= err + 4.0 * np.finfo(float).eps * abs(want)


NAN_CALLS = [
    el.potential_slab_series,
    el.potential_slab_images,
    el.potential_kernel_quadrature,
    el.slab_potential_curve,
    el.plate_plate_energy,
    el.plate_plate_curve,
    el.generate_images,
]


@pytest.mark.parametrize("fn", NAN_CALLS, ids=[fn.__name__ for fn in NAN_CALLS])
def test_nan_position_raises_at_once(fn):
    st = el.DielectricStack(2.0, 1.0, 5.0, 0.0, 1.0)
    with pytest.raises(SingularityError):
        fn(st, math.nan)


CHARGE_CALLS = NAN_CALLS + [el.potential_left_halfplane, el.halfplane_potential_curve]


def test_three_routes_return_the_same_types():
    st = el.DielectricStack(2.0, 1.0, 5.0, 0.0, 1.0)
    for fn in (el.potential_slab_series, el.potential_slab_images, el.potential_kernel_quadrature):
        got = fn(st, 0.4)
        assert [type(x) for x in (got.v, got.terms_used, got.truncation_error_bound)] == [
            float, int, float], fn.__name__


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", CHARGE_CALLS, ids=[fn.__name__ for fn in CHARGE_CALLS])
def test_nonfinite_charge_raises_at_once(fn, q):
    st = el.DielectricStack(2.0, 1.0, 5.0, 0.0, 1.0)
    with pytest.raises(DomainError, match="charge q must be finite"):
        fn(st, 0.5, q=q)


@pytest.mark.parametrize("tol", [-1.0, -math.inf, math.nan, 0.0, math.inf, 1.0, 2.0])
@pytest.mark.parametrize("fn", [el.potential_slab_series, el.potential_slab_images])
def test_tolerance_outside_the_unit_interval_raises_before_any_group(fn, tol, monkeypatch):
    def no_sum(*args, **kwargs):
        raise AssertionError("a group was summed")

    monkeypatch.setattr(el, "_sum_grouped", no_sum)
    with pytest.raises(DomainError, match=r"tol must lie in \(0, 1\)"):
        fn(el.DielectricStack(2.0, 1.0, 5.0, 0.0, 1.0), 0.4, tol=tol)


# Reflection product 1 - 1e-11: just inside the allowed range, but the grouped
# series would need ~1e11 groups, far past the term cap.  The slab routes end
# after one block with the Euler-Maclaurin tail; the others keep their groups.
NEAR_UNIT = el.DielectricStack(el.METAL, 1.0, 2.0e11, 0.0, 1.0)
NEAR_UNIT_MIRROR = el.DielectricStack(2.0e11, 1.0, el.METAL, 0.0, 1.0)
TAIL_CALLS = [
    (el.potential_slab_series, NEAR_UNIT, 0.4),
    (el.potential_slab_images, NEAR_UNIT, 0.4),
    (el.slab_potential_curve, NEAR_UNIT, np.array([0.3, 0.4])),
]
CAPPED_CALLS = [
    (el.potential_left_halfplane, NEAR_UNIT_MIRROR, 0.4),
    (el.halfplane_potential_curve, NEAR_UNIT_MIRROR, np.array([0.3, 0.4])),
    (el.plate_plate_energy, NEAR_UNIT, 0.4),
    (el.plate_plate_curve, NEAR_UNIT, np.array([0.3, 0.4])),
]


@pytest.mark.parametrize(
    "fn, stack, where", TAIL_CALLS, ids=[call[0].__name__ for call in TAIL_CALLS]
)
def test_near_unit_slabs_end_in_the_tail_and_agree_with_the_quadrature(fn, stack, where):
    # criterion 01's tolerances: within 1e-10 of the series, 1e-6 of the quadrature
    result = fn(stack, where)
    got = np.atleast_1d(result.v if isinstance(result, el.PotentialValue) else result)
    for z0, v in zip(np.atleast_1d(where), got):
        series = el.potential_slab_series(stack, float(z0))
        assert series.terms_used == 64
        assert abs(v - series.v) <= 1e-10 * abs(series.v)
        assert abs(v - el.potential_kernel_quadrature(stack, float(z0)).v) <= 1e-6 * abs(v)


@pytest.mark.parametrize(
    "fn, stack, where", CAPPED_CALLS, ids=[call[0].__name__ for call in CAPPED_CALLS]
)
def test_term_cap_raises_with_diagnostics(fn, stack, where):
    with pytest.raises(ConvergenceError) as info:
        fn(stack, where)
    err = info.value
    assert err.terms >= 1_000_000
    assert err.estimate is not None and np.all(np.isfinite(err.estimate))
    assert err.error_bound is not None and np.max(err.error_bound) > 1e-10


def test_quadrature_stall_raises_with_diagnostics():
    # near-zero permittivities on both sides: the panel refinement ends its
    # rounds short of the tolerance
    with pytest.raises(ConvergenceError, match="quadrature stalled") as info:
        el.potential_kernel_quadrature(el.DielectricStack(1e-11, 1.0, 1e-11, 0.0, 1.0), 0.5)
    err = info.value
    assert math.isfinite(err.estimate) and err.terms > 0
    assert 1e-10 < err.error_bound < 1.0


# Reflection products that round to exactly 1 with no metal behind them: the
# half-plane series (k1 = 1e17 over a metal back), and the slab and plate-plate
# series (k2 = 1e17 between unit permittivities) have no exact remainder to
# use.  In the slab both coefficients round to +1; the slab's remainder is
# derived for two metals, -1 and -1.
UNIT_MIRROR = el.DielectricStack(1.0e17, 1.0, el.METAL, 0.0, 1.0)
UNIT_SLAB = el.DielectricStack(1.0, 1.0e17, 1.0, 0.0, 1.0)
UNIT_CALLS = [
    (el.potential_left_halfplane, UNIT_MIRROR, 0.4),
    (el.halfplane_potential_curve, UNIT_MIRROR, np.array([0.3, 0.4])),
    (el.potential_slab_series, UNIT_SLAB, 0.4),
    (el.potential_slab_images, UNIT_SLAB, 0.4),
    (el.slab_potential_curve, UNIT_SLAB, np.array([0.3, 0.4])),
    (el.plate_plate_energy, UNIT_SLAB, 0.4),
    (el.plate_plate_curve, UNIT_SLAB, np.array([0.3, 0.4])),
]


@pytest.mark.parametrize(
    "fn, stack, where", UNIT_CALLS, ids=[call[0].__name__ for call in UNIT_CALLS]
)
def test_unit_ratio_without_remainder_raises_at_once(fn, stack, where):
    with pytest.raises(ConvergenceError, match="too close to unit magnitude") as info:
        fn(stack, where)
    assert info.value.terms is None


# ---------------------------------------------------------------------------
# Charge outside the slab


def test_halfplane_matches_transmission_oracle():
    for k1, k2, k3 in [(12.9, 1.0, el.METAL), (5.0, 2.0, 30.0), (2.0, 8.0, 1.3)]:
        st = el.DielectricStack(k1, k2, k3, 0.0, 5.0)
        for d in (0.05, 1.0, 40.0):
            got = el.potential_left_halfplane(st, d).v
            assert rel(got, transmission_oracle(k1, k2, k3, d, 5.0)) < 1e-9


def test_halfplane_far_field_is_metal_screened():
    # far from a thin slab on metal, only the net grounded plane remains
    st = el.DielectricStack(12.9, 1.0, el.METAL, 0.0, 5.0)
    d = 5.0e4
    limit = -1.0 / (2.0 * nm_to_bohr(d)) / st.k1 * HARTREE_EV
    dev1 = abs(el.potential_left_halfplane(st, d).v / limit - 1.0)
    assert dev1 < 5e-3
    limit10 = -1.0 / (2.0 * nm_to_bohr(10.0 * d)) / st.k1 * HARTREE_EV
    dev2 = abs(el.potential_left_halfplane(st, 10.0 * d).v / limit10 - 1.0)
    assert 5.0 < dev1 / dev2 < 20.0  # deviation shrinks like 1/d


def test_halfplane_validation():
    st = el.DielectricStack(el.METAL, 1.0, 5.0, 0.0, 5.0)
    with pytest.raises(StackError):
        el.potential_left_halfplane(st, 1.0)
    ok = el.DielectricStack(2.0, 1.0, 5.0, 0.0, 5.0)
    with pytest.raises(SingularityError):
        el.potential_left_halfplane(ok, 0.0)
    with pytest.raises(SingularityError):
        el.potential_left_halfplane(ok, -1.0)


def test_halfplane_curve_matches_scalar():
    st = el.DielectricStack(5.0, 2.0, 30.0, 0.0, 5.0)
    d = np.array([0.05, 1.0, 40.0])
    curve = el.halfplane_potential_curve(st, d)
    for i, one in enumerate(d):
        assert rel(curve[i], el.potential_left_halfplane(st, float(one)).v) < 1e-12
    with pytest.raises(SingularityError):
        el.halfplane_potential_curve(st, np.array([1.0, -2.0]))


# ---------------------------------------------------------------------------
# Plate-plate interaction


def test_plate_plate_matches_pair_sum():
    st = el.DielectricStack(7.0, 1.5, 3.0, 0.0, 0.75)
    for z0 in (0.2, 0.375, 0.6):
        got = el.plate_plate_energy(st, z0)
        assert rel(got, pair_sum_oracle(st, z0, order=200)) < 1e-11


def test_plate_plate_double_metal_closed_form():
    st = el.DielectricStack(el.METAL, 1.0, el.METAL, 0.0, 0.75)
    center = (2.0 * math.log(2.0) - 1.0) / (2.0 * nm_to_bohr(0.75)) * HARTREE_EV
    assert rel(el.plate_plate_energy(st, 0.375), center) < 1e-12
    # off center: pair sums converge only like order^-2, so extrapolate
    z0 = 0.25
    s1 = pair_sum_oracle(st, z0, order=800)
    s2 = pair_sum_oracle(st, z0, order=1600)
    richardson = 2.0 * s2 - s1
    got = el.plate_plate_energy(st, z0)
    assert rel(got, richardson) < 5e-6
    # and doubling the extrapolation depth tightens the match
    s4 = pair_sum_oracle(st, z0, order=3200)
    assert rel(got, 2.0 * s4 - s2) < 2e-6


def test_plate_plate_zero_without_second_interface():
    st = el.DielectricStack(4.0, 2.0, 2.0, 0.0, 1.0)
    assert el.plate_plate_energy(st, 0.5) == 0.0
    assert np.all(el.plate_plate_curve(st, np.array([0.3, 0.5])) == 0.0)


def test_plate_plate_scaling_symmetry_positivity():
    st = el.DielectricStack(el.METAL, 1.0, el.METAL, 0.0, 0.75)
    base = el.plate_plate_energy(st, 0.3)
    assert el.plate_plate_energy(st, 0.3, q=2.0) == pytest.approx(4.0 * base, rel=1e-13)
    z = np.linspace(0.075, 0.675, 41)
    u = el.plate_plate_curve(st, z)
    assert np.all(u > 0.0)
    assert np.max(np.abs(u - u[::-1])) < 1e-12
    finite = el.DielectricStack(7.0, 1.5, 3.0, 0.0, 0.75)
    mirrored = el.DielectricStack(3.0, 1.5, 7.0, 0.0, 0.75)
    assert rel(
        el.plate_plate_energy(finite, 0.2), el.plate_plate_energy(mirrored, 0.55)
    ) < 1e-13


def test_plate_plate_curve_matches_scalar():
    finite = el.DielectricStack(7.0, 1.5, 3.0, 0.0, 0.75)
    metal = el.DielectricStack(el.METAL, 1.0, el.METAL, 0.0, 0.75)
    z = np.array([0.1, 0.2, 0.375, 0.55])
    for st in (finite, metal):
        curve = el.plate_plate_curve(st, z)
        for i, z0 in enumerate(z):
            assert abs(curve[i] - el.plate_plate_energy(st, float(z0))) < 1e-11


def test_slab_curve_matches_scalar():
    for st in MIXED_STACKS:
        z = st.a_nm + np.array([0.2, 0.5, 0.8]) * st.c_nm
        curve = el.slab_potential_curve(st, z)
        for i, z0 in enumerate(z):
            assert rel(curve[i], el.potential_slab_series(st, float(z0)).v) < 1e-12


# ---------------------------------------------------------------------------
# The grouped-series engine


def whole_block_sum_grouped(block_fn, bound_fn, tail_fn, tol, to_api, shape):
    """Reference for ``_sum_grouped``: the same blocks, stop tests and tail,
    but each block drawn and summed as one (groups, points) array."""
    total, n, block = 0.0, 0, el._BLOCK0
    while True:
        g = np.empty((block,) + shape)
        block_fn(n, n + block, g, np.empty_like(g))
        total = total + g.sum(axis=0)
        n += block
        scale = np.maximum(np.abs(total), el._TINY)
        bound = bound_fn(n)
        if (bound <= tol * scale).all():
            return to_api(total), n, bound / scale
        if tail_fn is not None:
            tail, bound = tail_fn(n)
            scale = np.maximum(np.abs(total + tail), el._TINY)
            if (bound <= tol * scale).all():
                return to_api(total + tail), n, bound / scale
        assert n < el._TERM_CAP
        block = min(2 * block, el._BLOCK_MAX)


GAAS_GAP = el.DielectricStack(12.9, 1.0, el.METAL, 0.0, 1.0)  # the Schottky profile's stack
# 262,080 groups for the plate-plate sum, one block and the tail for the slab
HIGH_CONTRAST = el.DielectricStack(el.METAL, 1.0, 2.0e4, 0.0, 1.0)
CURVE_FAMILIES = {
    "slab_dielectric": (el.slab_potential_curve, el.DielectricStack(1.5, 8.0, 1.2, -0.3, 2.7)),
    "slab_two_metal": (el.slab_potential_curve, el.DielectricStack(el.METAL, 1.0, el.METAL, 0.0, 0.75)),
    "halfplane_gaas": (el.halfplane_potential_curve, GAAS_GAP),
    "plate_finite": (el.plate_plate_curve, el.DielectricStack(7.0, 1.5, 3.0, 0.0, 0.75)),
}


def curve_points(fn, stack, points):
    if fn is el.halfplane_potential_curve:
        return np.linspace(0.0, 60.0, points + 1)[1:]
    return stack.a_nm + np.linspace(0.01, 0.99, points) * stack.c_nm


@pytest.mark.parametrize("points", [0, 1, 2, 3, 17, 2000, 4000])
@pytest.mark.parametrize("family", sorted(CURVE_FAMILIES))
def test_curves_equal_the_whole_block_engine(family, points, monkeypatch):
    # a block of 64 groups spans 5 chunks at 4000 points and one at up to
    # 1024 points; one point sums each block pairwise, more points in order
    fn, stack = CURVE_FAMILIES[family]
    z = curve_points(fn, stack, points)
    chunked = fn(stack, z)
    monkeypatch.setattr(el, "_sum_grouped", whole_block_sum_grouped)
    assert np.array_equal(chunked, fn(stack, z))


def test_chunked_blocks_past_the_chunk_size_equal_the_whole_block_engine(monkeypatch):
    # a chunk holds 4,096 groups at 2 points, a sixteenth of the largest block
    z = np.array([0.3, 0.4])
    sums = []

    def recorded(engine):
        def run(*args):
            sums.append(engine(*args))
            return sums[-1]

        return run

    monkeypatch.setattr(el, "_sum_grouped", recorded(el._sum_grouped))
    el.plate_plate_curve(HIGH_CONTRAST, z)
    assert sums[-1][1] > el._BLOCK_MAX
    monkeypatch.setattr(el, "_sum_grouped", recorded(whole_block_sum_grouped))
    el.plate_plate_curve(HIGH_CONTRAST, z)
    assert [np.array_equal(x, y) for x, y in zip(sums[0], sums[1])] == [True] * 3


def traced_peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_curve_memory_stays_at_the_chunk_buffers():
    # two buffers of 65,536 floats are 1 MiB; a whole block of 64 groups x
    # 4000 points is 2 MiB, and the high-contrast plate-plate sum's blocks
    # reach 65,536 groups, 50 MiB at 100 points
    assert traced_peak_mib(el.halfplane_potential_curve, GAAS_GAP,
                           np.linspace(0.0, 60.0, 4001)[1:]) <= 2.0
    assert traced_peak_mib(el.plate_plate_curve, HIGH_CONTRAST,
                           np.linspace(0.05, 0.95, 100)) <= 4.0


@pytest.mark.parametrize("fn", [el.potential_slab_series, el.potential_slab_images,
                                el.plate_plate_energy])
def test_one_point_memory_stays_at_the_chunk_groups(fn):
    # 262,080 plate-plate groups at one point: chunks of 4,096 groups keep
    # it near 0.2 MiB, where blocks of up to 65,536 groups drawn as one chunk
    # took 1.9-3.5 MiB; the slab routes sum one block and the tail
    assert traced_peak_mib(fn, HIGH_CONTRAST, 0.4) <= 1.0


def direct_term_ladder_block(da, db, c, rho, beta_a, beta_b, direct):
    """Reference for ``_ladder``'s block: its formula with the direct term
    added to every group, whether or not it is 0.0."""

    def block(n0, n1, out, _tmp):
        n = np.arange(n0, n1, dtype=float).reshape((-1,) + (1,) * np.ndim(da))
        out[...] = (beta_b / (2.0 * n * c + 2.0 * db) + direct / ((n + 1.0) * c)
                    + beta_a / (2.0 * n * c + 2.0 * da)) * np.power(rho, n)

    return block


@pytest.mark.parametrize("family", ["halfplane_gaas", "slab_dielectric"])
def test_ladder_blocks_equal_the_direct_term_formula(family, monkeypatch):
    # the half-plane ladder's direct term is 0.0, the slab ladder's is rho
    fn, stack = CURVE_FAMILIES[family]
    z = curve_points(fn, stack, 4000)
    ladder, chunks = el._ladder, []

    def checked_ladder(*args):
        block, bound, tail = ladder(*args)
        reference = direct_term_ladder_block(*args)

        def both(n0, n1, out, tmp):
            block(n0, n1, out, tmp)
            expected = np.empty_like(out)
            reference(n0, n1, expected, None)
            chunks.append(np.array_equal(out, expected))

        return both, bound, tail

    curve = fn(stack, z)
    monkeypatch.setattr(el, "_ladder", checked_ladder)
    assert np.array_equal(curve, fn(stack, z))
    assert len(chunks) > 1 and all(chunks)
