"""Property tests for the two reflection-sum routes of the slab potential.

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
from hypothesis import given, strategies as st  # noqa: E402

from imagewell import electrostatics as el  # noqa: E402
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
