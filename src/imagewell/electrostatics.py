"""Electrostatics of a point charge near planar dielectric interfaces.

Geometry: region 1 fills z < a, region 2 fills a < z < b (thickness
c = b - a), region 3 fills z > b.  Relative permittivities are k1, k2, k3;
a metal half-space is represented by the sentinel ``METAL`` (infinite
permittivity, reflection coefficient exactly -1).

Three routes to the induced (self-) potential on a charge inside the slab
are provided and are expected to agree:

* ``potential_slab_series``  -- closed-form reflection series, terms grouped
  so each group falls off at least as 1/n^2 even between two metals;
* ``potential_slab_images``  -- explicit image charges built by recursive
  alternating reflection, summed in the same grouping;
* ``potential_kernel_quadrature`` -- wavenumber-space boundary-value solve
  integrated over k, sharing no reflection coefficients with the other two.

``potential_left_halfplane`` gives the induced potential on a charge in
region 1, and ``plate_plate_energy`` the interaction energy between the
image populations on opposite sides of the slab.

Every grouped series runs through one engine that sums all points of an
array at once.  Each scalar function is its curve (``slab_potential_curve``,
``halfplane_potential_curve``, ``plate_plate_curve``) at one point; only the
images route brings its own groups, from the mirror recursion.

Lengths at the API are nanometers; potentials are volts per elementary
charge and energies electron-volts.  Internal sums run in Hartree atomic
units (4*pi*eps0 = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np
from scipy.special import digamma

from .constants import HARTREE_EV, nm_to_bohr
from .errors import ConvergenceError, SingularityError, StackError

METAL = math.inf

# Fraction of the slab thickness a charge must keep clear of an interface.
MIN_OFFSET_FRAC = 1.0e-4

_TERM_CAP = 1_000_000
_BLOCK0 = 64
_BLOCK_MAX = 65536
_TINY = 1.0e-300


def _check_permittivity(k: float, name: str, allow_metal: bool) -> None:
    if k == METAL:
        if not allow_metal:
            raise StackError(f"{name} may not be metal")
        return
    if not (math.isfinite(k) and k > 0.0):
        raise StackError(f"{name} must be a positive real or METAL, got {k!r}")


@dataclass(frozen=True)
class DielectricStack:
    """Three-layer planar stack; interfaces at z = a_nm and z = b_nm."""

    k1: float
    k2: float
    k3: float
    a_nm: float
    b_nm: float

    def __post_init__(self) -> None:
        _check_permittivity(self.k1, "k1", allow_metal=True)
        _check_permittivity(self.k2, "k2", allow_metal=False)
        _check_permittivity(self.k3, "k3", allow_metal=True)
        if not (math.isfinite(self.a_nm) and math.isfinite(self.b_nm)):
            raise StackError("interface positions must be finite")
        if not self.b_nm > self.a_nm:
            raise StackError(f"need a_nm < b_nm, got {self.a_nm} >= {self.b_nm}")

    @property
    def c_nm(self) -> float:
        return self.b_nm - self.a_nm

    @classmethod
    def double_metal(cls, gap_nm: float) -> "DielectricStack":
        """Vacuum slab of width gap_nm between two metal half-spaces."""
        return cls(METAL, 1.0, METAL, 0.0, gap_nm)


def _beta(k_inside: float, k_outside: float) -> float:
    """Reflection coefficient seen from k_inside against k_outside."""
    if k_outside == METAL:
        return -1.0
    return (k_inside - k_outside) / (k_inside + k_outside)


@dataclass(frozen=True)
class BetaSet:
    """Reflection coefficients of a stack.

    For metal half-spaces the product coefficients are stored in their
    K -> infinity limits with the diverging permittivity divided out of both
    numerator and denominator, so ``beta_n / beta_p`` (and likewise
    ``beta_c / beta_p``, ``beta_d / beta_p``) always equals the finite limit.
    """

    beta_21: float
    beta_23: float
    beta_n: float
    beta_p: float
    beta_c: float
    beta_d: float
    ratio: float  # beta_n / beta_p == beta_21 * beta_23


def beta_coefficients(k1: float, k2: float, k3: float) -> BetaSet:
    _check_permittivity(k1, "k1", allow_metal=True)
    _check_permittivity(k2, "k2", allow_metal=False)
    _check_permittivity(k3, "k3", allow_metal=True)
    b21 = _beta(k2, k1)
    b23 = _beta(k2, k3)
    # Factors entering beta_n = (k2-k1)(k2-k3), beta_p = (k2+k1)(k2+k3),
    # beta_c = (k3-k2)(k1+k2), beta_d = (k1-k2)(k2+k3), normalized per metal.
    m1, p1 = ((-1.0, 1.0) if k1 == METAL else (k2 - k1, k2 + k1))
    m3, p3 = ((-1.0, 1.0) if k3 == METAL else (k2 - k3, k2 + k3))
    return BetaSet(
        beta_21=b21,
        beta_23=b23,
        beta_n=m1 * m3,
        beta_p=p1 * p3,
        beta_c=(-m3) * p1,
        beta_d=(-m1) * p3,
        ratio=b21 * b23,
    )


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class ImageCharge:
    """One image: position along z, magnitude in units of the source charge."""

    z_nm: float
    q: float
    side: Side
    order: int  # number of reflections that produced it


@dataclass(frozen=True)
class PotentialValue:
    """Induced potential with convergence diagnostics.

    ``v`` is in volts; multiplying by the source charge (in elementary
    charges) gives the interaction energy in eV.  ``truncation_error_bound``
    is a certified relative bound on the truncation/integration error.
    """

    v: float
    terms_used: int
    truncation_error_bound: float

    def energy_ev(self, q: float) -> float:
        return q * self.v


def generate_images(
    stack: DielectricStack, z0_nm: float, q: float = 1.0, max_order: int = 8
) -> list[ImageCharge]:
    """Build image charges for a source at z0 inside the slab.

    Reflections alternate between the two interfaces; each chain (one per
    first mirror) contributes one image per reflection count up to
    ``max_order``.  Positions are built by the mirror recursion
    z -> 2*z_interface - z with the magnitude picking up the corresponding
    reflection coefficient at each step.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    _require_interior(stack, np.asarray([z0_nm]))
    bset = beta_coefficients(stack.k1, stack.k2, stack.k3)
    a, b = stack.a_nm, stack.b_nm
    images: list[ImageCharge] = []
    # chain A reflects first across a, chain B first across b
    pos_a, mag_a = 2.0 * a - z0_nm, bset.beta_21 * q
    pos_b, mag_b = 2.0 * b - z0_nm, bset.beta_23 * q
    for order in range(1, max_order + 1):
        side_a = Side.LEFT if order % 2 == 1 else Side.RIGHT
        images.append(ImageCharge(pos_a, mag_a, side_a, order))
        images.append(ImageCharge(pos_b, mag_b, Side.RIGHT if side_a is Side.LEFT else Side.LEFT, order))
        if order % 2 == 1:  # next mirror: A crosses b, B crosses a
            pos_a, mag_a = 2.0 * b - pos_a, mag_a * bset.beta_23
            pos_b, mag_b = 2.0 * a - pos_b, mag_b * bset.beta_21
        else:
            pos_a, mag_a = 2.0 * a - pos_a, mag_a * bset.beta_21
            pos_b, mag_b = 2.0 * b - pos_b, mag_b * bset.beta_23
    return images


def _require_interior(stack: DielectricStack, z0_nm: np.ndarray) -> None:
    guard = MIN_OFFSET_FRAC * stack.c_nm
    bad = (z0_nm - stack.a_nm < guard) | (stack.b_nm - z0_nm < guard)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise SingularityError(
            f"charge position {z0_nm.flat[idx]} nm is within {guard} nm of an "
            f"interface of [{stack.a_nm}, {stack.b_nm}] nm"
        )


def _group_index(n0: int, n1: int, ndim: int) -> np.ndarray:
    """Group numbers n0..n1-1 down axis 0, broadcasting against ndim point axes."""
    return np.arange(n0, n1, dtype=float).reshape((-1,) + (1,) * ndim)


def _sum_grouped(block_fn, bound_fn, exact_tail_fn, tol: float, to_api):
    """Sum a grouped series at all points at once.

    ``block_fn(n0, n1)`` gives groups n0..n1-1 as a ``(groups, points)`` array;
    all points share the group count.  Blocks are added until at every point
    the certified majorant ``bound_fn(n)`` of the remainder and the last group
    are within ``tol`` of the sum, or an exact remainder (group ratio 1) is
    added after the first block.  Returns ``(to_api(sum), groups, rel. bound)``.
    """
    total = 0.0
    n = 0
    block = _BLOCK0
    while True:
        g = block_fn(n, n + block)
        total, last = total + g.sum(axis=0), np.abs(g[-1])
        del g  # free this block before the next one is built
        n += block
        if exact_tail_fn is not None:
            return to_api(total + exact_tail_fn(n)), n, 5.0e-16
        scale = np.maximum(np.abs(total), _TINY)
        bound = bound_fn(n)
        if ((bound <= tol * scale) & (last <= tol * scale)).all():
            return to_api(total), n, bound / scale
        if n >= _TERM_CAP:
            raise ConvergenceError(
                f"series not converged after {n} groups (bound {np.max(bound):.3e})",
                estimate=to_api(total), error_bound=bound / scale, terms=n,
            )
        block = min(2 * block, _BLOCK_MAX)


def _slab_geometry_au(stack: DielectricStack, z0_nm):
    z0 = nm_to_bohr(z0_nm)
    a = nm_to_bohr(stack.a_nm)
    b = nm_to_bohr(stack.b_nm)
    bset = beta_coefficients(stack.k1, stack.k2, stack.k3)
    return (z0, a, b, b - a, bset)


def _check_ratio(ratio: float) -> None:
    if ratio != 1.0 and abs(ratio) > 1.0 - 1.0e-12:
        raise ConvergenceError(
            f"reflection product {ratio} too close to unit magnitude; "
            "use METAL for conducting half-spaces"
        )


def _ladder(da, db, c, rho, beta_a, beta_b, direct):
    """Groups and geometric majorant of the reflection ladder
    rho^n [direct/((n+1)c) + beta_b/(2nc + 2db) + beta_a/(2nc + 2da)]
    seen at distances da, db from the two interfaces (atomic units)."""

    def block(n0, n1):
        n = _group_index(n0, n1, np.ndim(da))
        # fixed order (direct + beta_b) + beta_a, in place to spare temporaries
        g = beta_b / (2.0 * n * c + 2.0 * db)
        g += direct / ((n + 1.0) * c)
        g += beta_a / (2.0 * n * c + 2.0 * da)
        return np.power(rho, n) * g

    def bound(n):
        h = (
            abs(direct) / ((n + 1.0) * c)
            + abs(beta_b) / (2.0 * n * c + 2.0 * db)
            + abs(beta_a) / (2.0 * n * c + 2.0 * da)
        )
        return h * abs(rho) ** n / (1.0 - abs(rho))

    return block, bound


def _image_groups(z0: float, a: float, b: float, bset: BetaSet):
    """Yield the groups of explicit image charges for one source at z0, built
    by the alternating-reflection recursion.  The loop runs on Python floats,
    which keeps it about a third faster than on numpy scalars."""
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


def _slab_sum(stack: DielectricStack, z0_nm, q: float, tol: float, images: bool = False):
    """Grouped slab series at positions z0_nm, in volts; the images route
    swaps in its own groups but keeps the majorant and metal remainder."""
    z0_nm = np.asarray(z0_nm, dtype=float)
    _require_interior(stack, z0_nm)
    z0, a, b, c, bset = _slab_geometry_au(stack, z0_nm)
    da, db = z0 - a, b - z0  # distances to the two interfaces
    rho = bset.ratio
    _check_ratio(rho)
    block, bound = _ladder(da, db, c, rho, bset.beta_21, bset.beta_23, rho)
    if images:
        groups = _image_groups(float(z0), a, b, bset)
        block = lambda n0, n1: np.fromiter(islice(groups, n1 - n0), float, n1 - n0)  # noqa: E731

    def metal_tail(n):  # exact remainder past n groups when both coefficients are -1
        return (0.5 * digamma(n + da / c) + 0.5 * digamma(n + db / c) - digamma(n + 1.0)) / c

    tail = metal_tail if rho == 1.0 else None
    return _sum_grouped(block, bound, tail, tol, lambda s: q * s / stack.k2 * HARTREE_EV)


def potential_slab_series(
    stack: DielectricStack, z0_nm: float, q: float = 1.0, tol: float = 1.0e-10
) -> PotentialValue:
    """Induced potential on a charge in the slab, by the reflection series.

    Terms are grouped by round trip so the group sequence behaves like
    ratio^n / n; for |ratio| < 1 a geometric majorant certifies the
    truncation error, while between two metals (ratio == 1) the exact
    remainder is added in closed form.
    """
    v, terms, err = _slab_sum(stack, z0_nm, q, tol)
    return PotentialValue(float(v), terms, float(err))


def potential_slab_images(
    stack: DielectricStack, z0_nm: float, q: float = 1.0, tol: float = 1.0e-10
) -> PotentialValue:
    """Induced potential on a charge in the slab, by summing explicit image
    charges from the alternating-reflection recursion (same grouping and
    tail treatment as the series route, but positions and magnitudes come
    from the recursion rather than closed-form coefficients)."""
    v, terms, err = _slab_sum(stack, z0_nm, q, tol, images=True)
    return PotentialValue(float(v), terms, float(err))


def slab_potential_curve(
    stack: DielectricStack, z0_nm: np.ndarray, q: float = 1.0, tol: float = 1.0e-10
) -> np.ndarray:
    """``potential_slab_series`` evaluated on an array of positions; returns
    volts per elementary charge."""
    return _slab_sum(stack, z0_nm, q, tol)[0]


def _halfplane_sum(stack: DielectricStack, dist_a_nm, q: float, tol: float):
    if stack.k1 == METAL:
        raise StackError("charge cannot sit inside a metal half-space")
    dist_a_nm = np.asarray(dist_a_nm, dtype=float)
    if not (dist_a_nm > 0.0).all():
        raise SingularityError(f"need dist_a_nm > 0, got {np.min(dist_a_nm)}")
    bset = beta_coefficients(stack.k1, stack.k2, stack.k3)
    _check_ratio(bset.ratio)
    b12 = bset.beta_d / bset.beta_p  # (k1-k2)/(k1+k2)
    da = nm_to_bohr(dist_a_nm)
    c = nm_to_bohr(stack.c_nm)
    # the slab ladder seen from region 1: no direct round trip term
    block, bound = _ladder(da, da + c, c, bset.ratio, b12, bset.beta_23, 0.0)
    return _sum_grouped(block, bound, None, tol, lambda s: q * s / stack.k1 * HARTREE_EV)


def potential_left_halfplane(
    stack: DielectricStack,
    dist_a_nm: float,
    dist_b_nm: float | None = None,
    q: float = 1.0,
    tol: float = 1.0e-10,
) -> PotentialValue:
    """Induced potential on a charge sitting in region 1, a distance
    ``dist_a_nm`` left of the first interface.

    The series uses only bounded interface coefficients, so metal region 3
    is handled without any diverging intermediate.  ``dist_b_nm`` (distance
    to the far interface) is redundant and, when given, must equal
    ``dist_a_nm + c``.
    """
    c_nm = stack.c_nm
    if dist_b_nm is not None and abs(dist_b_nm - (dist_a_nm + c_nm)) > 1.0e-9 * c_nm:
        raise SingularityError(
            f"dist_b_nm {dist_b_nm} inconsistent with dist_a_nm + c = {dist_a_nm + c_nm}"
        )
    v, terms, err = _halfplane_sum(stack, dist_a_nm, q, tol)
    return PotentialValue(float(v), terms, float(err))


def halfplane_potential_curve(
    stack: DielectricStack, dist_a_nm: np.ndarray, q: float = 1.0, tol: float = 1.0e-10
) -> np.ndarray:
    """``potential_left_halfplane`` evaluated on an array of distances."""
    return _halfplane_sum(stack, dist_a_nm, q, tol)[0]


# ---------------------------------------------------------------------------
# Wavenumber-space route


def _kernel_integrand(stack: DielectricStack, da: float, db: float, k: np.ndarray) -> np.ndarray:
    """Induced-potential integrand at wavenumbers k (atomic units).

    Per k, solve for the Fourier amplitudes (phi, psi, theta, omega) of the
    correction potential in the three regions.  Rows enforce continuity of
    potential and normal displacement at each interface; a metal half-space
    instead pins the adjacent surface to zero potential and kills its
    outgoing amplitude.  Amplitudes are scaled by their value at the charge
    so every matrix entry stays bounded: ea = exp(-2k da), eb = exp(-2k db).
    """
    k = np.asarray(k, dtype=float)
    ea = np.exp(-2.0 * k * da)
    eb = np.exp(-2.0 * k * db)
    m = k.shape[0]
    A = np.zeros((m, 4, 4))
    rhs = np.zeros((m, 4))
    k1, k2, k3 = stack.k1, stack.k2, stack.k3
    if k1 == METAL:
        A[:, 0, 0] = 1.0
        A[:, 1, 1] = 1.0
        A[:, 1, 2] = eb
        rhs[:, 1] = -1.0
    else:
        A[:, 0, 0], A[:, 0, 1], A[:, 0, 2] = 1.0, -1.0, -eb
        rhs[:, 0] = 1.0
        A[:, 1, 0], A[:, 1, 1], A[:, 1, 2] = k1, k2, -k2 * eb
        rhs[:, 1] = k2
    if k3 == METAL:
        A[:, 2, 3] = 1.0
        A[:, 3, 1], A[:, 3, 2] = ea, 1.0
        rhs[:, 3] = -1.0
    else:
        A[:, 2, 1], A[:, 2, 2], A[:, 2, 3] = ea, 1.0, -1.0
        rhs[:, 2] = -1.0
        A[:, 3, 1], A[:, 3, 2], A[:, 3, 3] = -k2 * ea, k2, k3
        rhs[:, 3] = k2
    x = np.linalg.solve(A, rhs[..., None])[..., 0]
    return ea * x[:, 1] + eb * x[:, 2]


_GAUSS_LO = np.polynomial.legendre.leggauss(12)
_GAUSS_HI = np.polynomial.legendre.leggauss(24)


def _panel_nodes(edges_lo, edges_hi, rule):
    x, w = rule
    mid = 0.5 * (edges_lo + edges_hi)
    half = 0.5 * (edges_hi - edges_lo)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes, weights


def potential_kernel_quadrature(
    stack: DielectricStack, z0_nm: float, q: float = 1.0, rtol: float = 1.0e-10
) -> PotentialValue:
    """Induced potential on a charge in the slab via adaptive panel
    integration of the wavenumber-space boundary-value solution.

    This route never forms reflection coefficients or image positions, so
    it cross-checks the two reflection-based routes independently.
    """
    _require_interior(stack, np.asarray([z0_nm]))
    z0, a, b, c, _ = _slab_geometry_au(stack, z0_nm)
    da, db = z0 - a, b - z0
    d_min = min(da, db)
    k_max = 18.0 / d_min  # exp(-36) cutoff on the fastest-decaying factor
    edges = np.concatenate(([0.0], np.geomspace(k_max * 2.0**-26, k_max, 40)))
    panels = np.stack([edges[:-1], edges[1:]], axis=1)

    def eval_panels(p):
        lo_n, lo_w = _panel_nodes(p[:, 0], p[:, 1], _GAUSS_LO)
        hi_n, hi_w = _panel_nodes(p[:, 0], p[:, 1], _GAUSS_HI)
        f_lo = _kernel_integrand(stack, da, db, lo_n.ravel()).reshape(lo_n.shape)
        f_hi = _kernel_integrand(stack, da, db, hi_n.ravel()).reshape(hi_n.shape)
        vals = (f_hi * hi_w).sum(axis=1)
        errs = np.abs(vals - (f_lo * lo_w).sum(axis=1))
        return vals, errs, lo_n.size + hi_n.size

    vals, errs, n_eval = eval_panels(panels)
    # roundoff level of the panel solves: when the slab is (nearly) matched to
    # its surroundings the integrand is pure machine noise and no amount of
    # panel splitting can reduce the relative error of an exact zero
    noise_floor = 1.0e-16 * k_max
    for _ in range(40):
        total = vals.sum()
        scale = max(abs(total), _TINY)
        if errs.sum() <= max(rtol * scale, noise_floor):
            break
        worst = np.argsort(errs)[-max(2, len(errs) // 8):]
        splits = panels[worst]
        mids = 0.5 * (splits[:, 0] + splits[:, 1])
        new_panels = np.concatenate(
            [
                np.stack([splits[:, 0], mids], axis=1),
                np.stack([mids, splits[:, 1]], axis=1),
            ]
        )
        new_vals, new_errs, extra = eval_panels(new_panels)
        n_eval += extra
        panels = np.concatenate([np.delete(panels, worst, axis=0), new_panels])
        vals = np.concatenate([np.delete(vals, worst), new_vals])
        errs = np.concatenate([np.delete(errs, worst), new_errs])
    else:
        raise ConvergenceError(
            f"quadrature stalled at relative error {errs.sum() / scale:.3e}",
            estimate=q * vals.sum() / stack.k2 * HARTREE_EV,
            error_bound=errs.sum() / scale,
            terms=n_eval,
        )
    total = vals.sum()
    rel = errs.sum() / max(abs(total), _TINY)
    return PotentialValue(q * total / stack.k2 * HARTREE_EV, n_eval, rel)


# ---------------------------------------------------------------------------
# Cross-slab image-image interaction


def _plate_sum(stack: DielectricStack, z0_nm, q: float, tol: float):
    z0_nm = np.asarray(z0_nm, dtype=float)
    _require_interior(stack, z0_nm)
    z0, a, b, c, bset = _slab_geometry_au(stack, z0_nm)
    rho, b21, b23 = bset.ratio, bset.beta_21, bset.beta_23
    if b21 == 0.0 or b23 == 0.0:
        return np.zeros_like(z0_nm)
    _check_ratio(rho)
    da, db = z0 - a, b - z0
    to_ev = lambda s: q * q * s / stack.k2 * HARTREE_EV  # noqa: E731
    if b21 == -1.0 and b23 == -1.0:  # two metals: the remainder from group 0 is exact
        v = da / c
        s = 0.5 * v * digamma(1.0 + v) - 0.5 * digamma(2.0) + 0.5 * (1.0 - v) * digamma(2.0 - v)
        return to_ev(-s / c)

    def block(t0, t1):
        t = _group_index(t0, t1, np.ndim(da))
        return (t + 1.0) * np.power(rho, t + 1.0) * (
            b21 / (2.0 * da + 2.0 * (t + 1.0) * c)
            + 1.0 / (2.0 * (t + 1.0) * c)
            + rho / (2.0 * (t + 2.0) * c)
            + b23 / (2.0 * db + 2.0 * (t + 1.0) * c)
        )

    def bound(t):
        return 2.0 * abs(rho) ** (t + 1.0) / (c * (1.0 - abs(rho)))

    return _sum_grouped(block, bound, None, tol, to_ev)[0]


def plate_plate_energy(
    stack: DielectricStack, z0_nm: float, q: float = 1.0, tol: float = 1.0e-10
) -> float:
    """Interaction energy (eV) between the image population left of the slab
    and the one right of it, for a charge at z0 inside the slab;
    ``plate_plate_curve`` at one point.

    Pairs are taken strictly across the slab (one partner on each side); the
    real charge itself is not a partner.  Terms are grouped by the combined
    reflection depth of the pair, which decays geometrically for |ratio| < 1
    and like 1/s^3 between two metals, where the whole sum is the exact
    digamma remainder from the first group on.
    """
    return float(_plate_sum(stack, z0_nm, q, tol))


def plate_plate_curve(
    stack: DielectricStack, z0_nm: np.ndarray, q: float = 1.0, tol: float = 1.0e-10
) -> np.ndarray:
    """``plate_plate_energy`` (eV) evaluated on an array of slab positions;
    all positions share one grouped summation."""
    return _plate_sum(stack, z0_nm, q, tol)
