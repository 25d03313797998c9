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
  integrated over k, sharing no reflection coefficients with the other two;
  the 4x4 interface systems of all quadrature nodes are solved together by
  one Gaussian elimination without pivoting, its rows ordered so that every
  pivot is positive.

``potential_left_halfplane`` gives the induced potential on a charge in
region 1, and ``plate_plate_energy`` the interaction energy between the
image populations on opposite sides of the slab.

Every grouped series runs through one engine that sums all points of an
array at once.  Each scalar function is its curve (``slab_potential_curve``,
``halfplane_potential_curve``, ``plate_plate_curve``) at one point; only the
images route brings its own groups, block by block from the mirror recursion
run as array sums and products (``_mirror_chains``, which ``generate_images``
shares).  The engine owns the memory of every sum: a block function writes
groups into two buffers of about ``_CHUNK`` elements, made once per sum, and
the engine folds chunk after chunk into the block's sum in group order, to
the same floats as one sum over the whole (groups, points) block.

Lengths at the API are nanometers; potentials are volts per elementary
charge and energies electron-volts.  Internal sums run in Hartree atomic
units (4*pi*eps0 = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import digamma

from .constants import HARTREE_EV, nm_to_bohr
from .errors import ConvergenceError, DomainError, SingularityError, StackError

METAL = math.inf

# Fraction of the slab thickness a charge must keep clear of an interface.
MIN_OFFSET_FRAC = 1.0e-4

_TERM_CAP = 1_000_000
_BLOCK0 = 64
_BLOCK_MAX = 65536
# Elements per chunk a block is drawn in: a sum's two chunk buffers (1 MiB)
# stay in cache, where whole (groups, points) blocks reach hundreds of MiB
_CHUNK = 65536
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
    """Reflection coefficients of a stack: -1 exactly at a metal side."""

    beta_21: float
    beta_23: float
    ratio: float  # beta_21 * beta_23


def beta_coefficients(k1: float, k2: float, k3: float) -> BetaSet:
    _check_permittivity(k1, "k1", allow_metal=True)
    _check_permittivity(k2, "k2", allow_metal=False)
    _check_permittivity(k3, "k3", allow_metal=True)
    b21 = _beta(k2, k1)
    b23 = _beta(k2, k3)
    return BetaSet(beta_21=b21, beta_23=b23, ratio=b21 * b23)


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
    bounds the relative truncation error only (a series' certified remainder,
    the quadrature's panel-rule difference); rounding, which on near-matched
    stacks can exceed it, is not in it.
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
    reflection coefficient at each step (``_mirror_chains``).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    _require_source(stack, np.asarray([z0_nm]), q)
    bset = beta_coefficients(stack.k1, stack.k2, stack.k3)
    s, m = _mirror_chains(-float(z0_nm), float(q), stack.a_nm, stack.b_nm, bset,
                          (max_order + 1) // 2)
    pos = (s * _ALTERNATE).reshape(2, -1)[:, :max_order].tolist()
    mag = m.reshape(2, -1)[:, :max_order].tolist()
    images: list[ImageCharge] = []
    for k in range(max_order):  # chain A's odd orders lie left of a, chain B's right of b
        side_a, side_b = (Side.LEFT, Side.RIGHT) if k % 2 == 0 else (Side.RIGHT, Side.LEFT)
        images.append(ImageCharge(pos[0][k], mag[0][k], side_a, k + 1))
        images.append(ImageCharge(pos[1][k], mag[1][k], side_b, k + 1))
    return images


def _require_source(stack: DielectricStack, z0_nm: np.ndarray, q: float) -> None:
    if not math.isfinite(q):
        raise DomainError(f"charge q must be finite, got {q}")
    guard = MIN_OFFSET_FRAC * stack.c_nm
    bad = ~((z0_nm - stack.a_nm >= guard) & (stack.b_nm - z0_nm >= guard))  # negated: NaN fails
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise SingularityError(
            f"charge position {z0_nm.flat[idx]} nm is not at least {guard} nm "
            f"inside [{stack.a_nm}, {stack.b_nm}] nm"
        )


def _group_index(n0: int, n1: int, ndim: int) -> np.ndarray:
    """Group numbers n0..n1-1 down axis 0, broadcasting against ndim point axes."""
    return np.arange(n0, n1, dtype=float).reshape((-1,) + (1,) * ndim)


def _sum_grouped(block_fn, bound_fn, exact_tail_fn, tol: float, to_api, shape: tuple):
    """Sum a grouped series at all points of ``shape`` at once.

    Groups come in blocks of 64, 128, ... up to ``_BLOCK_MAX``; all points
    share the group count.  After each block the sum stops once at every point
    the certified majorant ``bound_fn(n)`` of the remainder and the last group
    are within ``tol`` of the sum, or an exact remainder (group ratio 1) is
    added after the first block.  Returns ``(to_api(sum), groups, rel. bound)``.

    A block is drawn in chunks of ``_CHUNK // points`` groups:
    ``block_fn(n0, n1, out, tmp)`` writes groups n0..n1-1 into ``out``, shape
    ``(n1 - n0,) + shape``, using ``tmp`` of the same shape as scratch.  Both
    are views of two buffers made once per sum (while one chunk holds a whole
    block, they grow with it).  The block's running sum rides in row 0 of each
    later chunk, so one ``sum(axis=0)`` per chunk continues the sequential fold
    numpy makes of a whole (groups, points) block; at one point a block is one
    chunk, summed pairwise as a whole.
    """
    rows = max(2, _CHUNK // max(1, math.prod(shape)))
    buf = tmp = np.empty((0,) + shape)
    acc = np.empty(shape)
    total = 0.0
    n = 0
    block = _BLOCK0
    while True:
        k = min(rows, block)  # rows of the buffers in use
        if len(buf) < k:
            buf, tmp = np.empty((k,) + shape), np.empty((k,) + shape)
        block_fn(n, n + k, buf[:k], tmp[:k])
        for m in range(n + k, n + block, rows - 1):  # the block's later chunks
            buf[0] = buf[:k].sum(axis=0, out=acc)
            k = 1 + min(rows - 1, n + block - m)
            block_fn(m, m + k - 1, buf[1:k], tmp[1:k])
        total, last = total + buf[:k].sum(axis=0, out=acc), np.abs(buf[k - 1])
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
    """(z0, a, b, c, coefficients) in atomic units, for a stack inside every
    slab route's domain: a reflection product short of the cutoff, or two
    metals, whose series end in closed form."""
    z0 = nm_to_bohr(z0_nm)
    a = nm_to_bohr(stack.a_nm)
    b = nm_to_bohr(stack.b_nm)
    bset = beta_coefficients(stack.k1, stack.k2, stack.k3)
    if not (bset.beta_21 == -1.0 and bset.beta_23 == -1.0):
        _check_ratio(bset.ratio)
    return (z0, a, b, b - a, bset)


def _check_ratio(ratio: float) -> None:
    if abs(ratio) >= 1.0 - 1.0e-12:
        raise ConvergenceError(
            f"reflection product {ratio} too close to unit magnitude; "
            "use METAL for conducting half-spaces"
        )


def _ladder(da, db, c, rho, beta_a, beta_b, direct):
    """Groups and geometric majorant of the reflection ladder
    rho^n [direct/((n+1)c) + beta_b/(2nc + 2db) + beta_a/(2nc + 2da)]
    seen at distances da, db from the two interfaces (atomic units)."""

    def block(n0, n1, out, tmp):
        n = _group_index(n0, n1, np.ndim(da))
        two_nc = 2.0 * n * c
        # fixed order (beta_b + direct) + beta_a; the half-plane ladder has no
        # direct term, and adding +0.0 to groups that are never -0.0 is a no-op
        np.divide(beta_b, np.add(two_nc, 2.0 * db, out=out), out=out)
        if direct != 0.0:
            out += direct / ((n + 1.0) * c)
        out += np.divide(beta_a, np.add(two_nc, 2.0 * da, out=tmp), out=tmp)
        out *= np.power(rho, n)

    def bound(n):
        h = (
            abs(direct) / ((n + 1.0) * c)
            + abs(beta_b) / (2.0 * n * c + 2.0 * db)
            + abs(beta_a) / (2.0 * n * c + 2.0 * da)
        )
        return h * abs(rho) ** n / (1.0 - abs(rho))

    return block, bound


_ALTERNATE = np.array([1.0, -1.0])  # (-1)^k over an odd-even pair of orders


def _mirror_chains(s, m, a, b, bset: BetaSet, pairs: int):
    """Signed positions and magnitudes of the next ``pairs`` odd-even pairs
    of orders of the two image chains, A (first mirror at a) and B (at b),
    each continued from the signed position ``s`` and magnitude ``m`` of its
    last even-order image (the source itself is order 0: s = -z0, m = q).

    A chain mirrors p -> 2w - p, w alternating between its two interfaces.
    Carried with sign, s_k = (-1)^k p_k at order k + 1, each mirror is one
    addition, s_k = s_{k-1} + 2a or - 2b on chain A, + 2b or - 2a on chain B,
    so the sequential running sum gives the recursion's positions float for
    float (fl(x - y) = -fl(y - x)).  The magnitudes are the sequential running
    product of the alternating coefficients.  Both return as (chain, pair,
    order in the pair) arrays; the positions are ``s * _ALTERNATE``."""
    steps = np.empty((2, 2 * pairs + 1))
    steps[:, 0] = s
    steps[0, 1::2], steps[0, 2::2] = 2.0 * a, -2.0 * b
    steps[1, 1::2], steps[1, 2::2] = 2.0 * b, -2.0 * a
    factors = np.empty_like(steps)
    factors[:, 0] = m
    factors[0, 1::2], factors[0, 2::2] = bset.beta_21, bset.beta_23
    factors[1, 1::2], factors[1, 2::2] = bset.beta_23, bset.beta_21
    s = np.cumsum(steps, axis=1)[:, 1:].reshape(2, pairs, 2)
    m = np.cumprod(factors, axis=1)[:, 1:].reshape(2, pairs, 2)
    return s, m


# Groups per pass of the images route's recursion: a whole block of up to
# _BLOCK_MAX groups at once would hold about a dozen arrays of that size
_SUB_BLOCK = 4096


def _image_groups(z0: float, a: float, b: float, bset: BetaSet):
    """Block function of explicit image charges for one source at z0: groups
    n0..n1-1, group n being chains A and B at orders 2n + 1 and 2n + 2,
    summed as ma/|z0 - pa| + mb/|pb - z0| + (ma'/|pa' - z0| + mb'/|z0 - pb'|).
    Each call continues both chains from where the last one stopped, built
    by ``_mirror_chains`` ``_SUB_BLOCK`` groups at a time."""
    s, m = -z0, 1.0

    def block(n0, n1, out, _tmp):
        nonlocal s, m
        for i in range(0, n1 - n0, _SUB_BLOCK):
            pairs = min(_SUB_BLOCK, n1 - n0 - i)
            signed, mag = _mirror_chains(s, m, a, b, bset, pairs)
            s, m = signed[:, -1, 1], mag[:, -1, 1]
            t = mag / np.abs(z0 - signed * _ALTERNATE)
            out[i : i + pairs] = (t[0, :, 0] + t[1, :, 0]) + (t[0, :, 1] + t[1, :, 1])

    return block


def _slab_sum(stack: DielectricStack, z0_nm, q: float, tol: float, images: bool = False):
    """Grouped slab series at positions z0_nm, in volts; the images route
    swaps in its own groups but keeps the majorant and metal remainder."""
    z0_nm = np.asarray(z0_nm, dtype=float)
    _require_source(stack, z0_nm, q)
    z0, a, b, c, bset = _slab_geometry_au(stack, z0_nm)
    da, db = z0 - a, b - z0  # distances to the two interfaces
    rho = bset.ratio
    metal = bset.beta_21 == -1.0 and bset.beta_23 == -1.0  # the exact remainder below
    block, bound = _ladder(da, db, c, rho, bset.beta_21, bset.beta_23, rho)
    if images:
        block = _image_groups(float(z0), a, b, bset)

    def metal_tail(n):  # exact remainder past n groups when both coefficients are -1
        return (0.5 * digamma(n + da / c) + 0.5 * digamma(n + db / c) - digamma(n + 1.0)) / c

    tail = metal_tail if metal else None
    return _sum_grouped(block, bound, tail, tol, lambda s: q * s / stack.k2 * HARTREE_EV,
                        z0_nm.shape)


def potential_slab_series(
    stack: DielectricStack, z0_nm: float, q: float = 1.0, tol: float = 1.0e-10
) -> PotentialValue:
    """Induced potential on a charge in the slab, by the reflection series.

    Terms are grouped by round trip so the group sequence behaves like
    ratio^n / n; for |ratio| < 1 a geometric majorant certifies the
    truncation error, while between two metals (both coefficients -1) the
    exact remainder is added in closed form.
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
    if not math.isfinite(q):
        raise DomainError(f"charge q must be finite, got {q}")
    if stack.k1 == METAL:
        raise StackError("charge cannot sit inside a metal half-space")
    dist_a_nm = np.asarray(dist_a_nm, dtype=float)
    if not (dist_a_nm > 0.0).all():
        raise SingularityError(f"need dist_a_nm > 0, got {np.min(dist_a_nm)}")
    bset = beta_coefficients(stack.k1, stack.k2, stack.k3)
    _check_ratio(bset.ratio)
    b12 = -bset.beta_21  # (k1-k2)/(k1+k2)
    da = nm_to_bohr(dist_a_nm)
    c = nm_to_bohr(stack.c_nm)
    # the slab ladder seen from region 1: no direct round trip term
    block, bound = _ladder(da, da + c, c, bset.ratio, b12, bset.beta_23, 0.0)
    return _sum_grouped(block, bound, None, tol, lambda s: q * s / stack.k1 * HARTREE_EV,
                        dist_a_nm.shape)


def potential_left_halfplane(
    stack: DielectricStack,
    dist_a_nm: float,
    q: float = 1.0,
    tol: float = 1.0e-10,
) -> PotentialValue:
    """Induced potential on a charge sitting in region 1, a distance
    ``dist_a_nm`` left of the first interface.

    The series uses only bounded interface coefficients, so metal region 3
    is handled without any diverging intermediate.
    """
    v, terms, err = _halfplane_sum(stack, dist_a_nm, q, tol)
    return PotentialValue(float(v), terms, float(err))


def halfplane_potential_curve(
    stack: DielectricStack, dist_a_nm: np.ndarray, q: float = 1.0, tol: float = 1.0e-10
) -> np.ndarray:
    """``potential_left_halfplane`` evaluated on an array of distances."""
    return _halfplane_sum(stack, dist_a_nm, q, tol)[0]


# ---------------------------------------------------------------------------
# Wavenumber-space route


def _kernel_system(stack: DielectricStack, da: float, db: float, k: np.ndarray):
    """The interface systems at wavenumbers k (atomic units), column-wise.

    Returns ``(s, ea, eb)`` with ``s`` of shape (4 rows, 4 columns + right-hand
    side, nodes): the system of node i is ``s[:, :4, i] x = s[:, 4, i]`` for
    the Fourier amplitudes x = (phi, psi, theta, omega) of the correction
    potential in the three regions.  Rows 0-1 belong to the left interface,
    rows 2-3 to the right one; each enforces continuity of potential and of
    normal displacement, or, at a metal, zero potential on its surface and
    no outgoing amplitude (the pin row).  Amplitudes are scaled by their
    value at the charge so every entry stays bounded: ea = exp(-2k da),
    eb = exp(-2k db).  The row order is what ``_kernel_integrand``'s
    elimination relies on.
    """
    k = np.asarray(k, dtype=float)
    ea = np.exp(-2.0 * k * da)
    eb = np.exp(-2.0 * k * db)
    s = np.zeros((4, 5, k.shape[0]))
    k1, k2, k3 = stack.k1, stack.k2, stack.k3
    if k1 == METAL:
        s[0, 0] = 1.0
        s[1, 1], s[1, 2], s[1, 4] = 1.0, eb, -1.0
    else:
        s[0, 0], s[0, 1], s[0, 2], s[0, 4] = 1.0, -1.0, -eb, 1.0
        s[1, 0], s[1, 1], s[1, 2], s[1, 4] = k1, k2, -k2 * eb, k2
    if k3 == METAL:
        s[2, 1], s[2, 2], s[2, 4] = ea, 1.0, -1.0
        s[3, 3] = 1.0
    else:
        s[2, 1], s[2, 2], s[2, 3], s[2, 4] = ea, 1.0, -1.0, -1.0
        s[3, 1], s[3, 2], s[3, 3], s[3, 4] = -k2 * ea, k2, k3, k2
    return s, ea, eb


def _kernel_integrand(stack: DielectricStack, da: float, db: float, k: np.ndarray) -> np.ndarray:
    """Induced-potential integrand at wavenumbers k > 0 (atomic units).

    Solves the systems of ``_kernel_system`` for all nodes at once: Gaussian
    elimination without pivoting, each step one array operation across the
    nodes, then back substitution.  No pivoting is needed: the row order
    keeps every pivot positive for k > 0, where ea, eb lie in [0, 1) and
    r = (k1 - k2)/(k1 + k2) in (-1, 1), or r = 1 with metal on the left.

    * The left interface's rows give the pivots 1 and k1 + k2 (metal: 1, 1).
    * The right interface's potential row, [0, ea, 1, -1 | -1] or with metal
      [0, ea, 1, 0 | -1], is left with the pivot 1 - ea eb r > 0.
    * The last pivot is k3 + k2 (1 + ea eb r)/(1 - ea eb r) >= k3 from the
      displacement row, or 1 from the metal's pin row [0, 0, 0, 1 | 0],
      which is why the pin row comes after the potential row.
    """
    s, ea, eb = _kernel_system(stack, da, db, k)
    for j in range(3):
        f = s[j + 1:, j] / s[j, j]
        s[j + 1:, j + 1:] -= f[:, None] * s[j, None, j + 1:]
    x = s[:, 4]
    for j in range(3, -1, -1):
        x[j] /= s[j, j]
        x[:j] -= s[:j, j] * x[j]
    return ea * x[1] + eb * x[2]


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
    it cross-checks the two reflection-based routes independently.  It
    shares their domain: a stack at or past their reflection-product cutoff
    raises the same ``ConvergenceError``.

    Each pass evaluates the 12- and 24-point Gauss rules of its panels in one
    ``_kernel_integrand`` call, which solves every node's interface system in
    one column-wise elimination; the row order keeps every pivot positive
    (see there), so no pivoting is needed.  ``terms_used`` counts the nodes.
    """
    _require_source(stack, np.asarray([z0_nm]), q)
    z0, a, b, c, _ = _slab_geometry_au(stack, z0_nm)
    da, db = z0 - a, b - z0
    d_min = min(da, db)
    k_max = 18.0 / d_min  # exp(-36) cutoff on the fastest-decaying factor
    edges = np.concatenate(([0.0], np.geomspace(k_max * 2.0**-26, k_max, 40)))
    panels = np.stack([edges[:-1], edges[1:]], axis=1)

    def eval_panels(p):
        lo_n, lo_w = _panel_nodes(p[:, 0], p[:, 1], _GAUSS_LO)
        hi_n, hi_w = _panel_nodes(p[:, 0], p[:, 1], _GAUSS_HI)
        f = _kernel_integrand(stack, da, db, np.concatenate((lo_n.ravel(), hi_n.ravel())))
        f_lo, f_hi = f[:lo_n.size].reshape(lo_n.shape), f[lo_n.size:].reshape(hi_n.shape)
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
    return PotentialValue(float(q * total / stack.k2 * HARTREE_EV), n_eval, float(rel))


# ---------------------------------------------------------------------------
# Cross-slab image-image interaction


def _plate_sum(stack: DielectricStack, z0_nm, q: float, tol: float):
    z0_nm = np.asarray(z0_nm, dtype=float)
    _require_source(stack, z0_nm, q)
    z0, a, b, c, bset = _slab_geometry_au(stack, z0_nm)
    rho, b21, b23 = bset.ratio, bset.beta_21, bset.beta_23
    if b21 == 0.0 or b23 == 0.0:
        return np.zeros_like(z0_nm)
    da, db = z0 - a, b - z0
    to_ev = lambda s: q * q * s / stack.k2 * HARTREE_EV  # noqa: E731
    if b21 == -1.0 and b23 == -1.0:  # two metals: the remainder from group 0 is exact
        v = da / c
        s = 0.5 * v * digamma(1.0 + v) - 0.5 * digamma(2.0) + 0.5 * (1.0 - v) * digamma(2.0 - v)
        return to_ev(-s / c)

    def block(t0, t1, out, tmp):
        t = _group_index(t0, t1, np.ndim(da))
        two_c = 2.0 * (t + 1.0) * c
        # (t + 1) rho^(t + 1) [((b21 / (2da + two_c) + 1 / two_c) + rho / (2(t + 2)c))
        #                      + b23 / (2db + two_c)], summed in that order
        np.divide(b21, np.add(2.0 * da, two_c, out=out), out=out)
        out += 1.0 / two_c
        out += rho / (2.0 * (t + 2.0) * c)
        out += np.divide(b23, np.add(2.0 * db, two_c, out=tmp), out=tmp)
        out *= (t + 1.0) * np.power(rho, t + 1.0)

    def bound(t):
        return 2.0 * abs(rho) ** (t + 1.0) / (c * (1.0 - abs(rho)))

    return _sum_grouped(block, bound, None, tol, to_ev, z0_nm.shape)[0]


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
