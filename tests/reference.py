"""Closed forms and direct sums the tests compare the solvers against,
written from their formulas with the standard library only: they share no code and no
constant with ``imagewell``."""

import math

BOHR_RADIUS_NM = 0.052917721090380  # CODATA 2018
HARTREE_EV = 27.211386245988        # CODATA 2018
HBAR_JS = 1.054571817e-34
STANDARD_GRAVITY_MS2 = 9.80665


def hydrogenic_level_ev(z_eff, m_eff=1.0, eps_host=1.0, n=1):
    """Level n of a charge in a host of ``eps_host`` bound by -z_eff/z:
    -m (z_eff/eps_host)^2 / (2 n^2) Hartree."""
    return -0.5 * m_eff * (z_eff / eps_host) ** 2 / (n * n) * HARTREE_EV


def box_level_ev(length_nm, n, m_eff=1.0):
    """Level n of a hard-wall box of length L: n^2 pi^2 / (2 m L^2) Hartree."""
    length = length_nm / BOHR_RADIUS_NM
    return n * n * math.pi**2 / (2.0 * m_eff * length * length) * HARTREE_EV


def box_levitation_mass_kg(mass_kg, n, length_nm):
    """Mass (kg) whose weight balances the outward force of box level n on
    one wall, -dE/dL = 2E/L: M = n^2 pi^2 hbar^2 / (m L^3 g)."""
    length_m = length_nm * 1.0e-9
    return n * n * math.pi**2 * HBAR_JS**2 / (mass_kg * length_m**3 * STANDARD_GRAVITY_MS2)


def lerch_tail(rho, n, s):
    """sum_{k >= n} rho^k/(k + s), for |rho| < 1, term by term until the
    terms fall below 1e-20 of the running sum, added by ``math.fsum``."""
    terms, total, k = [], 0.0, n
    while True:
        term = rho**k / (k + s)
        terms.append(term)
        total += term
        if abs(term) < 1.0e-20 * abs(total):
            return math.fsum(terms)
        k += 1
