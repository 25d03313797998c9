"""Physical constants and unit conversions.

Internal calculations run in Hartree atomic units (lengths in Bohr radii,
energies in Hartree, 4*pi*eps0 = 1); conversions to nm / eV / SI happen at
the API boundaries.
"""

BOHR_RADIUS_NM = 0.052917721090380  # CODATA 2018
HARTREE_EV = 27.211386245988        # CODATA 2018
RYDBERG_EV = HARTREE_EV / 2.0

EV_J = 1.602176634e-19              # exact, SI 2019
HBAR_JS = 1.054571817e-34           # J s
SPEED_OF_LIGHT_MS = 2.99792458e8    # m/s, exact
ELECTRON_MASS_KG = 9.1093837015e-31
STANDARD_GRAVITY_MS2 = 9.80665      # m/s^2

# Rounded mass quoted alongside the levitation estimate it reproduces; the
# CODATA value (1.67492749804e-27 kg) shifts that estimate by about 0.3%.
NEUTRON_MASS_KG = 1.67e-27

# Force conversion for gradients of energy curves: (eV/nm) -> N.
EV_PER_NM_TO_N = EV_J / 1.0e-9


def nm_to_bohr(x):
    return x / BOHR_RADIUS_NM
