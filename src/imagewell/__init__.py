"""Image-charge potential wells in layered planar dielectrics.

``imagewell.electrostatics`` gives the self-energy of a point charge in a
three-region dielectric stack by three independent routes (reflection
series, explicit image sums, wavenumber-space quadrature).
``imagewell.schrodinger`` solves the 1D problems those potentials induce
(Numerov shooting, cross-checked by a diagonalization oracle), and
``imagewell.scenarios`` composes the studies: Schottky gaps, noble-gas films
and two metal plates with their force budget; ``imagewell.cli`` runs them.
Import each name from its module (typed errors from ``imagewell.errors``,
constants from ``imagewell.constants``); the package holds only the version.
"""

__version__ = "0.1.0"
