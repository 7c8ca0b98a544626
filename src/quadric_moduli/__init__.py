"""Exact-arithmetic verification of the moduli space of semistable sheaves
with Hilbert polynomial 3m + 2n + 2 on the quadric surface.

The package computes, over the integers and over small prime fields, the
classification data of these sheaves: Hilbert polynomials of their
locally free resolutions, the Poincare polynomial of the moduli space, and
exhaustive finite-field sweeps of the determinant locus inside the
quotient model of the open stratum, cross-validated against the
Betti-polynomial point counts.  The root imports no module, so that the
qmoduli command can pin BLAS before numpy loads: import them by name.
"""

__version__ = "0.1.0"
