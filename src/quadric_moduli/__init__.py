"""Exact-arithmetic verification of the moduli space of semistable sheaves
with Hilbert polynomial 3m + 2n + 2 on the quadric surface.

The package computes, over the rationals and over small prime fields, the
classification data of these sheaves: Hilbert polynomials of their
locally free resolutions, the Poincare polynomial of the moduli space, and
exhaustive finite-field sweeps of the determinant locus inside the
quotient model of the open stratum, cross-validated against the
Betti-polynomial point counts.
"""

from .betti import XiPoly, eval_at, grass_poincare, poincare_moduli, proj_poincare
from .biform import (
    BiForm, PhiMatrix, bf_add, bf_mul, bf_scale, det2, factorization_test,
    linearly_independent, mul_right_linear, rank1_test,
)
from .field import GF, QQ, PrimeField, RationalField
from .hilbert import (
    BiPoly, ResolutionSpec, euler_char, genus, hilb_combination, hilb_line, hilb_resolution,
    twist,
)
from .locus import (
    Plane, SUPPORTED_PRIMES, VerificationError, enumerate_planes, fiber_detzero_count,
    moduli_point_count, raw_oracle_count, sweep_locus,
)
from .report import RunConfig, build_report, load_golden

__version__ = "0.1.0"
