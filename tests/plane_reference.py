"""Single-plane reference code that only the tests call.

A sweep works on the whole table of plane bases in arrays and records every
mismatch; these build one Plane at a time, count one fiber at a time and
raise on a mismatch, so the tests can check the array routes plane by plane
against them.
"""

from dataclasses import dataclass

import numpy as np

from quadric_moduli import linalg
from quadric_moduli.betti import stratified_moduli_count
from quadric_moduli.biform import BiForm
from quadric_moduli.locus import (
    _affine_vectors, _check_prime, _factoring_ok, _first_column_monomials, _image_keys,
    _join_counts, _k_pivots, _k_rows, det_action_matrix, plane_bases, sweep_locus,
)
from form_reference import GF, linearly_independent


class VerificationError(Exception):
    """An expected-versus-computed mismatch found by the reference code."""


@dataclass(frozen=True)
class Plane:
    """A 2-plane in the space of (1, 1)-forms over F_p, stored as the
    unique reduced-row-echelon basis in the fixed coefficient order
    (xz, xw, yz, yw)."""

    p: int
    rows: tuple[tuple[int, int, int, int], tuple[int, int, int, int]]

    def __post_init__(self):
        _check_prime(self.p)
        field = GF(self.p)
        if len(self.rows) != 2 or any(len(row) != 4 for row in self.rows):
            raise ValueError("plane basis must be two rows of length 4")
        row0, row1 = rows = tuple(tuple(map(field.canon, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        # reduced row echelon form: leading ones at c1 < c2, cleared above
        c1 = row0.index(1) if 1 in row0 else 4
        c2 = row1.index(1) if 1 in row1 else 4
        if c1 < c2 < 4 and not any(row0[:c1] + row1[:c2]) and row0[c2] == 0:
            return
        if linalg.rank(field, rows) != 2:
            raise ValueError("plane basis must be linearly independent")
        raise ValueError("plane basis must be in reduced row echelon form")

    def basis(self) -> tuple[BiForm, BiForm]:
        field = GF(self.p)
        return (BiForm(field, 1, 1, self.rows[0]), BiForm(field, 1, 1, self.rows[1]))


def enumerate_planes(p: int):
    """Yield the planes of plane_bases(p) as Plane objects, in its order."""
    for row0, row1 in plane_bases(p).tolist():
        yield Plane(p, (tuple(row0), tuple(row1)))


def detzero_count_for_basis(f1: BiForm, f2: BiForm) -> int:
    """The sweep's fiber join on a stack of one plane, for any independent
    basis (f1, f2) of it; raises VerificationError where K leaves the kernel
    of the action."""
    p = f1.field.char
    _check_prime(p)
    if not linearly_independent(f1, f2):
        raise ValueError("fiber counting needs an independent plane basis")
    matrix = det_action_matrix(f1, f2)[None]
    k_basis = np.array([_k_rows(f1, f2)], dtype=np.int64)
    if not _factoring_ok(p, matrix, k_basis)[0]:
        raise VerificationError("factoring first-columns must have zero determinant")
    return int(_join_counts(p, matrix, _k_pivots(p, k_basis)[1])[0])


def fiber_detzero_count(plane: Plane) -> int:
    """Det-zero points of the projective fiber over a plane, by the exact
    join over all (p^10 - 1)/(p - 1) fiber points."""
    return detzero_count_for_basis(*plane.basis())


def raw_oracle_maps_of(plane: Plane) -> np.ndarray:
    """The maps phi -> phi*f2 and phi -> phi*f1 on (1, 2)-forms of one
    plane, in raw_oracle_maps' (2, 12, 6) layout, built by multiplying the
    six monomials with the plane's own basis forms over GF(p)."""
    f1, f2 = plane.basis()
    monomials = _first_column_monomials(f1.field)
    products = [[(mono * f).coeffs for mono in monomials] for f in (f2, f1)]
    return np.array(products, dtype=np.int64).transpose(0, 2, 1)


def raw_oracle_count(plane: Plane) -> int:
    """The raw count of raw_oracle_counts for one plane, by joining the
    p^6 images of each of its raw_oracle_maps_of maps."""
    p = plane.p
    left, right = _image_keys(p, _affine_vectors(p, 6), raw_oracle_maps_of(plane))
    return coinciding_pairs(left, right)


def coinciding_pairs(left: np.ndarray, right: np.ndarray) -> int:
    """Number of pairs (i, j) with left[i] == right[j] in two rows of keys,
    by sorting the right row and searching it for each left key: the count
    that _coinciding_pairs makes for a whole stack of rows at once."""
    right = np.sort(right)
    return int((np.searchsorted(right, left, "right") - np.searchsorted(right, left)).sum())


def moduli_point_count(p: int) -> int:
    """Stratified F_p point count of the moduli space, from a sweep of the
    det-zero locus at p.  Raises VerificationError, naming every failure,
    if the sweep records any."""
    sweep = sweep_locus(p)
    if sweep.failures:
        raise VerificationError("; ".join(sweep.failures))
    return stratified_moduli_count(p, sweep.x_count)


def plane_from_forms(f1: BiForm, f2: BiForm) -> Plane:
    """Canonical plane spanned by two independent (1, 1)-forms."""
    if (f1.a, f1.b) != (1, 1) or (f2.a, f2.b) != (1, 1):
        raise ValueError("plane basis forms must have bidegree (1, 1)")
    if f1.field != f2.field:
        raise ValueError("plane basis forms must share one field")
    reduced, pivots = linalg.rref(f1.field, [f1.coeffs, f2.coeffs])
    if len(pivots) != 2:
        raise ValueError("plane basis must be linearly independent")
    return Plane(f1.field.char, (tuple(reduced[0]), tuple(reduced[1])))
