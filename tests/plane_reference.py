"""Single-plane reference code that only the tests call.

A sweep works on the whole table of plane bases in arrays; these build one
Plane at a time and count one fiber at a time, so the tests can check the
array routes plane by plane against them.
"""

from quadric_moduli import linalg
from quadric_moduli.biform import BiForm
from quadric_moduli.locus import Plane, detzero_count_for_basis, plane_bases


def enumerate_planes(p: int):
    """Yield the planes of plane_bases(p) as Plane objects, in its order."""
    for row0, row1 in plane_bases(p).tolist():
        yield Plane(p, (tuple(row0), tuple(row1)))


def fiber_detzero_count(plane: Plane, *, reverse_complement: bool = False) -> int:
    """Det-zero points of the projective fiber over a plane, by the exact
    join over all (p^10 - 1)/(p - 1) fiber points."""
    f1, f2 = plane.basis()
    return detzero_count_for_basis(f1, f2, reverse_complement=reverse_complement)


def plane_from_forms(f1: BiForm, f2: BiForm) -> Plane:
    """Canonical plane spanned by two independent (1, 1)-forms."""
    if f1.bidegree != (1, 1) or f2.bidegree != (1, 1):
        raise ValueError("plane basis forms must have bidegree (1, 1)")
    if f1.field != f2.field:
        raise ValueError("plane basis forms must share one field")
    reduced, pivots = linalg.rref(f1.field, [f1.coeffs, f2.coeffs])
    if len(pivots) != 2:
        raise ValueError("plane basis must be linearly independent")
    return Plane(f1.field.char, (tuple(reduced[0]), tuple(reduced[1])))
