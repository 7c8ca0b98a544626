"""Finite-field verification engine for the determinant locus.

The open stratum of the moduli space is modelled as a projective-space
bundle over the Grassmannian of 2-planes in the 4-dimensional space of
(1, 1)-forms: over a plane spanned by the second-column entries, the fiber
is the projectivization of the 12-dimensional coefficient space of first
columns modulo the 2-dimensional subspace K of columns that factor through
the second column.  This module enumerates the planes over a prime field
into one table of bases, classifies them all at once by their rank-one
structure, counts determinant-zero points in every fiber, and assembles
the total point counts that must match the Betti-polynomial evaluation.
A sweep's result stays in columns, one row per plane, from the table to
the rendered fiber reports.  Each decision of the plane layer (the kind
of a plane, the count its kind predicts, the kernel-route count and the
check of K) has one implementation, which works on arrays of planes.
Plane is the single-plane input type: it validates a basis and feeds the
fiber join and the raw oracle, and a sweep builds one only for a raw-oracle
target or to name an unclassifiable plane.

The determinant action is linear in the plane basis, so an 8 x 12 x 12
tensor built once from the package's form arithmetic is contracted with
all planes of a prime in one integer product; that one contraction feeds
both count routes.  The kernel route counts from the rank of the action,
row-reducing the whole stack of matrices mod p together.  The enumeration
route counts, one plane at a time, the vectors of a complement of K on
which the determinant vanishes, by a meet-in-the-middle join: the 10
complement coordinates are split 5 + 5, the images of the p^5 vectors of
each half are computed, and the coinciding images are counted.  The raw
oracle counts all p^12 first-column pairs with the same join, from maps
built by form products alone.  Every sweep runs in one process, over the
planes in their fixed order.

Everything is exact integer arithmetic with asserted bounds; no floating
point enters a count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import linalg
from .biform import BiForm, linearly_independent, rank1_test
from .field import GF

#: Primes accepted by the sweep machinery.
SUPPORTED_PRIMES = (2, 3, 5, 7)
#: Primes at which the raw p^12 oracle runs; fixed, because --full-oracle
#: reports carry raw counts at exactly these primes.
RAW_SWEEP_PRIMES = (2, 3)
#: Primes whose full 10-dimensional fiber enumeration runs by default;
#: larger primes use the kernel-dimension count unless explicitly asked.
ENUMERATION_PRIMES = (2, 3)

GENERIC = "generic"
SHARED_RIGHT = "shared-right"
SHARED_LEFT = "shared-left"
#: Plane kinds, indexed by the kind codes of classify_planes: some element
#: has rank 2; every element is v1 tensor v for one point v of the second
#: factor; every element is v tensor v2 for one point v of the first factor.
#: Code -1 marks a rank-one plane that shares neither tensor factor.
KINDS = (GENERIC, SHARED_RIGHT, SHARED_LEFT)


class VerificationError(Exception):
    """An expected-versus-computed mismatch in a verification sweep."""


class WorkerFailure(Exception):
    """The per-plane worker raised; carries the sweep of the planes before."""

    def __init__(self, message: str, partial: "LocusSweep"):
        super().__init__(message)
        self.partial = partial


def _check_prime(p: int):
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported prime {p}; supported: {SUPPORTED_PRIMES}")


def projective_count(p: int, n: int) -> int:
    """Number of points of n-dimensional projective space over F_p."""
    return (p ** (n + 1) - 1) // (p - 1)


def grass_count(p: int) -> int:
    """Number of 2-planes in 4-space over F_p, computed directly."""
    return (p * p + 1) * (p * p + p + 1)


def expected_x_count(p: int) -> int:
    """Points of the determinant locus: a line plus a quadric surface."""
    return (p + 1) + (p + 1) ** 2


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

    @classmethod
    def from_forms(cls, f1: BiForm, f2: BiForm) -> "Plane":
        """Canonical plane spanned by two independent (1, 1)-forms."""
        if f1.bidegree != (1, 1) or f2.bidegree != (1, 1):
            raise ValueError("plane basis forms must have bidegree (1, 1)")
        if f1.field != f2.field:
            raise ValueError("plane basis forms must share one field")
        p = f1.field.char
        reduced, pivots = linalg.rref(f1.field, [f1.coeffs, f2.coeffs])
        if len(pivots) != 2:
            raise ValueError("plane basis must be linearly independent")
        return cls(p, (tuple(reduced[0]), tuple(reduced[1])))

    def basis(self) -> tuple[BiForm, BiForm]:
        field = GF(self.p)
        return (BiForm(field, 1, 1, self.rows[0]), BiForm(field, 1, 1, self.rows[1]))


def expected_detzero(p: int) -> np.ndarray:
    """The det-zero count of a fiber that each plane kind predicts, indexed
    by kind code: no point over a generic plane, one over a shared-right
    plane and p + 1 over a shared-left plane."""
    return np.array([0, 1, p + 1], dtype=np.int64)


def generic_orbit_sizes(p: int) -> dict[int, int]:
    """Number of generic planes with 2, 1 and 0 rank-one lines: the three
    generic GL2 x GL2 orbits, whose lines of P^3 are secant to, tangent to
    and disjoint from the quadric P^1 x P^1."""
    return {2: p * p * (p + 1) ** 2 // 2,
            1: (p - 1) * (p + 1) ** 2,
            0: p * p * (p - 1) ** 2 // 2}


# -- plane enumeration and classification ----------------------------------


def plane_bases(p: int) -> np.ndarray:
    """The reduced-row-echelon bases of every 2-plane of the (1, 1)-forms
    over F_p, exactly once each, as an (N, 2, 4) int64 table in a fixed
    deterministic order: by pivot columns c1 < c2, then by the free
    coefficients, the first varying slowest."""
    _check_prime(p)
    blocks = []
    for c1, c2 in itertools.combinations(range(4), 2):
        free = ([(0, c) for c in range(c1 + 1, 4) if c != c2]
                + [(1, c) for c in range(c2 + 1, 4)])
        values = _affine_vectors(p, len(free))
        block = np.zeros((len(values), 2, 4), dtype=np.int64)
        block[:, 0, c1] = block[:, 1, c2] = 1
        for k, (row, col) in enumerate(free):
            block[:, row, col] = values[:, k]
        blocks.append(block)
    return np.concatenate(blocks)


def enumerate_planes(p: int):
    """Yield the planes of plane_bases(p) as Plane objects, in its order."""
    for row0, row1 in plane_bases(p).tolist():
        yield Plane(p, (tuple(row0), tuple(row1)))


def _normalize_projective(field, point):
    for c in point:
        if c != field.zero:
            inv = field.inv(c)
            return tuple(field.mul(inv, v) for v in point)
    raise ValueError("zero vector is not a projective point")


def classify_planes(p: int, bases) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify N planes, given by their basis rows (f1, f2) of shape
    (N, 2, 4), by the binary quadratic q(s, t) = det of the coefficient
    matrix of s*B1 + t*B2, computed for all planes at once.  Returns kind
    codes indexing KINDS, rank1_lines and (N, 2) shared points (zero where
    there is none).  Nonzero q means a generic plane, whose rank1_lines are
    the projective roots of q; identically zero q means all p + 1 lines are
    rank one, and rank1_test decides whether the plane shares the right or
    the left tensor factor, and at which point.  A rank-one plane that
    shares neither gets code -1, so that a sweep can record it."""
    bases = np.asarray(bases, dtype=np.int64)
    (xz1, xw1, yz1, yw1), (xz2, xw2, yz2, yw2) = bases.transpose(1, 2, 0)
    qa = (xz1 * yw1 - xw1 * yz1) % p
    qb = (xz1 * yw2 + xz2 * yw1 - xw1 * yz2 - xw2 * yz1) % p
    qc = (xz2 * yw2 - xw2 * yz2) % p
    # roots (s, t) = (1, t) of qa*s^2 + qb*s*t + qc*t^2, plus (0, 1) where qc = 0
    t = np.arange(p)
    values = (qa[:, None] + qb[:, None] * t + qc[:, None] * t * t) % p
    rank1_lines = (values == 0).sum(axis=1) + (qc == 0)
    kinds = np.full(len(bases), KINDS.index(GENERIC), dtype=np.int64)
    shared_points = np.zeros((len(bases), 2), dtype=np.int64)
    for index in np.flatnonzero((qa == 0) & (qb == 0) & (qc == 0)):
        kinds[index], shared_points[index] = _classify_rank_one(p, bases[index].tolist())
    return kinds, rank1_lines, shared_points


def _classify_rank_one(p: int, rows) -> tuple[int, tuple[int, int]]:
    field = GF(p)
    b1, b2 = (BiForm(field, 1, 1, row) for row in rows)
    v1, w1 = rank1_test(b1)
    v2, w2 = rank1_test(b2)

    def proportional(u, v):
        return field.sub(field.mul(u.coeffs[0], v.coeffs[1]),
                         field.mul(u.coeffs[1], v.coeffs[0])) == field.zero

    if proportional(w1, w2):
        return KINDS.index(SHARED_RIGHT), _normalize_projective(field, w1.coeffs)
    if proportional(v1, v2):
        return KINDS.index(SHARED_LEFT), _normalize_projective(field, v1.coeffs)
    return -1, (0, 0)


# -- the det2 action on first columns and the fiber model -------------------


def _first_column_monomials(field):
    """The 6 (1, 2)-monomials in layout order.  det_action_matrix takes
    them twice, as the 12 basis first-columns: 6 with phi11 a monomial and
    phi21 = 0, then 6 with phi11 = 0 and phi21 a monomial."""
    return [BiForm.monomial(field, 1, 2, i, j) for i in range(2) for j in range(3)]


def det_action_matrix(f1: BiForm, f2: BiForm) -> np.ndarray:
    """12 x 12 integer matrix of (phi11, phi21) -> coefficients of
    phi11*f2 - phi21*f1, the determinant against the fixed second column
    (phi12, phi22) = (f1, f2).  Column j is the image of the j-th basis
    first-column; entries are canonical representatives mod p."""
    field = f1.field
    columns = []
    for mono in _first_column_monomials(field):
        columns.append((mono * f2).coeffs)
    for mono in _first_column_monomials(field):
        columns.append((-(mono * f1)).coeffs)
    return np.array(columns, dtype=np.int64).T


def _k_rows(f1: BiForm, f2: BiForm):
    """Basis of K, the factoring first-columns (f1*u, f2*u), as two
    12-vectors in the concatenated (phi11 | phi21) coefficient order."""
    field = f1.field
    ez = BiForm.linear_zw(field, field.one, field.zero)
    ew = BiForm.linear_zw(field, field.zero, field.one)
    return [
        (f1 * ez).coeffs + (f2 * ez).coeffs,
        (f1 * ew).coeffs + (f2 * ew).coeffs,
    ]


def _complement_columns(field, k_rows, reverse: bool = False) -> tuple[int, ...]:
    """Coordinates of a complement of K chosen by echelon pivoting on K's
    basis; with reverse=True the pivots are sought from the last
    coordinate backwards, giving a second, independent choice."""
    rows = [list(r)[::-1] for r in k_rows] if reverse else k_rows
    _, pivots = linalg.rref(field, rows)
    if len(pivots) != 2:
        raise VerificationError("factoring subspace K must have dimension 2")
    if reverse:
        pivots = [11 - c for c in pivots]
    return tuple(c for c in range(12) if c not in pivots)


def _canonical_vectors(p: int, dim: int) -> np.ndarray:
    """All vectors of F_p^dim whose first nonzero coordinate is 1: one
    representative per projective point, (p^dim - 1)/(p - 1) rows.  The
    brute-force reference the fiber join is tested against."""
    blocks = []
    for lead in range(dim):
        tail = dim - lead - 1
        count = p**tail
        block = np.zeros((count, dim), dtype=np.int8)
        block[:, lead] = 1
        idx = np.arange(count)
        for t in range(tail):
            block[:, dim - 1 - t] = (idx // (p**t)) % p
        blocks.append(block)
    table = np.concatenate(blocks) if blocks else np.zeros((0, dim), dtype=np.int8)
    if len(table) != projective_count(p, dim - 1):
        raise VerificationError("projective representative table has the wrong size")
    return table


def _affine_vectors(p: int, dim: int) -> np.ndarray:
    """All p^dim vectors of F_p^dim, one per row, as int64."""
    return np.indices((p,) * dim, dtype=np.int64).reshape(dim, p**dim).T


def _coinciding_pairs(p: int, left: np.ndarray, right: np.ndarray) -> int:
    """Number of pairs (i, j) with left[i] == right[j], for two int64
    arrays of row vectors with entries in 0..p-1.  Each row is encoded as
    one integer in base p, and the keys are joined by their multiplicities."""
    width = left.shape[1]
    assert p**width < 2**63, "base-p row keys must fit in int64"
    weights = p ** np.arange(width, dtype=np.int64)
    left_keys, left_counts = np.unique(left @ weights, return_counts=True)
    right_keys, right_counts = np.unique(right @ weights, return_counts=True)
    _, i, j = np.intersect1d(left_keys, right_keys, assume_unique=True,
                             return_indices=True)
    return int(left_counts[i] @ right_counts[j])


def detzero_count_for_basis(f1: BiForm, f2: BiForm, *, reverse_complement: bool = False) -> int:
    """Det-zero points of the projectivization of a complement of K, a P^9.
    The determinant is linear on the complement, so they are the nonzero
    solutions of A a + B b = 0 up to scaling, where A and B are the action
    on the two halves of the 10 complement coordinates: the N affine
    solutions are the coinciding pairs of A a and -B b over all p^5 + p^5
    half-vectors, and the count is (N - 1)/(p - 1).  Works for any
    independent basis (f1, f2) of the plane; the count is basis- and
    complement-independent because column operations and scalings leave
    the determinant locus unchanged."""
    p = f1.field.char
    _check_prime(p)
    if not linearly_independent(f1, f2):
        raise ValueError("fiber counting needs an independent plane basis")
    matrix = det_action_matrix(f1, f2)
    k_rows = _k_rows(f1, f2)
    if not _factoring_ok(p, matrix[None], np.array([k_rows], dtype=np.int64))[0]:
        raise VerificationError("factoring first-columns must have zero determinant")
    return _join_count(p, matrix, k_rows, reverse_complement)


def _join_count(p: int, matrix: np.ndarray, k_rows, reverse_complement: bool = False) -> int:
    """The join of detzero_count_for_basis on a 12 x 12 action matrix whose
    kernel holds the two K rows."""
    cols = _complement_columns(GF(p), k_rows, reverse=reverse_complement)
    action = matrix[:, cols]
    half = _affine_vectors(p, 5)
    solutions = _coinciding_pairs(p, half @ action[:, :5].T % p,
                                  -(half @ action[:, 5:].T) % p)
    return (solutions - 1) // (p - 1)


def fiber_detzero_count(plane: Plane, *, reverse_complement: bool = False) -> int:
    """Det-zero points of the projective fiber over a plane, by the exact
    join over all (p^10 - 1)/(p - 1) fiber points."""
    f1, f2 = plane.basis()
    return detzero_count_for_basis(f1, f2, reverse_complement=reverse_complement)


def action_tensors(p: int) -> tuple[np.ndarray, np.ndarray]:
    """det_action_matrix and _k_rows as linear maps of the 8 coefficients
    (f1 | f2) of a plane basis: an (8, 12, 12) and an (8, 2, 12) integer
    tensor.  Built by evaluating both functions on the unit bases, so that
    BiForm stays the one definition of the monomial layout."""
    field = GF(p)
    zero = BiForm.zero(field, 1, 1)
    units = [BiForm.monomial(field, 1, 1, i, j) for i in range(2) for j in range(2)]
    bases = [(unit, zero) for unit in units] + [(zero, unit) for unit in units]
    det = np.stack([det_action_matrix(f1, f2) for f1, f2 in bases])
    k = np.array([_k_rows(f1, f2) for f1, f2 in bases], dtype=np.int64)
    return det, k


def action_matrices(p: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """The det action matrices (N, 12, 12) and the K bases (N, 2, 12) of N
    planes given by their basis rows (f1, f2), shape (N, 2, 4), as
    canonical representatives mod p: both tensors contracted with all
    planes in one integer matmul (8-term sums below 8 * (p - 1)**2)."""
    det, k = action_tensors(p)
    maps = np.concatenate([det.reshape(8, -1), k.reshape(8, -1)], axis=1).astype(np.int32)
    images = np.asarray(rows, dtype=np.int32).reshape(-1, 8) @ maps % p
    n = len(images)
    return images[:, :144].reshape(n, 12, 12), images[:, 144:].reshape(n, 2, 12)


def _ranks_mod_p(stack: np.ndarray, p: int) -> np.ndarray:
    """Rank over F_p of every matrix of an (N, rows, cols) stack of
    canonical representatives, by Gaussian elimination on the whole stack
    one column at a time.  Runs in int8: every intermediate lies between
    -(p - 1)**2 and p, so p <= 11."""
    if (p - 1) ** 2 > 127:
        raise ValueError(f"int8 elimination needs p <= 11, got {p}")
    field = GF(p)
    inverse = np.array([0] + [field.inv(a) for a in range(1, p)], dtype=np.int8)
    m = stack.astype(np.int8)
    rank = np.zeros(len(m), dtype=np.intp)
    row_ids = np.arange(m.shape[1])
    for c in range(m.shape[2]):
        candidates = (m[:, :, c] != 0) & (row_ids >= rank[:, None])
        sel = np.flatnonzero(candidates.any(axis=1))
        top = rank[sel]
        pivot_row = candidates[sel].argmax(axis=1)
        pivot = m[sel, pivot_row]
        m[sel, pivot_row] = m[sel, top]  # swap the pivot row up to `top`
        pivot = inverse[pivot[:, c]][:, None] * pivot % p
        m[sel, top] = pivot
        block = m[sel]
        factor = np.where(row_ids > top[:, None], block[:, :, c], 0)
        m[sel] = (block - factor[:, :, None] * pivot[:, None, :]) % p
        rank[sel] += 1
    return rank


def _factoring_ok(p: int, matrices: np.ndarray, k_bases: np.ndarray) -> np.ndarray:
    """Per plane, whether both K rows lie in the kernel of the action, as
    they must: a count of either route is meaningful only where they do."""
    return ~(matrices @ k_bases.transpose(0, 2, 1) % p).any(axis=(1, 2))


def _kernel_counts(p: int, matrices: np.ndarray) -> np.ndarray:
    """Det-zero points of the fibers over a stack of action matrices, via
    their ranks: the determinant is linear in the first column, so the
    det-zero fiber points form the projectivization of (ker / K), of
    dimension dim ker - 2."""
    quotient_dim = 10 - _ranks_mod_p(matrices, p)
    return (p ** np.maximum(quotient_dim, 0) - 1) // (p - 1)


def raw_oracle_maps(plane: Plane) -> tuple[np.ndarray, np.ndarray]:
    """The linear maps phi -> phi*f2 and phi -> phi*f1 on (1, 2)-forms, as
    two 6 x 12 integer matrices whose row k is the product of the k-th
    (1, 2)-monomial with f2, respectively f1.  Built from form products
    alone, independently of det_action_matrix, K and any complement."""
    f1, f2 = plane.basis()
    monomials = _first_column_monomials(GF(plane.p))
    return (np.array([(mono * f2).coeffs for mono in monomials], dtype=np.int64),
            np.array([(mono * f1).coeffs for mono in monomials], dtype=np.int64))


def raw_oracle_count(plane: Plane) -> int:
    """Oracle: the number of ALL raw first-column pairs (phi11, phi21) in
    F_p^12 with vanishing determinant.  det2 = phi11*f2 - phi21*f1
    vanishes iff the two products coincide, so the p^12 pairs are counted
    exactly by joining the p^6 images phi11*f2 with the p^6 images
    phi21*f1.  Refused outside RAW_SWEEP_PRIMES.

    Against the fiber count N it must satisfy
        raw = p^2 + N * (p - 1) * p^2
    (the p^2 factoring pairs, plus p^2 raw pairs for each of the (p - 1)
    nonzero scalings of each det-zero projective fiber point)."""
    p = plane.p
    if p not in RAW_SWEEP_PRIMES:
        raise ValueError(f"raw p^12 oracle runs only at p in {RAW_SWEEP_PRIMES}, not p = {p}")
    against_f2, against_f1 = raw_oracle_maps(plane)
    vectors = _affine_vectors(p, 6)
    return _coinciding_pairs(p, vectors @ against_f2 % p, vectors @ against_f1 % p)


# -- whole-Grassmannian sweeps ----------------------------------------------


@dataclass
class LocusSweep:
    """Outcome of sweeping every plane over F_p: one row per classified
    plane, in plane_bases order, holding its index in plane_bases(p), basis,
    kind code, rank1_lines, shared point and det-zero count.  raw_counts
    maps the rows the raw oracle ran on to their raw counts; everything
    else is derived from these columns."""

    p: int
    method: str
    plane_index: np.ndarray
    bases: np.ndarray
    kinds: np.ndarray
    rank1_lines: np.ndarray
    shared_points: np.ndarray
    detzero_counts: np.ndarray
    raw_counts: dict[int, int] = dataclass_field(default_factory=dict)
    failures: list[str] = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def x_count(self) -> int:
        return int(self.detzero_counts.sum())

    @property
    def expected_x(self) -> int:
        return expected_x_count(self.p)

    @property
    def tallies(self) -> dict[str, int]:
        return dict(zip(KINDS, np.bincount(self.kinds, minlength=len(KINDS)).tolist()))

    @property
    def expected_counts(self) -> np.ndarray:
        """Per row, the det-zero count that the plane's kind predicts."""
        return expected_detzero(self.p)[self.kinds]

    def raw_ok(self) -> dict[int, bool]:
        """Per raw-oracle row, whether its raw count meets the coset
        identity of raw_oracle_count against the row's det-zero count."""
        p = self.p
        return {row: raw == p * p + int(self.detzero_counts[row]) * (p - 1) * p * p
                for row, raw in self.raw_counts.items()}

    def plane(self, row: int) -> Plane:
        return Plane(self.p, self.bases[row].tolist())

    def fibers_json(self) -> list[dict]:
        """The per-plane reports of verify-locus, one per row."""
        raw_ok = self.raw_ok()
        columns = zip(self.plane_index.tolist(), self.bases.tolist(), self.kinds.tolist(),
                      self.rank1_lines.tolist(), self.shared_points.tolist(),
                      self.detzero_counts.tolist(), self.expected_counts.tolist())
        fibers = []
        for row, (index, basis, kind, rank1_lines, point, count, expected) in enumerate(columns):
            plane_type = ({"kind": GENERIC, "rank1_lines": rank1_lines} if KINDS[kind] == GENERIC
                          else {"kind": KINDS[kind], "shared_point": point})
            fiber = {"plane_index": index, "plane": {"p": self.p, "basis": basis},
                     "plane_type": plane_type, "detzero_count": count,
                     "expected": expected, "ok": count == expected}
            if row in raw_ok:
                fiber.update(raw_count=self.raw_counts[row], raw_ok=raw_ok[row])
            fibers.append(fiber)
        return fibers


def _plane_worker(item):
    """Enumeration route for one plane, given as (p, action matrix, K
    basis): its det-zero count by the join."""
    p, matrix, k_basis = item
    return _join_count(p, matrix, k_basis.tolist())


def sweep_method(p: int, full_oracle: bool) -> str:
    return "enumerate" if p in ENUMERATION_PRIMES or (p == 5 and full_oracle) else "kernel"


def sweep_locus(p: int, *, workers: int = 1, full_oracle: bool = False) -> LocusSweep:
    """Classify every plane, count det-zero fiber points, and verify the
    totals.  With full_oracle, additionally run the raw p^12 oracle (all
    planes at p = 2, the first plane of each kind at p = 3) and switch
    p = 5 to full fiber enumeration.

    Both routes start from one pass over the plane table: plane_bases,
    classify_planes, and one contraction of the action tensors with every
    plane, whose K bases are checked against the kernel.  The kernel route
    then row-reduces the whole stack; the enumeration route runs the
    per-plane worker (the join) on each contracted matrix, in order.  Only
    raw-oracle targets and unclassifiable planes are built as Plane objects.
    `workers` must be >= 1 and selects nothing: every sweep runs in this
    process.  Raises WorkerFailure (carrying the partial sweep) if the
    worker raises; mismatches never raise here, they are recorded in
    `failures`.
    """
    _check_prime(p)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    bases = plane_bases(p)
    kinds, rank1_lines, shared_points = classify_planes(p, bases)
    matrices, k_bases = action_matrices(p, bases)
    method = sweep_method(p, full_oracle)
    failures = [f"plane {index}: factoring first-columns must have zero determinant"
                for index in np.flatnonzero(~_factoring_ok(p, matrices, k_bases))]
    failure_message = None
    if method == "kernel":
        counts = _kernel_counts(p, matrices)
    else:
        counts = []
        try:
            for matrix, k_basis in zip(matrices, k_bases):
                counts.append(_plane_worker((p, matrix, k_basis)))
        except VerificationError:
            raise
        except Exception as exc:  # report and salvage partial work
            failure_message = f"worker failed on plane {len(counts)}: {exc}"
        counts = np.array(counts, dtype=np.int64)

    done = kinds[:len(counts)]
    failures += [f"plane {index}: rank-one plane {Plane(p, bases[index].tolist())} "
                 f"shares neither factor" for index in np.flatnonzero(done < 0)]
    rows = np.flatnonzero(done >= 0)
    sweep = LocusSweep(p, method, rows, bases[rows], kinds[rows], rank1_lines[rows],
                       shared_points[rows], counts[rows], failures=failures)
    if failure_message is not None:
        sweep.failures.append(failure_message)
        raise WorkerFailure(failure_message, sweep)

    if full_oracle and p in RAW_SWEEP_PRIMES:
        first_of_each_kind = np.unique(sweep.kinds, return_index=True)[1]
        targets = range(len(rows)) if p == 2 else sorted(first_of_each_kind.tolist())
        sweep.raw_counts = {row: raw_oracle_count(sweep.plane(row)) for row in targets}
    _collect_failures(sweep)
    return sweep


def _collect_failures(sweep: LocusSweep):
    p = sweep.p
    raw_ok = sweep.raw_ok()
    columns = zip(sweep.plane_index.tolist(), sweep.kinds.tolist(),
                  sweep.detzero_counts.tolist(), sweep.expected_counts.tolist())
    for row, (index, kind, count, expected) in enumerate(columns):
        if count != expected:
            sweep.failures.append(
                f"plane {index} ({KINDS[kind]}): det-zero count {count}, expected {expected}")
        if not raw_ok.get(row, True):
            sweep.failures.append(
                f"plane {index}: raw sweep count {sweep.raw_counts[row]} "
                f"breaks the coset identity")
    # the five GL2 x GL2 orbits of planes
    generic = np.bincount(sweep.rank1_lines[sweep.kinds == KINDS.index(GENERIC)], minlength=3)
    orbits = [(f"generic planes with rank1_lines = {lines}", generic[lines], size)
              for lines, size in generic_orbit_sizes(p).items()]
    orbits += [(f"{kind} planes", sweep.tallies[kind], p + 1)
               for kind in (SHARED_RIGHT, SHARED_LEFT)]
    for label, count, size in orbits:
        if count != size:
            sweep.failures.append(f"{count} {label}, expected {size}")
    total_planes = sum(sweep.tallies.values())
    if total_planes != grass_count(p):
        sweep.failures.append(
            f"{total_planes} planes enumerated, expected {grass_count(p)}")
    if sweep.x_count != sweep.expected_x:
        sweep.failures.append(
            f"det-zero total {sweep.x_count}, expected {sweep.expected_x}")


def stratified_moduli_count(p: int, x_count: int) -> int:
    """Point count of the moduli space from its strata: the fiber-bundle
    count minus the det-zero locus, plus the universal-curve stratum, plus
    the projective space of twisted structure sheaves."""
    return (projective_count(p, 9) * grass_count(p)
            - x_count
            + (p + 1) ** 2 * projective_count(p, 10)
            + projective_count(p, 11))


def moduli_point_count(p: int) -> int:
    """Stratified F_p point count of the moduli space, from a sweep of the
    det-zero locus at p.  Raises VerificationError, naming every failure,
    if the sweep records any.  Must agree with the Betti-polynomial
    evaluation at p; the test suite asserts that equality."""
    sweep = sweep_locus(p)
    if not sweep.ok:
        raise VerificationError("; ".join(sweep.failures))
    return stratified_moduli_count(p, sweep.x_count)
