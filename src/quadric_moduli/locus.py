"""Finite-field verification engine for the determinant locus.

The open stratum of the moduli space is modelled as a projective-space
bundle over the Grassmannian of 2-planes in the 4-dimensional space of
(1, 1)-forms: over a plane spanned by the second-column entries, the fiber
is the projectivization of the 12-dimensional coefficient space of first
columns modulo the 2-dimensional subspace K of columns that factor through
the second column.  This module enumerates the planes over a prime field
into one int16 table of bases, classifies them all at once by their
rank-one structure, counts determinant-zero points in every fiber, and
checks each count, the five orbit tallies and the total X on which the
point counts rest.  The closed formulas it checks against, and the route
table of the supported primes, live in betti, so that only a sweep loads numpy.
A sweep's result stays in columns, one row per plane, from the table to
the rendered fiber reports.  Each decision of the plane layer (the kind
of a plane, the count its kind predicts, the kernel-route count and the
check of K) has one implementation, which works on arrays of planes.
count_planes, the one block loop, counts any stack of planes by every named
route, each against the first, after holding back each plane that breaks a
precondition of the counts with one failure line, so it never stops a sweep.
Every route maps a block's kept planes to one int64 column, and a route that
raises drops its whole block: the loop stops there, whatever the route.

Every map a count reads is linear in the plane basis (f1, f2): the
determinant action, K's basis and the raw oracle's products.  Each is one
plane table, which _plane_table builds once from the package's form
arithmetic on the 8 unit bases, and _contract maps a block of planes through
it in one int16 product, so no sweep multiplies forms per plane and a sweep
holds one block's matrices at a time.  The kernel route counts from the rank
of the action, row-reducing a block's stack of matrices together in int16
and reducing mod p only each cleared column and its pivot row.  The
enumeration route counts the vectors of a complement of K on which the
determinant vanishes, by a meet-in-the-middle join: the 10 complement
coordinates are split 5 + 5, the images of the p^5 vectors of each half are
keyed in base p (int32 up to p = 5) for a block of planes at once, and the
coinciding keys of the whole block are counted by one sort of each plane's
tagged keys.  The raw oracle keys and joins all p^12 first-column pairs the
same way, block by block like every other route, and its counts are one more
column.  Its table is built from its own form products, never from the
action's.  A sweep runs in one process, over the planes in fixed order.

Everything is exact integer arithmetic with asserted bounds; no floating
point enters a count.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .betti import SUPPORTED_PRIMES, SWEEP_ROUTES, expected_x_count, generic_orbit_sizes
from .biform import ZZ, BiForm

#: Most half-vectors whose images the enumeration route or the raw oracle
#: keys at once, and most action-matrix entries the kernel route row-reduces
#: at once: a sweep contracts and counts one block at a time, sized by its
#: row's largest route block: every plane at p = 2, and at p = 3 without the
#: raw oracle, 89 at p = 3 with it, 20 at p = 5 with the join, else 455.
#: A block holds one plane at least: the raw oracle keys 7^6 vectors a block at p = 7.
KEY_BLOCK = 2**16

GENERIC = "generic"
SHARED_RIGHT = "shared-right"
SHARED_LEFT = "shared-left"
#: Plane kinds, indexed by the kind codes of classify_planes: some element
#: has rank 2; every element is v1 tensor v for one point v of the second
#: factor; every element is v tensor v2 for one point v of the first factor.
#: Code -1 marks a rank-one plane that shares neither tensor factor.
KINDS = (GENERIC, SHARED_RIGHT, SHARED_LEFT)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, returned: numpy's floor division by a scalar is
    several times faster than its %.  Pass only an array the caller owns."""
    q = x // p
    q *= p
    x -= q
    return x


def _check_prime(p: int):
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported prime {p}; supported: {SUPPORTED_PRIMES}")


def expected_detzero(p: int) -> np.ndarray:
    """The det-zero count of a fiber that each plane kind predicts, indexed
    by kind code: no point over a generic plane, one over a shared-right
    plane and p + 1 over a shared-left plane."""
    return np.array([0, 1, p + 1], dtype=np.int64)


# -- plane enumeration and classification ----------------------------------


def plane_bases(p: int) -> np.ndarray:
    """The reduced-row-echelon bases of every 2-plane of the (1, 1)-forms
    over F_p, exactly once each, as an (N, 2, 4) int16 table in a fixed
    deterministic order: by pivot columns c1 < c2, then by the free
    coefficients, the first varying slowest."""
    _check_prime(p)
    blocks = []
    for c1, c2 in itertools.combinations(range(4), 2):
        free = ([(0, c) for c in range(c1 + 1, 4) if c != c2]
                + [(1, c) for c in range(c2 + 1, 4)])
        values = _affine_vectors(p, len(free))
        block = np.zeros((len(values), 2, 4), dtype=np.int16)
        block[:, 0, c1] = block[:, 1, c2] = 1
        for k, (row, col) in enumerate(free):
            block[:, row, col] = values[:, k]
        blocks.append(block)
    return np.concatenate(blocks)


def classify_planes(p: int, bases) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify N planes, given by their basis rows (f1, f2) of shape
    (N, 2, 4), by the binary quadratic q(s, t) = det of the coefficient
    matrix of s*B1 + t*B2, computed for all planes at once in int32 (its
    sums stay below p**3).  Returns kind codes indexing KINDS and
    rank1_lines, as int8, and (N, 2) int16 shared points (zero where there
    is none).  Nonzero q means a generic plane, whose rank1_lines are the
    projective roots of q.
    Identically zero q means a rank-one plane: it shares the right factor
    where the four (z, w) rows of B1 and B2 are proportional, the left where
    their (x, y) columns are, and code -1, which a sweep records, marks one
    that shares neither."""
    bases = _reduce(np.array(bases, dtype=np.int32), p)  # a copy: the caller's stays
    (xz1, xw1, yz1, yw1), (xz2, xw2, yz2, yw2) = bases.transpose(1, 2, 0)
    qa = _reduce(xz1 * yw1 - xw1 * yz1, p)
    qb = _reduce(xz1 * yw2 + xz2 * yw1 - xw1 * yz2 - xw2 * yz1, p)
    qc = _reduce(xz2 * yw2 - xw2 * yz2, p)
    # roots (s, t) = (1, t) of qa*s^2 + qb*s*t + qc*t^2, plus (0, 1) where qc = 0
    t = np.arange(p, dtype=np.int32)
    values = _reduce(qa[:, None] + qb[:, None] * t + qc[:, None] * t * t, p)
    rank1_lines = (values == 0).sum(axis=1) + (qc == 0)
    kinds = np.where((qa | qb | qc) == 0, -1, KINDS.index(GENERIC))
    rank_one = np.flatnonzero(kinds < 0)
    shared_points = np.zeros((len(bases), 2), dtype=np.int64)
    # the (z, w) rows, then the (x, y) columns, of the coefficient matrices [[xz, xw], [yz, yw]]
    for kind, order in ((SHARED_RIGHT, [0, 1, 2, 3]), (SHARED_LEFT, [0, 2, 1, 3])):
        shares, point = _shared_factor(p, bases[rank_one][:, :, order].reshape(-1, 4, 2))
        kinds[rank_one[shares]], shared_points[rank_one[shares]] = KINDS.index(kind), point[shares]
    # narrowed at the end: int8 arithmetic above pages in numpy loops that no other
    # step runs, which measured more peak RSS than these three casts
    return kinds.astype(np.int8), rank1_lines.astype(np.int8), shared_points.astype(np.int16)


def _shared_factor(p: int, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per (4, 2) stack of four canonical vectors mod p, not all zero: whether
    they are all proportional, and the first nonzero one scaled to lead with one."""
    lead = vectors[np.arange(len(vectors)), (vectors != 0).any(axis=2).argmax(axis=1)]
    lead = _reduce(lead * _inverses(p)[np.where(lead[:, 0], lead[:, 0], lead[:, 1])][:, None], p)
    minors = lead[:, :1] * vectors[..., 1] - lead[:, 1:] * vectors[..., 0]
    return ~_reduce(minors, p).any(axis=1), lead


@functools.cache
def _inverses(p: int) -> np.ndarray:
    """The inverse of each residue mod p, indexed by it (0 at 0); read-only."""
    inverses = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int16)
    inverses.flags.writeable = False
    return inverses


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
    first-column; entries are canonical representatives mod p, and exact
    integers over ZZ."""
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


def _k_pivots(p: int, k_bases) -> tuple[np.ndarray, np.ndarray]:
    """Per K basis of an (N, 2, 12) stack: the dimension of K, and its
    echelon pivots, the first coordinate where K is nonzero and the first
    where the 2 x 2 minor with that one is.  K has dimension 2 exactly where
    such a minor exists, and 0 where no coordinate is nonzero; the pivots
    are meaningful only at dimension 2.  The minors stay in the stack's
    dtype: of canonical entries, they lie below p**2."""
    k = _reduce(np.array(k_bases), p)  # a copy
    nonzero = (k[:, 0] | k[:, 1]) != 0
    first = nonzero.argmax(axis=1)
    lead = k[np.arange(len(k)), :, first]
    minors = _reduce(lead[:, :1] * k[:, 1] - lead[:, 1:] * k[:, 0], p) != 0
    dims = nonzero.any(axis=1).astype(np.int64) + minors.any(axis=1)
    return dims, np.stack([first, minors.argmax(axis=1)], axis=1)


def _affine_vectors(p: int, dim: int) -> np.ndarray:
    """All p^dim vectors of F_p^dim, one per row, as int16."""
    return np.indices((p,) * dim, dtype=np.int16).reshape(dim, p**dim).T


def _image_keys(p: int, vectors: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Base-p keys, (..., V), of the images mod p of the rows of a (V, d)
    array under a stack of (w, d) canonical matrices: one int16 einsum over
    the stack per image coordinate (sums below d * (p - 1)**2), then Horner
    in int32 where p**w < 2**31 (p <= 5 at w = 12), else in int64."""
    width = maps.shape[-2]
    assert p**width < 2**63, "base-p image keys must fit in int64"
    vectors, maps = np.asarray(vectors, dtype=np.int16), np.asarray(maps, dtype=np.int16)
    dtype = np.int32 if p**width < 2**31 else np.int64
    keys = np.zeros(maps.shape[:-2] + vectors.shape[:1], dtype=dtype)
    for w in reversed(range(width)):
        coordinate = np.einsum("vd,...d->...v", vectors, maps[..., w, :])
        keys *= p
        keys += _reduce(coordinate, p)
    return keys


def _coinciding_pairs(keys: np.ndarray) -> np.ndarray:
    """Per plane of an (N, 2, V) stack of left and right rows of
    non-negative keys, as _image_keys returns it, the number of pairs
    (i, j) with left[i] == right[j], as an int64 column.  The stack is
    overwritten: read unsigned, so that no key wraps, each key is shifted up
    one bit and tagged with its side, 1 on the right, and each plane's 2V
    tagged keys are sorted once, so a run of one key holds its lefts, then
    its rights.  Only the runs of two or more keys are visited: one of L
    lefts and R rights splits once, after its last left, and adds L * R."""
    n, _, v = keys.shape
    tagged = keys.view(np.dtype(f"u{keys.itemsize}"))
    tagged <<= 1
    tagged[:, 1] |= 1
    tagged = tagged.reshape(n, 2 * v)
    tagged.sort(axis=1)
    flat = tagged.reshape(-1)
    same = (flat[1:] ^ flat[:-1]) <= 1  # element e + 1 has the key of element e
    same[2 * v - 1::2 * v] = False  # no run crosses into the next plane
    at = np.flatnonzero(same)
    first, last = np.diff(at, prepend=-2) != 1, np.diff(at, append=-2) != 1  # of each run
    run = np.cumsum(first) - 1
    start, end = at[first][run], at[last][run] + 1
    split = flat[at] != flat[at + 1]
    at, start, end = at[split], start[split], end[split]
    pairs = np.zeros(n, dtype=np.int64)
    np.add.at(pairs, at // (2 * v), (at - start + 1) * (end - at))
    return pairs


def _join_counts(p: int, matrices, pivots) -> np.ndarray:
    """Per plane, the det-zero points of the projectivization of a
    complement of K, a P^9, as an int64 column, from (N, 12, 12) action
    matrices and the (N, 2) echelon pivots of their K bases of dimension 2,
    as _k_pivots finds them: the complement takes the other 10 coordinates.
    The determinant is linear on the complement, so they are the nonzero
    solutions of A a + B b = 0 up to scaling, where A and B are the action
    on the two halves of the 10 complement coordinates: the S affine
    solutions (a, -b) are the coinciding pairs of A a and B b over all
    p^5 + p^5 half-vectors, and the count is (S - 1)/(p - 1).  It is basis-
    and complement-independent, because column operations and scalings
    leave the determinant locus unchanged."""
    half = _affine_vectors(p, 5)
    keep = np.ones((len(pivots), 12), dtype=bool)
    np.put_along_axis(keep, pivots, False, 1)
    cols = np.nonzero(keep)[1].reshape(-1, 10)
    actions = np.take_along_axis(matrices, cols[:, None, :], axis=2)
    maps = np.stack([actions[..., :5], actions[..., 5:]], axis=1)  # a -> A a, b -> B b
    return (_coinciding_pairs(_image_keys(p, half, maps)) - 1) // (p - 1)


@functools.cache
def _plane_table(build) -> np.ndarray:
    """build(f1, f2), integer coefficients linear in a plane basis, as an
    (8, K) read-only int16 table of that map of the basis' 8 coefficients
    (f1 | f2), built once from build's values on the 8 unit bases over ZZ, so
    that BiForm stays the one definition of the monomial layout.  Its
    entries are -1, 0 and 1, which _contract's bound rests on."""
    zero = BiForm.zero(ZZ, 1, 1)
    units = [BiForm.monomial(ZZ, 1, 1, i, j) for i in range(2) for j in range(2)]
    bases = [(unit, zero) for unit in units] + [(zero, unit) for unit in units]
    table = np.array([build(f1, f2) for f1, f2 in bases], dtype=np.int64).reshape(8, -1)
    assert np.abs(table).max() <= 1, "plane table entries must be -1, 0 or 1"
    table = table.astype(np.int16)
    table.flags.writeable = False
    return table


def _contract(p: int, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (N, K) canonical images mod p of N planes' canonical basis rows,
    read as (N, 8) int16, under an (8, K) plane table: one int16 einsum,
    whose sums the assert keeps within int16, reduced mod p once."""
    rows = np.asarray(rows, dtype=np.int16).reshape(-1, 8)
    assert rows.shape[1] * (p - 1) * int(np.abs(table).max()) < 2**15, (
        "plane table sums must fit in int16")
    return _reduce(np.einsum("nj,jk->nk", rows, table), p)


def action_matrices(p: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """The det action matrices (N, 12, 12) and the K bases (N, 2, 12) of N
    planes given by their canonical basis rows (f1, f2), shape (N, 2, 4), as
    int16 canonical representatives mod p: the plane tables of
    det_action_matrix and _k_rows, each contracted with all N planes."""
    return (_contract(p, _plane_table(det_action_matrix), rows).reshape(-1, 12, 12),
            _contract(p, _plane_table(_k_rows), rows).reshape(-1, 2, 12))


def _ranks_mod_p(stack: np.ndarray, p: int) -> np.ndarray:
    """Rank over F_p of every matrix of an (N, rows, cols) stack of
    canonical representatives, by Gaussian elimination on the whole stack
    in int16, on a column-major (cols, rows, N) copy.  In each column, a row
    with the largest residue is the pivot row, and each row's factor is its
    residue over that largest one (0 throughout a zero column).
    Subtracting the reduced pivot row times the factors from the later
    columns clears the pivot row too, so no row is swapped.  Only that
    column and that row are reduced mod p: an entry falls by at most
    (p - 1)**2 per column, so int16 holds it while
    p + cols * (p - 1)**2 < 2**15.  That guard leaves p of headroom for
    _reduce: the multiple q * p of p it subtracts from an entry x lies in
    (x - p, x], so it cannot wrap either."""
    n, rows, cols = stack.shape
    if p + cols * (p - 1) ** 2 >= 2**15:
        raise ValueError(f"int16 elimination needs p + cols * (p - 1)**2 < 2**15, got p = {p}")
    inverse = _inverses(p)
    m = stack.transpose(2, 1, 0).astype(np.int16, order="C")
    rank = np.zeros(n, dtype=np.intp)
    lanes = np.arange(n)
    for c in range(cols):
        column = _reduce(m[c], p)
        top = column.max(axis=0)
        factor = _reduce(column * inverse[top], p)
        rank += top != 0
        # each pivot row by one flat take; an empty rest cannot reshape to (0, -1)
        rest = m[c + 1:]
        pivot = rest.reshape(cols - c - 1, rows * n).take(column.argmax(axis=0) * n + lanes, axis=1)
        rest -= _reduce(pivot, p)[:, None] * factor
    return rank


def _factoring_ok(p: int, matrices: np.ndarray, k_bases: np.ndarray) -> np.ndarray:
    """Per plane, whether both K rows lie in the kernel of the action, as
    they must: a count of any route is meaningful only where they do."""
    return ~_reduce(matrices @ k_bases.transpose(0, 2, 1), p).any(axis=(1, 2))


def _kernel_counts(p: int, matrices: np.ndarray) -> np.ndarray:
    """Det-zero points of the fibers over a stack of action matrices, via
    their ranks: the det-zero fiber points form the projectivization of
    (ker / K), of dimension dim ker - 2, as the determinant is linear in the
    first column.  A rank above 10, which the sweep's mask rules out, raises."""
    return (p ** (10 - _ranks_mod_p(matrices, p)) - 1) // (p - 1)


def _raw_maps(f1: BiForm, f2: BiForm) -> np.ndarray:
    """The maps phi -> phi*f2 and phi -> phi*f1 on (1, 2)-forms, as a
    (2, 12, 6) integer array of two matrices whose column k is the image of
    the k-th monomial: the raw oracle's own form products, never read off
    det_action_matrix, or the coset identity would hold by construction."""
    monomials = _first_column_monomials(f1.field)
    products = [[(mono * f).coeffs for mono in monomials] for f in (f2, f1)]
    return np.array(products).transpose(0, 2, 1)


def raw_oracle_maps(p: int, bases) -> np.ndarray:
    """The maps phi -> phi*f2 and phi -> phi*f1 on (1, 2)-forms of N planes
    with basis rows (f1, f2), an (N, 2, 4) array-like, as an (N, 2, 12, 6)
    stack of canonical matrices in _image_keys' layout: _raw_maps' plane
    table contracted with all N planes."""
    table = _plane_table(_raw_maps)
    # [f1 | f2 unit, map phi*f2 | phi*f1, image, monomial]: each map reads one form, and a
    # product of monomials is one monomial; one that lost its term breaks the coset identity
    products = table.reshape(2, 4, 2, 12, 6)
    assert (np.isin(table, (0, 1)).all() and (products.sum(axis=3) <= 1).all()
            and not products[0, :, 0].any() and not products[1, :, 1].any()), (
        "each raw product must be at most one monomial")
    return _contract(p, table, bases).reshape(-1, 2, 12, 6)


def raw_oracle_counts(p: int, bases) -> np.ndarray:
    """Oracle: per plane, the number of ALL raw first-column pairs (phi11,
    phi21) in F_p^12 with vanishing determinant, for N planes given by their
    basis rows, an (N, 2, 4) array-like.  det2 = phi11*f2 - phi21*f1
    vanishes iff the two products coincide, so the p^12 pairs are counted
    exactly by joining the p^6 images phi11*f2 with the p^6 images
    phi21*f1: the raw_oracle_maps stack of all N planes is keyed at once,
    and _coinciding_pairs counts the whole stack into one int64 column.

    Against the fiber count N it must satisfy the coset identity
        raw = p^2 + N * (p - 1) * p^2
    (the p^2 factoring pairs, plus p^2 raw pairs for each of the (p - 1)
    nonzero scalings of each det-zero projective fiber point)."""
    return _coinciding_pairs(_image_keys(p, _affine_vectors(p, 6), raw_oracle_maps(p, bases)))


# -- whole-Grassmannian sweeps ----------------------------------------------


class LocusSweep:
    """Outcome of sweeping every plane over F_p: one row per plane that meets
    the preconditions of the counts, in plane_bases order, holding its index
    in plane_bases(p) (int32), basis (int16), kind code and rank1_lines
    (int8), shared point (int16) and det-zero count (int64), and the raw
    count (int64) where the raw oracle runs, None where it does not;
    everything else is derived from these columns.  worker_failure names
    the count that raised, if one did, at the first countable plane of its
    block: the sweep then holds the blocks counted before it.  A plain
    class, so that no command imports dataclasses."""

    __slots__ = ("p", "method", "plane_index", "bases", "kinds", "rank1_lines",
                 "shared_points", "detzero_counts", "raw_counts", "failures", "worker_failure")

    def __init__(self, p: int, method: str, plane_index, bases, kinds, rank1_lines,
                 shared_points, detzero_counts, raw_counts, failures: list[str],
                 worker_failure: str | None = None):
        self.p, self.method, self.plane_index, self.bases = p, method, plane_index, bases
        self.kinds, self.rank1_lines, self.shared_points = kinds, rank1_lines, shared_points
        self.detzero_counts, self.raw_counts = detzero_counts, raw_counts
        self.failures, self.worker_failure = failures, worker_failure

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

    @property
    def raw_ok(self) -> np.ndarray:
        """Per row, whether its raw count meets the coset identity of
        raw_oracle_counts against its det-zero count; all true without raw counts."""
        p = self.p
        if self.raw_counts is None:
            return np.ones(len(self.detzero_counts), dtype=bool)
        return self.raw_counts == p * p + self.detzero_counts * (p - 1) * p * p


def count_planes(p: int, bases: np.ndarray, kinds: np.ndarray, routes) -> tuple:
    """Count the fibers over an (N, 2, 4) int16 stack of plane bases,
    echelon or not, with their kind codes, by each named route: "kernel" and
    "enumerate" count det-zero points, "raw" the raw p^12 pairs.  The planes
    run in blocks of KEY_BLOCK // b, b the largest route block, and of at
    least one plane: 144 action-matrix entries a plane for the kernel route,
    p**5 half-vectors for the join, p**6 for the raw oracle.  Each block gets
    one action_matrices contraction and one _k_pivots pass, whose
    dimensions feed the mask and whose pivots the join.  The mask holds back
    each plane whose kind is unknown, whose K does not have dimension 2,
    whose basis rows are linearly dependent (every 2 x 2 minor zero mod p),
    or whose K leaves the kernel of its action.  Every route maps the kept
    planes of a block to one int64 column, in route order, the raw oracle
    from their basis rows; a block with no kept plane runs none.  A count
    that raises drops its whole block and ends the loop at the block's first
    kept plane; an AssertionError, a broken table invariant, propagates.
    Returns (rows, counts, failures, worker_failure): the indices into bases
    of the planes every route counted; per route, an int64 column as long as
    rows; a line per held-back plane in plane order, then one per plane
    where another det-zero route differs from the first, route by route;
    and the message of the count that raised, or None."""
    table = {  # a plane's block entries, and the column of a block's kept rows, looked up per call
        "kernel": (144, lambda block, matrices, pivots: _kernel_counts(p, matrices)),
        "enumerate": (p**5, lambda block, matrices, pivots: _join_counts(p, matrices, pivots)),
        "raw": (p**6, lambda block, matrices, pivots: raw_oracle_counts(p, block))}
    columns = {route: [np.zeros(0, dtype=np.int64)] for route in routes}
    step = max(1, KEY_BLOCK // max(table[route][0] for route in routes))
    kept = np.zeros(len(bases), dtype=bool)
    failures, worker_failure = [], None
    for start in range(0, len(bases), step):
        block = bases[start:start + step]
        matrices, k_bases = action_matrices(p, block)
        dims, pivots = _k_pivots(p, k_bases)
        outer = block[:, 0, :, None] * block[:, 1, None, :]  # [i, j] = f1_i * f2_j
        independent = _reduce(outer - outer.transpose(0, 2, 1), p).any(axis=(1, 2))
        mask = ((kinds[start:start + step] >= 0) & (dims == 2) & independent
                & _factoring_ok(p, matrices, k_bases))
        for offset in np.flatnonzero(~mask).tolist():
            if kinds[start + offset] < 0:
                reason = (f"rank-one plane with basis rows {block[offset].tolist()} "
                          "shares neither factor")
            elif dims[offset] != 2:
                reason = f"factoring subspace K has dimension {dims[offset]}"
            elif not independent[offset]:
                reason = "basis rows are linearly dependent"
            else:
                reason = "factoring first-columns must have zero determinant"
            failures.append(f"plane {start + offset}: {reason}")
        if not mask.any():
            continue
        if not mask.all():  # copy the stacks only where a plane is held back
            block, matrices, pivots = block[mask], matrices[mask], pivots[mask]
        try:
            counted = [table[route][1](block, matrices, pivots) for route in routes]
        except AssertionError:  # a broken table invariant is an internal error
            raise
        except Exception as exc:
            worker_failure = f"worker failed on plane {start + mask.argmax()}: {exc}"
            break
        kept[start:start + step] = mask
        for route, column in zip(routes, counted):
            columns[route].append(column)
    rows = np.flatnonzero(kept)
    counts = {route: np.concatenate(column) for route, column in columns.items()}
    # raw counts pairs, which the coset identity checks, not det-zero points
    detzero = [route for route in routes if route != "raw"]
    for route in detzero[1:]:
        first, other = counts[detzero[0]], counts[route]
        failures += [f"plane {rows[i]}: {detzero[0]} count {first[i]}, {route} count {other[i]}"
                     for i in np.flatnonzero(first != other)]
    return rows, counts, failures, worker_failure


# `workers` is kept for bench/run.py's sweep_locus(workers=) call, which CI's smoke step runs
def sweep_locus(p: int, *, workers: int = 1, full_oracle: bool = False) -> LocusSweep:
    """Classify every plane, count det-zero fiber points, and verify the
    totals, by every route of the prime's SWEEP_ROUTES row without or with
    full_oracle: plane_bases' int16 table, one classify_planes pass over it,
    and count_planes, whose first route gives the method and det-zero counts
    and whose "raw" route the raw counts.  Then each row is checked against
    its kind and the coset identity, and the orbit tallies and X against
    their formulas, unless a count raised: the sweep is then returned
    partial, its message in `worker_failure` and last in `failures`.
    Mismatches never raise here, they are recorded in `failures`."""
    bases = plane_bases(p)
    kinds, rank1_lines, shared_points = classify_planes(p, bases)
    routes = SWEEP_ROUTES[p][full_oracle]
    rows, counts, failures, worker_failure = count_planes(p, bases, kinds, routes)
    sweep = LocusSweep(p, routes[0], rows.astype(np.int32), bases[rows], kinds[rows],
                       rank1_lines[rows], shared_points[rows], counts[routes[0]],
                       counts.get("raw"), failures, worker_failure)
    if worker_failure is not None:
        failures.append(worker_failure)
        return sweep
    detzero, expected, raw_ok = sweep.detzero_counts, sweep.expected_counts, sweep.raw_ok
    for row in np.flatnonzero((detzero != expected) | ~raw_ok).tolist():
        index = sweep.plane_index[row]
        if detzero[row] != expected[row]:
            failures.append(f"plane {index} ({KINDS[sweep.kinds[row]]}): "
                            f"det-zero count {detzero[row]}, expected {expected[row]}")
        if not raw_ok[row]:
            failures.append(f"plane {index}: raw sweep count {sweep.raw_counts[row]} "
                            f"breaks the coset identity")
    # the five GL2 x GL2 orbits of planes
    generic = np.bincount(sweep.rank1_lines[sweep.kinds == KINDS.index(GENERIC)], minlength=3)
    orbits = [(f"generic planes with rank1_lines = {lines}", generic[lines], size)
              for lines, size in generic_orbit_sizes(p).items()]
    orbits += [(f"{kind} planes", sweep.tallies[kind], p + 1) for kind in KINDS[1:]]
    failures += [f"{count} {label}, expected {size}" for label, count, size in orbits
                 if count != size]
    if sweep.x_count != sweep.expected_x:
        failures.append(f"det-zero total {sweep.x_count}, expected {sweep.expected_x}")
    return sweep
