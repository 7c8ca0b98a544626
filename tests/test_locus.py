import json
import math
import random

import numpy as np
import pytest

import quadric_moduli.locus as locus_module
from quadric_moduli.betti import (
    SUPPORTED_PRIMES, SWEEP_ROUTES, XiPoly, grass_count, grass_poincare, poincare_moduli,
    projective_count, stratified_moduli_count,
)
from quadric_moduli.biform import ZZ, BiForm
from quadric_moduli.locus import (
    GENERIC, KEY_BLOCK, KINDS, SHARED_LEFT, SHARED_RIGHT, classify_planes, count_planes,
    expected_detzero, expected_x_count, generic_orbit_sizes, plane_bases, raw_oracle_counts,
    raw_oracle_maps, sweep_locus,
)
from quadric_moduli.locus import (
    _join_counts, _k_pivots, _k_rows, det_action_matrix,
)
from quadric_moduli.report import load_golden, locus_document_chunks, locus_summary
from conftest import sweep_counting_planes
from form_reference import GF, QQ, add, from_terms, is_zero, rank1_test, scale
from plane_reference import (
    Plane, VerificationError, detzero_count_for_basis, enumerate_planes, fiber_detzero_count,
    moduli_point_count, plane_from_forms, raw_oracle_count, raw_oracle_maps_of,
)


def plane_of(p, *rows):
    return Plane(p, tuple(tuple(r) for r in rows))


def fibers_of(sweep) -> list[dict]:
    """The parsed fiber list of the sweep's verify-locus document."""
    text = "".join(locus_document_chunks(sweep, locus_summary(sweep, load_golden())))
    return json.loads(text)["fibers"]


def classify_one(plane: Plane) -> tuple[str, int, tuple[int, int]]:
    """classify_planes on a batch of one: kind, rank1_lines, shared point."""
    (code,), (rank1_lines,), (point,) = classify_planes(plane.p, [plane.rows])
    assert code >= 0
    return KINDS[code], int(rank1_lines), tuple(point.tolist())


# -- plane enumeration --------------------------------------------------------

@pytest.mark.parametrize("p,expected", [(2, 35), (3, 130), (5, 806), (7, 2850)])
def test_enumerate_planes_count(p, expected):
    planes = list(enumerate_planes(p))
    assert len(planes) == expected
    # oracle: the Gaussian binomial point count of the Grassmannian
    assert len(planes) == grass_poincare(2, 4).eval(p)
    assert len(set(planes)) == len(planes)


def test_enumerated_bases_are_rref():
    for plane in enumerate_planes(2):
        field = GF(2)
        rows = plane.rows
        lead0 = min(i for i, c in enumerate(rows[0]) if c)
        lead1 = min(i for i, c in enumerate(rows[1]) if c)
        assert lead0 < lead1
        assert rows[0][lead0] == 1 and rows[1][lead1] == 1
        assert rows[0][lead1] == 0  # pivot column cleared above


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_schubert_cells_sum_to_the_gaussian_binomial(p):
    # a route to [4 choose 2]_xi that shares no code with the q-Pascal rule:
    # the planes with echelon pivots (c1, c2) form an affine cell of p^d
    # points, and the cells' xi^d sum to the Poincare polynomial
    pivots = (plane_bases(p) != 0).argmax(axis=2)
    cells, sizes = np.unique(pivots, axis=0, return_counts=True)
    assert len(cells) == 6
    census = XiPoly()
    for size in sizes.tolist():
        d = round(math.log(size, p))
        assert p**d == size
        census = census + XiPoly.monomial(d)
    assert census == grass_poincare(2, 4)


def test_plane_validation():
    with pytest.raises(ValueError):
        plane_of(2, (1, 0, 0, 0), (1, 0, 0, 0))  # dependent
    with pytest.raises(ValueError):
        plane_of(2, (0, 1, 0, 0), (1, 0, 0, 0))  # not echelon-ordered
    with pytest.raises(ValueError):
        plane_of(2, (1, 1, 0, 0), (0, 1, 0, 0))  # pivot column not cleared above
    with pytest.raises(ValueError):
        plane_of(3, (2, 1, 0, 0), (0, 0, 1, 0))  # leading coefficient 2, not 1
    with pytest.raises(ValueError):
        plane_of(11, (1, 0, 0, 0), (0, 1, 0, 0))  # unsupported prime
    with pytest.raises(ValueError):
        plane_of(2, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0))  # three rows
    with pytest.raises(ValueError):
        plane_of(2, (1, 0, 0), (0, 1, 0))  # rows of length 3
    with pytest.raises(ValueError):
        list(enumerate_planes(4))


def test_plane_from_forms_canonicalizes():
    field = GF(3)
    xz = BiForm.monomial(field, 1, 1, 0, 0)
    xw = BiForm.monomial(field, 1, 1, 0, 1)
    plane = plane_from_forms(add(scale(xz, 2), xw), add(xz, xw))
    assert plane == plane_of(3, (1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError):
        plane_from_forms(xz, scale(xz, 2))


# -- classification ------------------------------------------------------------

def test_classify_shared_right_canonical():
    # span{x z, y z}: every element is (ax + by) tensor z
    plane = plane_of(2, (1, 0, 0, 0), (0, 0, 1, 0))
    kind, _, point = classify_one(plane)
    assert (kind, point) == (SHARED_RIGHT, (1, 0))
    assert expected_detzero(2)[KINDS.index(kind)] == 1


def test_classify_shared_left_canonical():
    # span{x z, x w}: every element is x tensor (cz + dw)
    plane = plane_of(2, (1, 0, 0, 0), (0, 1, 0, 0))
    kind, _, point = classify_one(plane)
    assert (kind, point) == (SHARED_LEFT, (1, 0))
    assert expected_detzero(2)[KINDS.index(kind)] == 3
    assert expected_detzero(3)[KINDS.index(kind)] == 4


def test_classify_generic_with_double_root():
    # span{x z + y w, x w}: q(s, t) = s^2, one projective root
    plane = plane_of(2, (1, 0, 0, 1), (0, 1, 0, 0))
    kind, rank1_lines, _ = classify_one(plane)
    assert (kind, rank1_lines) == (GENERIC, 1)
    assert expected_detzero(2)[KINDS.index(kind)] == 0


def rank1_lines_by_sweep(plane: Plane) -> int:
    """Oracle: count rank-one lines by testing every projective combination
    of the basis."""
    field = GF(plane.p)
    b1, b2 = plane.basis()
    points = [(field.one, t) for t in field.elements()] + [(field.zero, field.one)]
    lines = 0
    for s, t in points:
        element = add(scale(b1, s), scale(b2, t))
        if is_zero(element):
            continue
        if rank1_test(element) is not None:
            lines += 1
    return lines


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_classification_matches_rank1_sweep(p):
    kinds, rank1_lines, _ = classify_planes(p, plane_bases(p))
    assert len(kinds) == grass_count(p)
    assert kinds.min() >= 0
    for plane, kind, rank1 in zip(enumerate_planes(p), kinds.tolist(), rank1_lines.tolist()):
        lines = rank1_lines_by_sweep(plane)
        if KINDS[kind] == GENERIC:
            assert rank1 == lines
            assert lines <= 2
        else:
            assert lines == p + 1  # every line of the plane is rank one


def reference_kind(p: int, rows) -> tuple[int, tuple[int, int]]:
    """Oracle: the kind code and shared point of a rank-one plane, from the
    rank1_test splits of its two basis forms."""
    field = GF(p)
    (v1, w1), (v2, w2) = (rank1_test(BiForm(field, 1, 1, row)) for row in rows)

    def proportional(u, v):
        return (u.coeffs[0] * v.coeffs[1] - u.coeffs[1] * v.coeffs[0]) % p == 0

    def normalized(point):
        lead = next(c for c in point.coeffs if c)
        return tuple(field.mul(field.inv(lead), c) for c in point.coeffs)

    if proportional(w1, w2):
        return KINDS.index(SHARED_RIGHT), normalized(w1)
    if proportional(v1, v2):
        return KINDS.index(SHARED_LEFT), normalized(v1)
    return -1, (0, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_one_classification_matches_rank1_test(p):
    bases = plane_bases(p)
    kinds, _, points = classify_planes(p, bases)
    rank_one = [row for row, plane in enumerate(enumerate_planes(p))
                if rank1_lines_by_sweep(plane) == p + 1]
    assert len(rank_one) == 2 * (p + 1)
    assert np.flatnonzero(kinds != KINDS.index(GENERIC)).tolist() == rank_one
    assert not points[kinds == KINDS.index(GENERIC)].any()
    # the same planes on random other bases, which are not in echelon form, so
    # that the shared point must be scaled to lead with one
    rng = np.random.default_rng(p)
    changes = [(a, b, c, d) for a, b, c, d in rng.integers(0, p, (64, 4)).tolist()
               if (a * d - b * c) % p][:len(rank_one)]
    mixed = np.einsum("nij,njk->nik", np.reshape(changes, (-1, 2, 2)), bases[rank_one]) % p
    mixed_kinds, _, mixed_points = classify_planes(p, mixed)
    for row, mixed_rows, kind, point in zip(rank_one, mixed, mixed_kinds, mixed_points,
                                            strict=True):
        expected = (int(kinds[row]), tuple(points[row].tolist()))
        assert expected == reference_kind(p, bases[row]) == reference_kind(p, mixed_rows)
        assert (int(kind), tuple(point.tolist())) == expected


def test_plane_type_partition(sweep2, sweep3):
    for sweep in (sweep2, sweep3):
        p = sweep.p
        assert sum(sweep.tallies.values()) == grass_count(p) == (p * p + 1) * (p * p + p + 1)
        assert sweep.tallies[SHARED_RIGHT] == p + 1
        assert sweep.tallies[SHARED_LEFT] == p + 1


def test_shared_right_planes_at_p2_by_construction(sweep2):
    # oracle: the shared-right planes are exactly span{x tensor v, y tensor v}
    field = GF(2)
    expected = set()
    for v in [(1, 0), (0, 1), (1, 1)]:
        xv = from_terms(field, 1, 1, {(0, 0): v[0], (0, 1): v[1]})
        yv = from_terms(field, 1, 1, {(1, 0): v[0], (1, 1): v[1]})
        expected.add(plane_from_forms(xv, yv))
    found = {plane_of(2, *sweep2.bases[row].tolist())
             for row in np.flatnonzero(sweep2.kinds == KINDS.index(SHARED_RIGHT))}
    assert found == expected
    assert len(found) == 3


# -- fiber counts -----------------------------------------------------------------

def test_fiber_counts_by_type(sweep2, sweep3):
    for sweep in (sweep2, sweep3):
        p = sweep.p
        by_kind = {}
        for kind, count in zip(sweep.kinds.tolist(), sweep.detzero_counts.tolist()):
            by_kind.setdefault(KINDS[kind], set()).add(count)
        assert by_kind[GENERIC] == {0}
        assert by_kind[SHARED_RIGHT] == {1}
        assert by_kind[SHARED_LEFT] == {p + 1}
        assert (sweep.detzero_counts == sweep.expected_counts).all()


def test_fiber_count_canonical_examples():
    assert fiber_detzero_count(plane_of(2, (1, 0, 0, 1), (0, 1, 0, 0))) == 0
    assert fiber_detzero_count(plane_of(2, (1, 0, 0, 0), (0, 0, 1, 0))) == 1
    assert fiber_detzero_count(plane_of(2, (1, 0, 0, 0), (0, 1, 0, 0))) == 3


@pytest.mark.parametrize("p", [2, 3])
def test_enumeration_agrees_with_kernel_route(p):
    bases = plane_bases(p)
    rows, counts, failures, _ = count_planes(p, bases, classify_planes(p, bases)[0], ("kernel",))
    assert rows.tolist() == list(range(len(bases))) and failures == []
    kernel_counts = counts["kernel"].tolist()
    for plane, kernel_count in zip(enumerate_planes(p), kernel_counts, strict=True):
        assert fiber_detzero_count(plane) == kernel_count


def test_detzero_count_guards():
    field = GF(2)
    xz = BiForm.monomial(field, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        detzero_count_for_basis(xz, xz)  # dependent basis
    xz_q = BiForm.monomial(QQ, 1, 1, 0, 0)
    xw_q = BiForm.monomial(QQ, 1, 1, 0, 1)
    with pytest.raises(ValueError):
        detzero_count_for_basis(xz_q, xw_q)  # not a prime field


def test_gauge_invariance():
    rng = random.Random(7)
    for p in (2, 3):
        field = GF(p)
        planes = list(enumerate_planes(p))
        for plane in rng.sample(planes, 8):
            reference = fiber_detzero_count(plane)
            f1, f2 = plane.basis()
            # with the 12 first-column coordinates reversed, the join takes
            # another complement of K
            k_basis = np.array([_k_rows(f1, f2)])
            reversed_pivots = _k_pivots(p, k_basis[..., ::-1])[1]
            assert not set(11 - reversed_pivots[0]) & set(_k_pivots(p, k_basis)[1][0])
            matrix = det_action_matrix(f1, f2)[None, :, ::-1]
            assert _join_counts(p, matrix, reversed_pivots).tolist() == [reference]
            while True:
                a, b, c, d = (field.random(rng) for _ in range(4))
                if field.sub(field.mul(a, d), field.mul(b, c)) != field.zero:
                    break
            assert detzero_count_for_basis(add(scale(f1, a), scale(f2, b)),
                                           add(scale(f1, c), scale(f2, d))) == reference


def check_moved_bases(p, routes):
    """Count every plane of F_p by `routes` through count_planes on the basis
    G B of its echelon rows B, G = [[1, 1], [1, 2]]: that moves K and the
    action, but neither the plane's kind nor any route's count.  No plane is
    held back and no count raises, and each column is int64, a row per plane,
    and equal to the sweep's, with full_oracle where "raw" is a route.  CI
    runs it at p = 7 with ("enumerate", "kernel")."""
    bases = plane_bases(p)
    moved = (np.array([[1, 1], [1, 2]]) @ bases % p).astype(np.int16)
    kinds = classify_planes(p, moved)[0]
    rows, counts, failures, worker_failure = count_planes(p, moved, kinds, routes)
    assert failures == [] and worker_failure is None
    assert rows.tolist() == list(range(len(bases)))
    assert all(column.dtype == np.int64 and len(column) == len(rows) for column in counts.values())
    sweep = sweep_locus(p, full_oracle="raw" in routes)
    assert sweep.plane_index.tolist() == rows.tolist()
    assert np.array_equal(kinds, sweep.kinds)
    for route, column in counts.items():
        assert np.array_equal(column, sweep.raw_counts if route == "raw" else sweep.detzero_counts)


@pytest.mark.parametrize("p", [2, 3])
def test_join_does_not_depend_on_the_plane_basis(p):
    check_moved_bases(p, ("enumerate", "kernel", "raw"))


@pytest.mark.parametrize("p", [2, 3])
def test_count_planes_holds_back_a_zero_basis_mid_stack(p):
    # a zero basis has a zero K: one failure line names it, and every route
    # counts every other plane of the stack
    sweep = sweep_locus(p, full_oracle=True)
    bases = plane_bases(p).copy()
    zero = len(bases) // 2
    bases[zero] = 0
    routes = SWEEP_ROUTES[p][True]
    rows, counts, failures, worker_failure = count_planes(
        p, bases, classify_planes(p, bases)[0], routes)
    assert failures == [f"plane {zero}: factoring subspace K has dimension 0"]
    assert worker_failure is None
    others = [index for index in range(len(bases)) if index != zero]
    assert rows.tolist() == others
    assert set(counts) == set(routes)
    for route, column in counts.items():
        assert column.dtype == np.int64
        expected = sweep.raw_counts if route == "raw" else sweep.detzero_counts
        assert column.tolist() == expected[others].tolist()


def test_count_planes_holds_back_dependent_basis_rows():
    # at p = 3 each of (f, f) with f = xz + yw, (f, f) with f = xz and
    # (f, 2f) with f = xz + xw has a K of dimension 2 in the kernel of its
    # action, but spans no plane: one failure line each, between two planes
    # that every route counts as the sweep does
    p = 3
    sweep = sweep_locus(p, full_oracle=True)
    routes = SWEEP_ROUTES[p][True]
    for dependent in ([[1, 0, 0, 1], [1, 0, 0, 1]], [[1, 0, 0, 0], [1, 0, 0, 0]],
                      [[1, 1, 0, 0], [2, 2, 0, 0]]):
        bases = np.array([sweep.bases[0], dependent, sweep.bases[1]], dtype=np.int16)
        rows, counts, failures, worker_failure = count_planes(
            p, bases, classify_planes(p, bases)[0], routes)
        assert failures == ["plane 1: basis rows are linearly dependent"], dependent
        assert worker_failure is None and rows.tolist() == [0, 2]
        for route, column in counts.items():
            expected = sweep.raw_counts if route == "raw" else sweep.detzero_counts
            assert column.tolist() == expected[:2].tolist()


def test_count_planes_takes_one_plane_a_block_for_the_raw_oracle_at_p7():
    # 7**6 half-vectors a plane is past KEY_BLOCK: each block holds one plane
    p = 7
    assert p**6 > KEY_BLOCK
    bases = plane_bases(p)[:2]
    rows, counts, failures, worker_failure = count_planes(
        p, bases, classify_planes(p, bases)[0], ("raw", "kernel"))
    assert rows.tolist() == [0, 1] and failures == [] and worker_failure is None
    assert counts["kernel"].tolist() == [8, 0]  # a shared-left and a generic plane
    assert counts["raw"].tolist() == (p * p + counts["kernel"] * (p - 1) * p * p).tolist()


def test_count_planes_stops_at_the_raw_block_that_raises(monkeypatch):
    # at p = 3 every route counts blocks of 89 planes, the raw oracle's;
    # its count raising on the second block keeps the first block's rows
    p, calls = 3, []
    real = locus_module.raw_oracle_counts
    sweep = sweep_locus(p, full_oracle=True)

    def flaky(p, rows):
        calls.append(len(rows))
        if len(calls) > 1:
            raise RuntimeError("injected")
        return real(p, rows)

    monkeypatch.setattr(locus_module, "raw_oracle_counts", flaky)
    bases = plane_bases(p)
    rows, counts, failures, worker_failure = count_planes(
        p, bases, classify_planes(p, bases)[0], SWEEP_ROUTES[p][True])
    assert calls == [89, 41]
    assert rows.tolist() == list(range(89))
    assert failures == [] and worker_failure == "worker failed on plane 89: injected"
    for route, column in counts.items():
        expected = sweep.raw_counts if route == "raw" else sweep.detzero_counts
        assert column.tolist() == expected[:89].tolist()


def add_one_to_every_join_count(monkeypatch):
    real = locus_module._join_counts
    monkeypatch.setattr(locus_module, "_join_counts", lambda *args: real(*args) + 1)


@pytest.mark.parametrize("fault", [None, add_one_to_every_join_count], ids=["as-is", "join-plus-one"])
@pytest.mark.parametrize("p", [2, 3])
def test_count_planes_does_not_depend_on_the_order_of_later_routes(monkeypatch, p, fault):
    # kernel and raw swapped behind the first route: the same rows, columns
    # and failure lines, mismatch lines included where the join is one off
    if fault is not None:
        fault(monkeypatch)
    bases = plane_bases(p)
    kinds = classify_planes(p, bases)[0]
    routes = SWEEP_ROUTES[p][True]
    assert routes == ("enumerate", "kernel", "raw")
    rows, counts, failures, worker_failure = count_planes(p, bases, kinds, routes)
    swapped = count_planes(p, bases, kinds, ("enumerate", "raw", "kernel"))
    assert rows.tolist() == swapped[0].tolist() == list(range(len(bases)))
    assert {route: column.tolist() for route, column in counts.items()} == {
        route: column.tolist() for route, column in swapped[1].items()}
    assert failures == swapped[2] and worker_failure is None and swapped[3] is None
    assert len(failures) == (len(bases) if fault else 0)


# -- raw oracle ---------------------------------------------------------------------

RAW_BY_KIND_P2 = {GENERIC: 4, SHARED_RIGHT: 8, SHARED_LEFT: 16}


def test_raw_oracle_identity_every_plane_p2(sweep2):
    for row, (kind, count) in enumerate(zip(sweep2.kinds.tolist(),
                                            sweep2.detzero_counts.tolist())):
        raw = raw_oracle_count(plane_of(2, *sweep2.bases[row].tolist()))
        assert raw == 4 + count * 4
        assert raw == RAW_BY_KIND_P2[KINDS[kind]]


def test_raw_oracle_identity_one_plane_each_type_p3(sweep3):
    seen = {}
    for row, kind in enumerate(sweep3.kinds.tolist()):
        seen.setdefault(KINDS[kind], row)
    assert set(seen) == {GENERIC, SHARED_RIGHT, SHARED_LEFT}
    for row in seen.values():
        raw = raw_oracle_count(plane_of(3, *sweep3.bases[row].tolist()))
        assert raw == 9 + int(sweep3.detzero_counts[row]) * 18


@pytest.mark.parametrize("p,planes", [(2, 35), (3, 130)])
def test_raw_oracle_batch_equals_batches_of_one(p, planes):
    sweep = sweep_locus(p, full_oracle=True)
    assert sweep.raw_counts.dtype == np.int64 and len(sweep.raw_counts) == planes
    batch = raw_oracle_counts(p, sweep.bases)
    assert batch.dtype == np.int64
    batch = batch.tolist()
    assert batch == [raw_oracle_count(plane_of(p, *rows)) for rows in sweep.bases.tolist()]
    assert batch == sweep.raw_counts.tolist()
    assert batch == [p * p + count * (p - 1) * p * p for count in sweep.detzero_counts.tolist()]
    assert raw_oracle_counts(p, []).tolist() == []


@pytest.mark.parametrize("p,step", [(2, 1), (3, 1), (5, 10), (7, 10)])
def test_raw_oracle_maps_equal_per_plane_form_products(p, step):
    # the unit-product contraction against products with each plane's own forms over GF(p)
    bases = plane_bases(p)[::step]
    maps = raw_oracle_maps(p, bases)
    assert maps.shape == (len(bases), 2, 12, 6)
    for rows, plane_maps in zip(bases.tolist(), maps):
        assert np.array_equal(plane_maps, raw_oracle_maps_of(plane_of(p, *rows)))


@pytest.mark.parametrize("p", [5, 7])
def test_raw_oracle_past_the_sweep_primes(p):
    # no SWEEP_ROUTES row runs the raw oracle at p = 5, 7; the oracle takes any prime
    sweep = sweep_locus(p)
    rows = sorted(np.unique(sweep.kinds, return_index=True)[1].tolist())
    raw = raw_oracle_counts(p, sweep.bases[rows]).tolist()
    assert [KINDS[kind] for kind in sweep.kinds[rows]] == [SHARED_LEFT, GENERIC, SHARED_RIGHT]
    assert raw == [p**4, p**2, p**3]
    assert raw == [p * p + int(sweep.detzero_counts[row]) * (p - 1) * p * p for row in rows]
    assert raw == [raw_oracle_count(plane_of(p, *sweep.bases[row].tolist())) for row in rows]


# -- totals and the stratified count ---------------------------------------------

def test_total_x_counts(sweep2, sweep3):
    assert not sweep2.failures and not sweep3.failures
    assert sweep2.x_count == 12 == expected_x_count(2)
    assert sweep3.x_count == 20 == expected_x_count(3)


# Each check below shows that a check of the verdict would restate another.
# Both sides of each identity are polynomials in p of degree at most 13, so
# agreement at the 40 values p = 2, ..., 41 proves it for every p.

def test_orbit_sizes_sum_to_the_grassmannian():
    for p in range(2, 42):
        assert sum(generic_orbit_sizes(p).values()) + 2 * (p + 1) == grass_count(p)


def test_moduli_count_gap_is_the_x_gap():
    # stratified count minus the Betti-polynomial value is expected X minus X:
    # comparing the moduli count with the polynomial restates the X check
    for p in range(2, 42):
        poincare = poincare_moduli().eval(p)
        for x in (-5, 0, expected_x_count(p), 199):
            assert stratified_moduli_count(p, x) - poincare == expected_x_count(p) - x


def test_expected_x_is_the_sum_over_kinds():
    # p + 1 planes of each shared kind, and none of the generic planes, carry
    # det-zero points: the X total restates the per-plane and tally checks
    for p in range(2, 42):
        by_kind = expected_detzero(p)
        assert by_kind[KINDS.index(GENERIC)] == 0
        assert ((p + 1) * by_kind[KINDS.index(SHARED_RIGHT)]
                + (p + 1) * by_kind[KINDS.index(SHARED_LEFT)]) == expected_x_count(p)


def route_block(p: int, full_oracle: bool) -> int:
    """The largest block of the routes a sweep runs at p: 144 action-matrix
    entries a plane for the kernel route, p**5 half-vectors for the join and
    p**6 for the raw oracle."""
    blocks = {"kernel": 144, "enumerate": p**5, "raw": p**6}
    return max(blocks[route] for route in SWEEP_ROUTES[p][full_oracle])


def test_sweep_method_gating(sweep7_full_oracle):
    # a sweep runs every route of its prime's SWEEP_ROUTES row, without or
    # with full_oracle, on every counted plane; the first is the report's method
    assert SUPPORTED_PRIMES == tuple(SWEEP_ROUTES)
    for row in SWEEP_ROUTES.values():
        # two tuples of names, and no bool: sweep_locus looks each route up
        # by name, so a mistyped name must fail here
        assert len(row) == 2 and all(type(routes) is tuple for routes in row)
        for routes in row:
            assert set(routes) <= {"kernel", "enumerate", "raw"}
            assert len(set(routes)) == len(routes)
            assert routes[0] in ("kernel", "enumerate")  # the method is a count route
            assert "kernel" in routes  # the kernel route runs at every prime
        plain, oracle = row
        assert set(plain) <= set(oracle)  # --full-oracle only adds routes
    for p in SUPPORTED_PRIMES:
        for full_oracle in (False, True):
            routes = SWEEP_ROUTES[p][full_oracle]
            sweep, counted = (sweep7_full_oracle if (p, full_oracle) == (7, True)
                              else sweep_counting_planes(p, full_oracle))
            assert sweep.method == routes[0] and not sweep.failures
            # each count route counted each plane once
            assert counted == {route: grass_count(p) for route in routes if route != "raw"}
            if "raw" in routes:  # the raw oracle checks every counted plane
                assert len(sweep.raw_counts) == len(sweep.plane_index) == grass_count(p)
            else:
                assert sweep.raw_counts is None


def test_total_x_count_p5_kernel_route(sweep5):
    assert sweep5.method == "kernel"
    assert not sweep5.failures
    assert sweep5.x_count == 42 == expected_x_count(5)
    assert sweep5.tallies[SHARED_RIGHT] == 6
    assert sweep5.tallies[SHARED_LEFT] == 6


def test_p5_enumeration_spot_checks(sweep5):
    seen = {}
    for row, kind in enumerate(sweep5.kinds.tolist()):
        seen.setdefault(KINDS[kind], row)
    for kind, row in sorted(seen.items()):
        plane = plane_of(5, *sweep5.bases[row].tolist())
        assert fiber_detzero_count(plane) == sweep5.detzero_counts[row]


def test_moduli_point_count_p2():
    assert projective_count(2, 9) == 1023
    assert grass_count(2) == 35
    assert projective_count(2, 9) * grass_count(2) == 35805
    assert (2 + 1) ** 2 * projective_count(2, 10) == 18423
    assert projective_count(2, 11) == 4095
    count = moduli_point_count(2)
    assert count == 35805 - 12 + 18423 + 4095 == 58311
    assert count == poincare_moduli().eval(2)


def test_moduli_point_count_p3(sweep3):
    count = stratified_moduli_count(3, sweep3.x_count)
    assert count == 5520988
    assert count == poincare_moduli().eval(3)


def test_moduli_point_count_p5(sweep5):
    count = stratified_moduli_count(5, sweep5.x_count)
    assert count == poincare_moduli().eval(5)


def test_moduli_point_count_p7_kernel_route():
    assert moduli_point_count(7) == poincare_moduli().eval(7)


# -- sweep orchestration -------------------------------------------------------------

COLUMNS = ("plane_index", "bases", "kinds", "rank1_lines", "shared_points", "detzero_counts")


def test_sweep_is_deterministic(sweep2):
    # `workers` selects nothing; the keyword stays accepted
    again = sweep_locus(2, workers=2)
    for column in COLUMNS:
        assert np.array_equal(getattr(again, column), getattr(sweep2, column)), column
    assert again.failures == sweep2.failures == []
    assert again.raw_counts is sweep2.raw_counts is None
    assert fibers_of(again) == fibers_of(sweep2)
    assert len(fibers_of(sweep2)) == grass_count(2)


@pytest.mark.parametrize("p,full_oracle,targets", [
    (7, False, 0), (5, False, 0), (5, True, 0), (2, False, 0), (2, True, 35), (3, True, 130),
])
def test_sweep_builds_planes_only_for_raw_targets(monkeypatch, p, full_oracle, targets):
    # the sweep stays in columns: it builds the raw oracle's maps block by
    # block, for the basis rows of the counted planes, and only in a
    # full-oracle sweep at 2, 3
    real = locus_module.raw_oracle_maps
    calls = []

    def counting(p, bases):
        calls.append(np.asarray(bases).tolist())
        return real(p, bases)

    monkeypatch.setattr(locus_module, "raw_oracle_maps", counting)
    sweep = sweep_locus(p, full_oracle=full_oracle)
    assert not sweep.failures
    if targets:
        assert len(sweep.raw_counts) == targets
        assert sum(calls, []) == sweep.bases.tolist()
        assert max(map(len, calls)) <= KEY_BLOCK // p**6
    else:
        assert sweep.raw_counts is None and calls == []


@pytest.mark.parametrize("p", [2, 3])
def test_full_oracle_sweep_multiplies_forms_only_on_unit_forms(monkeypatch, p):
    # past the cached action tables, a full-oracle sweep multiplies forms
    # only in the 96 products of the raw table (each of the six monomials
    # times both forms of each of the 8 unit bases), all over ZZ, once for
    # all of its raw blocks (one at p = 2, two at p = 3), and not on a warm sweep
    sweep_locus(p, full_oracle=True)
    locus_module._plane_table.cache_clear()
    for build in (det_action_matrix, _k_rows):
        locus_module._plane_table(build)
    real, fields = BiForm.__mul__, []

    def counting(self, other):
        fields.append(self.field)
        return real(self, other)

    monkeypatch.setattr(BiForm, "__mul__", counting)
    assert not sweep_locus(p, full_oracle=True).failures
    assert fields == [ZZ] * 96
    fields.clear()
    assert not sweep_locus(p, full_oracle=True).failures
    assert fields == []


@pytest.mark.parametrize("p,full_oracle",
                         [(2, False), (3, False), (3, True), (5, True), (7, False)])
def test_sweep_finds_k_pivots_once(monkeypatch, p, full_oracle):
    # every plane reaches _k_pivots exactly once, in the block whose pass
    # gives both the mask's dimensions and the join's pivots
    real = locus_module._k_pivots
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(locus_module, "_k_pivots", counting)
    sweep = sweep_locus(p, full_oracle=full_oracle)
    assert sweep.method == ("kernel" if p == 7 else "enumerate") and not sweep.failures
    assert sum(calls) == grass_count(p)
    assert max(calls) <= KEY_BLOCK // route_block(p, full_oracle)


@pytest.mark.parametrize("p,full_oracle",
                         [(2, False), (3, False), (3, True), (5, True), (7, False)])
def test_sweep_classifies_block_by_block_as_over_the_whole_table(monkeypatch, p, full_oracle):
    # the sweep classifies the whole table in one classify_planes call and
    # counts it block by block; passes over blocks of 7 planes, of
    # classify_planes and of the sweep's counted blocks, give the same
    # kinds, rank1_lines, shared points and counts
    bases = plane_bases(p)
    whole = classify_planes(p, bases)
    sevens = [np.concatenate(column) for column in zip(
        *(classify_planes(p, bases[start:start + 7]) for start in range(0, len(bases), 7)))]
    real, calls = locus_module.classify_planes, []
    real_actions, blocks = locus_module.action_matrices, []

    def counting(p, block):
        calls.append(len(block))
        return real(p, block)

    def counting_blocks(p, rows):
        blocks.append(len(rows))
        return real_actions(p, rows)

    monkeypatch.setattr(locus_module, "classify_planes", counting)
    sweep = sweep_locus(p, full_oracle=full_oracle)
    assert calls == [len(bases)] and not sweep.failures
    monkeypatch.setattr(locus_module, "action_matrices", counting_blocks)
    # blocks of 7 planes of the row's largest route block
    monkeypatch.setattr(locus_module, "KEY_BLOCK", 7 * route_block(p, full_oracle))
    in_blocks_of_7 = sweep_locus(p, full_oracle=full_oracle)
    assert calls == [len(bases)] * 2 and not in_blocks_of_7.failures
    assert blocks == [7] * (len(bases) // 7) + [len(bases) % 7] * (len(bases) % 7 > 0)
    for swept in (sweep, in_blocks_of_7):
        assert swept.plane_index.tolist() == list(range(len(bases)))
        columns = (swept.kinds, swept.rank1_lines, swept.shared_points)
        for column, expected, in_sevens in zip(columns, whole, sevens, strict=True):
            assert column.dtype == expected.dtype
            assert np.array_equal(column, expected) and np.array_equal(in_sevens, expected)
    assert np.array_equal(in_blocks_of_7.detzero_counts, sweep.detzero_counts)
    if sweep.raw_counts is None:
        assert in_blocks_of_7.raw_counts is None
    else:
        assert np.array_equal(in_blocks_of_7.raw_counts, sweep.raw_counts)


@pytest.mark.parametrize("p", [2, 7])
def test_sweep_keeps_narrow_columns(p):
    # 26 bytes a kept plane: index, basis, kind, rank1_lines, shared point
    sweep = sweep_locus(p)
    columns = (sweep.plane_index, sweep.bases, sweep.kinds, sweep.rank1_lines,
               sweep.shared_points)
    assert [column.dtype for column in columns] == [np.int32, np.int16, np.int8, np.int8,
                                                    np.int16]
    assert sum(column[0].nbytes for column in columns) == 26


def test_sweep_full_oracle_p2():
    sweep = sweep_locus(2, full_oracle=True)
    assert sweep.plane_index.tolist() == list(range(grass_count(2)))
    assert len(sweep.raw_counts) == grass_count(2)
    assert sweep.raw_ok.dtype == bool and sweep.raw_ok.all()
    assert not sweep.failures


def test_sweep_full_oracle_p3_covers_each_type(sweep3):
    sweep = sweep_locus(3, full_oracle=True)
    assert sweep.plane_index.tolist() == list(range(grass_count(3)))
    assert len(sweep.raw_counts) == grass_count(3)
    assert {KINDS[kind] for kind in sweep.kinds.tolist()} == {GENERIC, SHARED_RIGHT, SHARED_LEFT}
    assert sweep.raw_ok.dtype == bool and sweep.raw_ok.all()
    assert not sweep.failures
    assert sweep.x_count == sweep3.x_count


def test_worker_failure_carries_partial_results(monkeypatch):
    # at p = 3 with the raw oracle the join counts blocks of 89 planes; it
    # raises on the second, so the sweep holds the first block, in every column
    calls = []
    real_join = locus_module._join_counts

    def flaky(*args):
        calls.append(None)
        if len(calls) > 1:
            raise RuntimeError("injected failure")
        return real_join(*args)

    monkeypatch.setattr(locus_module, "_join_counts", flaky)
    partial = sweep_locus(3, full_oracle=True)
    assert partial.worker_failure == "worker failed on plane 89: injected failure"
    assert partial.failures == [partial.worker_failure]
    assert partial.plane_index.tolist() == list(range(89))
    assert len(partial.detzero_counts) == len(partial.raw_counts) == 89


def test_fiber_report_json(sweep2):
    plane = plane_of(2, (1, 0, 0, 0), (0, 0, 1, 0))
    (row,) = [row for row in range(len(sweep2.plane_index))
              if plane_of(2, *sweep2.bases[row].tolist()) == plane]
    data = fibers_of(sweep2)[row]
    assert data["ok"] is True
    assert data["detzero_count"] == data["expected"] == 1
    assert "raw_count" not in data
    assert data["plane"] == {"p": 2, "basis": [[1, 0, 0, 0], [0, 0, 1, 0]]}
    assert data["plane_type"] == {"kind": SHARED_RIGHT, "shared_point": [1, 0]}


def test_verification_error_on_forced_mismatch(monkeypatch):
    real_join = locus_module._join_counts

    def wrong(*args):
        return real_join(*args) + 1

    monkeypatch.setattr(locus_module, "_join_counts", wrong)
    sweep = sweep_locus(2)
    assert sweep.failures
    assert any("det-zero count" in f for f in sweep.failures)

    with pytest.raises(VerificationError):
        moduli_point_count(2)


def test_unclassifiable_plane_is_recorded_not_raised(monkeypatch, capsys):
    import quadric_moduli.cli as cli

    real = locus_module.classify_planes

    # no rank-one plane shares neither factor, so mark every one as such
    def unclassifiable(p, bases):
        kinds, rank1_lines, shared_points = real(p, bases)
        rank_one = kinds != KINDS.index(GENERIC)
        return np.where(rank_one, -1, kinds), rank1_lines, shared_points * ~rank_one[:, None]

    monkeypatch.setattr(locus_module, "classify_planes", unclassifiable)
    sweep = sweep_locus(2)
    assert sweep.failures
    assert any("shares neither factor" in f for f in sweep.failures)
    assert ("plane 0: rank-one plane with basis rows [[1, 0, 0, 0], [0, 1, 0, 0]] "
            "shares neither factor") in sweep.failures
    assert sum(sweep.tallies.values()) == len(sweep.plane_index) < grass_count(2)
    assert cli.main(["verify-locus", "--prime", "5", "--workers", "1"]) == 1
    assert "shares neither factor" in capsys.readouterr().out
