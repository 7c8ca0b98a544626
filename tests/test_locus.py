import json
import random

import numpy as np
import pytest

import quadric_moduli.locus as locus_module
from quadric_moduli.betti import (
    eval_at, grass_count, grass_poincare, poincare_moduli, projective_count,
    stratified_moduli_count,
)
from quadric_moduli.biform import BiForm, rank1_test
from quadric_moduli.field import GF, QQ
from quadric_moduli.locus import (
    GENERIC, KINDS, SHARED_LEFT, SHARED_RIGHT, action_matrices, classify_planes,
    expected_detzero, expected_x_count, generic_orbit_sizes, plane_bases, raw_oracle_counts,
    raw_oracle_maps, sweep_locus,
)
from quadric_moduli.locus import (
    _factoring_ok, _join_counts, _k_pivots, _k_rows, _kernel_counts, det_action_matrix,
)
from quadric_moduli.report import load_golden, locus_document_chunks, locus_summary
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
    assert len(planes) == eval_at(grass_poincare(2, 4), p)
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
    plane = plane_from_forms(2 * xz + xw, xz + xw)
    assert plane == plane_of(3, (1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError):
        plane_from_forms(xz, 2 * xz)


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
        element = s * b1 + t * b2
        if element.is_zero:
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
        xv = BiForm.from_terms(field, 1, 1, {(0, 0): v[0], (0, 1): v[1]})
        yv = BiForm.from_terms(field, 1, 1, {(1, 0): v[0], (1, 1): v[1]})
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
    matrices, k_bases = action_matrices(p, plane_bases(p))
    assert _factoring_ok(p, matrices, k_bases).all()
    kernel_counts = _kernel_counts(p, matrices).tolist()
    for plane, kernel_count in zip(enumerate_planes(p), kernel_counts, strict=True):
        assert fiber_detzero_count(plane) == kernel_count


def test_detzero_count_guards():
    field = GF(2)
    xz = BiForm.monomial(field, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        detzero_count_for_basis(xz, xz)  # dependent basis
    from quadric_moduli.field import QQ
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
            assert next(_join_counts(p, matrix, reversed_pivots)) == reference
            while True:
                a, b, c, d = (field.random(rng) for _ in range(4))
                if field.sub(field.mul(a, d), field.mul(b, c)) != field.zero:
                    break
            assert detzero_count_for_basis(a * f1 + b * f2, c * f1 + d * f2) == reference


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


@pytest.mark.parametrize("p,targets", [(2, 35), (3, 3)])
def test_raw_oracle_batch_equals_batches_of_one(p, targets):
    sweep = sweep_locus(p, full_oracle=True)
    rows = sorted(sweep.raw_counts)
    assert len(rows) == targets
    batch = raw_oracle_counts(p, sweep.bases[rows])
    assert batch == [raw_oracle_count(plane_of(p, *sweep.bases[row].tolist())) for row in rows]
    assert batch == [sweep.raw_counts[row] for row in rows]
    assert batch == [p * p + int(sweep.detzero_counts[row]) * (p - 1) * p * p for row in rows]
    assert raw_oracle_counts(p, []) == []


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
    # the sweep runs the raw oracle at RAW_SWEEP_PRIMES only; the oracle takes any prime
    sweep = sweep_locus(p)
    rows = sorted(np.unique(sweep.kinds, return_index=True)[1].tolist())
    raw = raw_oracle_counts(p, sweep.bases[rows])
    assert [KINDS[kind] for kind in sweep.kinds[rows]] == [SHARED_LEFT, GENERIC, SHARED_RIGHT]
    assert raw == [p**4, p**2, p**3]
    assert raw == [p * p + int(sweep.detzero_counts[row]) * (p - 1) * p * p for row in rows]
    assert raw == [raw_oracle_count(plane_of(p, *sweep.bases[row].tolist())) for row in rows]


# -- totals and the stratified count ---------------------------------------------

def test_total_x_counts(sweep2, sweep3):
    assert sweep2.ok and sweep3.ok
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
        poincare = eval_at(poincare_moduli(), p)
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


def test_sweep_method_gating():
    from quadric_moduli.locus import sweep_method
    assert sweep_method(2, False) == "enumerate"
    assert sweep_method(3, False) == "enumerate"
    assert sweep_method(5, False) == "kernel"
    assert sweep_method(5, True) == "enumerate"  # the gated full sweep
    assert sweep_method(7, True) == "kernel"     # never enumerable at p = 7


def test_total_x_count_p5_kernel_route(sweep5):
    assert sweep5.method == "kernel"
    assert sweep5.ok
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
    assert count == eval_at(poincare_moduli(), 2)


def test_moduli_point_count_p3(sweep3):
    count = stratified_moduli_count(3, sweep3.x_count)
    assert count == 5520988
    assert count == eval_at(poincare_moduli(), 3)


def test_moduli_point_count_p5(sweep5):
    count = stratified_moduli_count(5, sweep5.x_count)
    assert count == eval_at(poincare_moduli(), 5)


def test_moduli_point_count_p7_kernel_route():
    assert moduli_point_count(7) == eval_at(poincare_moduli(), 7)


# -- sweep orchestration -------------------------------------------------------------

COLUMNS = ("plane_index", "bases", "kinds", "rank1_lines", "shared_points", "detzero_counts")


def test_sweep_is_deterministic(sweep2):
    # `workers` selects nothing; the keyword stays accepted
    again = sweep_locus(2, workers=2)
    for column in COLUMNS:
        assert np.array_equal(getattr(again, column), getattr(sweep2, column)), column
    assert (again.failures, again.raw_counts) == (sweep2.failures, sweep2.raw_counts) == ([], {})
    assert fibers_of(again) == fibers_of(sweep2)
    assert len(fibers_of(sweep2)) == grass_count(2)


@pytest.mark.parametrize("p,full_oracle,targets", [
    (7, False, 0), (5, False, 0), (5, True, 0), (2, False, 0), (2, True, 35), (3, True, 3),
])
def test_sweep_builds_planes_only_for_raw_targets(monkeypatch, p, full_oracle, targets):
    # the sweep stays in columns: it builds the raw oracle's maps once, for
    # its targets' basis rows alone, and only in a full-oracle sweep at 2, 3
    real = locus_module.raw_oracle_maps
    calls = []

    def counting(p, bases):
        calls.append(np.asarray(bases).tolist())
        return real(p, bases)

    monkeypatch.setattr(locus_module, "raw_oracle_maps", counting)
    sweep = sweep_locus(p, full_oracle=full_oracle)
    assert sweep.ok
    assert len(sweep.raw_counts) == targets
    assert calls == ([sweep.bases[sorted(sweep.raw_counts)].tolist()] if targets else [])


@pytest.mark.parametrize("p", [2, 3])
def test_full_oracle_sweep_multiplies_forms_only_on_unit_forms(monkeypatch, p):
    # past the cached action tensors, a full-oracle sweep multiplies forms
    # only in the 24 unit products of the raw table, all over QQ
    sweep_locus(p, full_oracle=True)
    real, fields = BiForm.__mul__, []

    def counting(self, other):
        fields.append(self.field)
        return real(self, other)

    monkeypatch.setattr(BiForm, "__mul__", counting)
    assert sweep_locus(p, full_oracle=True).ok
    assert fields == [QQ] * 24


@pytest.mark.parametrize("p,full_oracle", [(2, False), (3, False), (5, True)])
def test_sweep_finds_k_pivots_once(monkeypatch, p, full_oracle):
    # one _k_pivots pass gives both the mask's dimensions and the join's pivots
    real = locus_module._k_pivots
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(locus_module, "_k_pivots", counting)
    sweep = sweep_locus(p, full_oracle=full_oracle)
    assert sweep.method == "enumerate" and sweep.ok
    assert calls == [grass_count(p)]


def test_sweep_full_oracle_p2():
    sweep = sweep_locus(2, full_oracle=True)
    assert sorted(sweep.raw_counts) == list(range(grass_count(2)))
    assert all(sweep.raw_ok().values())
    assert sweep.ok


def test_sweep_full_oracle_p3_covers_each_type(sweep3):
    sweep = sweep_locus(3, full_oracle=True)
    checked = sorted(sweep.raw_counts)
    assert {KINDS[sweep.kinds[row]] for row in checked} == {GENERIC, SHARED_RIGHT, SHARED_LEFT}
    assert all(sweep.raw_ok().values())
    assert sweep.x_count == sweep3.x_count


def test_worker_failure_carries_partial_results(monkeypatch):
    calls = {"n": 0}
    real_join = locus_module._join_count

    def flaky(*args):
        calls["n"] += 1
        if calls["n"] > 10:
            raise RuntimeError("injected failure")
        return real_join(*args)

    monkeypatch.setattr(locus_module, "_join_count", flaky)
    partial = sweep_locus(2)
    assert partial is not None
    assert partial.worker_failure == "worker failed on plane 10: injected failure"
    assert partial.failures[-1] == partial.worker_failure
    assert len(partial.plane_index) == 10
    assert not partial.ok


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
    real_join = locus_module._join_count

    def wrong(*args):
        return real_join(*args) + 1

    monkeypatch.setattr(locus_module, "_join_count", wrong)
    sweep = sweep_locus(2)
    assert not sweep.ok
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
    assert not sweep.ok
    assert any("shares neither factor" in f for f in sweep.failures)
    assert ("plane 0: rank-one plane with basis rows [[1, 0, 0, 0], [0, 1, 0, 0]] "
            "shares neither factor") in sweep.failures
    assert sum(sweep.tallies.values()) == len(sweep.plane_index) < grass_count(2)
    assert cli.main(["verify-locus", "--prime", "5", "--workers", "1"]) == 1
    assert "shares neither factor" in capsys.readouterr().out
