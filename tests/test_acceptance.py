"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every tolerance is exact equality; the stated wall-clock bounds are asserted
with perf_counter (minimum over repeats for the sub-millisecond ones).
"""

import itertools
import random
import time
from contextlib import contextmanager

from quadric_moduli.betti import eval_at, grass_poincare, poincare_moduli
from quadric_moduli.biform import (
    BiForm, PhiMatrix, det2, factorization_test, linearly_independent, mul_right_linear,
    rank1_test,
)
from quadric_moduli.field import GF, QQ
from quadric_moduli.hilbert import (
    BiPoly, ResolutionSpec, euler_char, genus, hilb_combination, hilb_line, hilb_resolution,
)
from quadric_moduli.locus import (
    GENERIC, KINDS, SHARED_LEFT, SHARED_RIGHT, classify_planes, enumerate_planes,
    fiber_detzero_count, moduli_point_count, raw_oracle_count, sweep_locus,
)
from quadric_moduli.locus import _canonical_vectors

F2 = GF(2)
F3 = GF(3)

MODULI_COEFFS_DESC = [1, 3, 8, 10, 11, 11, 11, 11, 11, 11, 10, 8, 3, 1]


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL - {title}")
        raise
    print(f"CRITERION {number}: PASS - {title}")


def best_time(fn, repeats: int = 5) -> float:
    fn()  # warm up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def test_criterion_1_poincare_polynomial():
    with criterion(1, "Poincare polynomial [1,3,8,10,11x6,10,8,3,1], Euler 110, < 1 ms"):
        P = poincare_moduli()
        assert P.degree == 13
        assert [P.coeff(k) for k in range(13, -1, -1)] == MODULI_COEFFS_DESC
        assert eval_at(P, 1) == 110
        assert best_time(poincare_moduli) < 1e-3


def hilbert_battery():
    open_stratum = hilb_resolution(ResolutionSpec((((0, 0), (0, 0)), ((-1, -2), (-1, -1)))))
    extension = hilb_resolution(ResolutionSpec((((-1, -1), (0, 1)), ((-2, -1), (-1, -2)))))
    sections = [hilb_resolution(ResolutionSpec((((0, 0),), ((-1, -r),))))
                for r in range(5)]
    combination = hilb_combination([3, -2], [(-1, -1), (0, 0)], open_stratum)
    curve = hilb_resolution(ResolutionSpec((((0, 0),), ((-2, -3),))))
    return open_stratum, extension, sections, combination, curve


def test_criterion_2_hilbert_checks():
    with criterion(2, "Hilbert checks: 3m+2n+2 twice, rm+n+1 family, mn+m, genus-2 curve, < 1 ms"):
        open_stratum, extension, sections, combination, curve = hilbert_battery()
        # expected polynomials built independently from the m/n generators
        M, N = BiPoly.m(), BiPoly.n()
        assert open_stratum == 3 * M + 2 * N + 2
        assert extension == 3 * M + 2 * N + 2
        for r, poly in enumerate(sections):
            assert poly == r * M + N + 1
        assert combination == M * N + M
        assert combination == hilb_line(-1, 0)
        assert curve == 3 * M + 2 * N - 1
        assert euler_char(curve) == -1
        assert genus(curve) == 2
        assert best_time(hilbert_battery) < 1e-3


def test_criterion_3_detlocus_sweep_p2():
    with criterion(3, "p=2 sweep: 35 planes, fibers 0/1/3 by type, |X| = 12, 3+3 shared planes, < 1 s"):
        start = time.perf_counter()
        sweep = sweep_locus(2, workers=1)
        elapsed = time.perf_counter() - start
        assert len(sweep.plane_index) == 35
        counts = {GENERIC: set(), SHARED_RIGHT: set(), SHARED_LEFT: set()}
        kinds = [KINDS[kind] for kind in sweep.kinds.tolist()]
        for kind, count in zip(kinds, sweep.detzero_counts.tolist()):
            counts[kind].add(count)
        assert counts[GENERIC] == {0}
        assert counts[SHARED_RIGHT] == {1}
        assert counts[SHARED_LEFT] == {3}
        assert sweep.x_count == 12 == (2 + 1) + (2 + 1) ** 2
        detzero_planes = [kind for kind, count in zip(kinds, sweep.detzero_counts) if count > 0]
        assert detzero_planes.count(SHARED_RIGHT) == 3
        assert detzero_planes.count(SHARED_LEFT) == 3
        assert len(detzero_planes) == 6
        assert sweep.ok
        assert elapsed < 1.0


def test_criterion_4_detlocus_sweep_p3():
    with criterion(4, "p=3 sweep: 130 planes x 29524 fiber points, |X| = 20, < 30 s single-threaded"):
        start = time.perf_counter()
        sweep = sweep_locus(3, workers=1)
        elapsed = time.perf_counter() - start
        assert len(sweep.plane_index) == 130
        assert sweep.method == "enumerate"
        assert len(_canonical_vectors(3, 10)) == 29524
        assert sweep.x_count == 20 == (3 + 1) + (3 + 1) ** 2
        assert sweep.ok
        assert elapsed < 30.0


def test_criterion_5_cross_route_point_counts():
    with criterion(5, "moduli_point_count(p) equals the polynomial value for p in {2, 3, 5}"):
        polynomial = poincare_moduli()
        counts = {p: moduli_point_count(p) for p in (2, 3, 5)}
        assert counts[2] == 58311
        assert counts[3] == 5520988
        for p, stratified in counts.items():
            assert stratified == eval_at(polynomial, p)


def test_criterion_6_raw_oracle_identity():
    with criterion(6, "raw sweep identity: 4 + 4N on all 35 planes (p=2), 9 + 18N per type (p=3)"):
        for plane in enumerate_planes(2):
            fiber = fiber_detzero_count(plane)
            assert raw_oracle_count(plane) == 4 + 4 * fiber
        seen = {}
        planes3 = list(enumerate_planes(3))
        kinds, _, _ = classify_planes(3, [plane.rows for plane in planes3])
        for plane, code in zip(planes3, kinds.tolist()):
            kind = KINDS[code]
            if kind not in seen:
                seen[kind] = plane
            if len(seen) == 3:
                break
        assert set(seen) == {GENERIC, SHARED_RIGHT, SHARED_LEFT}
        for plane in seen.values():
            fiber = fiber_detzero_count(plane)
            assert raw_oracle_count(plane) == 9 + 18 * fiber


CANONICAL_SECOND_COLUMNS_F2 = [
    ((1, 0, 0, 1), (0, 1, 0, 0)),  # generic span
    ((1, 0, 0, 0), (0, 0, 1, 0)),  # shared right factor
    ((1, 0, 0, 0), (0, 1, 0, 0)),  # shared left factor
]


def _random_phi(field, rng):
    return PhiMatrix(BiForm(field, 1, 2, [field.random(rng) for _ in range(6)]),
                     BiForm(field, 1, 1, [field.random(rng) for _ in range(4)]),
                     BiForm(field, 1, 2, [field.random(rng) for _ in range(6)]),
                     BiForm(field, 1, 1, [field.random(rng) for _ in range(4)]))


def _column_op(phi, u):
    return PhiMatrix(phi.phi11 + mul_right_linear(phi.phi12, u), phi.phi12,
                     phi.phi21 + mul_right_linear(phi.phi22, u), phi.phi22)


def _randomized_property_cases(field, cases: int, seed: int):
    rng = random.Random(seed)
    for _ in range(cases):
        phi = _random_phi(field, rng)
        base = det2(phi)
        # column operations leave the determinant unchanged
        u = BiForm.linear_zw(field, field.random(rng), field.random(rng))
        assert det2(_column_op(phi, u)) == base
        # scaling the first column scales the determinant
        c = field.random(rng)
        scaled = PhiMatrix(c * phi.phi11, phi.phi12, c * phi.phi21, phi.phi22)
        assert det2(scaled) == c * base
        # a factoring first column has zero determinant and is recovered
        f12 = BiForm(field, 1, 1, [field.random(rng) for _ in range(4)])
        f22 = BiForm(field, 1, 1, [field.random(rng) for _ in range(4)])
        factoring = PhiMatrix(mul_right_linear(f12, u), f12,
                              mul_right_linear(f22, u), f22)
        assert det2(factoring).is_zero
        if linearly_independent(f12, f22):
            assert factorization_test(factoring) == u
        # rank-1 iff the 2x2 coefficient determinant vanishes
        f = BiForm(field, 1, 1, [field.random(rng) for _ in range(4)])
        if not f.is_zero:
            c0, c1, c2, c3 = f.coeffs
            det = field.sub(field.mul(c0, c3), field.mul(c1, c2))
            split = rank1_test(f)
            assert (split is not None) == (det == field.zero)
            if split is not None:
                assert split[0] * split[1] == f


def test_criterion_7_property_suites():
    with criterion(7, "property suites: exhaustive over F2, 1000 randomized cases over F3 and QQ"):
        # rank-1 iff coefficient determinant, all 16 forms over F2
        for coeffs in itertools.product(range(2), repeat=4):
            f = BiForm(F2, 1, 1, coeffs)
            if f.is_zero:
                continue
            det = (coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2]) % 2
            assert (rank1_test(f) is not None) == (det == 0)
        # column operations, scaling, and factorization => det-zero,
        # exhaustively over F2 for the canonical second columns
        for c12, c22 in CANONICAL_SECOND_COLUMNS_F2:
            f12 = BiForm(F2, 1, 1, c12)
            f22 = BiForm(F2, 1, 1, c22)
            for bits in itertools.product(range(2), repeat=12):
                phi = PhiMatrix(BiForm(F2, 1, 2, bits[:6]), f12,
                                BiForm(F2, 1, 2, bits[6:]), f22)
                base = det2(phi)
                for uz, uw in itertools.product(range(2), repeat=2):
                    u = BiForm.linear_zw(F2, uz, uw)
                    assert det2(_column_op(phi, u)) == base
                for c in range(2):
                    scaled = PhiMatrix(c * phi.phi11, phi.phi12, c * phi.phi21, phi.phi22)
                    assert det2(scaled) == c * base
                if factorization_test(phi) is not None:
                    assert base.is_zero
        # Gaussian binomial duality and point counts
        for n in range(7):
            for k in range(n + 1):
                assert grass_poincare(k, n) == grass_poincare(n - k, n)
        for q in (2, 3, 4, 5, 7):
            assert eval_at(grass_poincare(2, 4), q) == (q * q + 1) * (q * q + q + 1)
        # 1000 randomized cases per field
        _randomized_property_cases(F3, 1000, seed=331)
        _randomized_property_cases(QQ, 1000, seed=577)
