"""The exact joins against the brute-force counts they replaced: the fiber
join against enumerating every point of the projective fiber, and the raw
oracle's join against comparing all p^6 x p^6 products pairwise.  The
array-wide complement choice is checked against echelon pivoting plane by
plane, and the block-wise key build against the join on a stack of one."""

import itertools
import json
import random

import numpy as np
import pytest

import quadric_moduli.cli as cli
import quadric_moduli.locus as locus_module
from quadric_moduli import linalg
from quadric_moduli.biform import BiForm
from quadric_moduli.betti import projective_count
from quadric_moduli.locus import (
    GENERIC, KEY_BLOCK, KINDS, SHARED_LEFT, SHARED_RIGHT, _affine_vectors, _coinciding_pairs,
    _image_keys, _k_pivots, _k_rows, action_matrices, classify_planes, count_planes,
    det_action_matrix, plane_bases, raw_oracle_counts, sweep_locus,
)
from form_reference import GF
from plane_reference import (
    Plane, detzero_count_for_basis, enumerate_planes, fiber_detzero_count, raw_oracle_count,
)


def canonical_vectors(p: int, dim: int) -> np.ndarray:
    """All vectors of F_p^dim whose first nonzero coordinate is 1: one
    representative per projective point, (p^dim - 1)/(p - 1) rows."""
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
    assert len(table) == projective_count(p, dim - 1)
    return table


def enumerated_fiber_count(plane) -> int:
    """Det-zero points among all (p^10 - 1)/(p - 1) points of the fiber."""
    p = plane.p
    f1, f2 = plane.basis()
    pivots = linalg.rref(GF(p), _k_rows(f1, f2))[1]
    action = det_action_matrix(f1, f2)[:, [c for c in range(12) if c not in pivots]]
    values = canonical_vectors(p, 10).astype(np.int64) @ action.T % p
    return int((values == 0).all(axis=1).sum())


def paired_raw_count(plane) -> int:
    """Raw det-zero pairs by comparing every phi11*f2 with every phi21*f1."""
    p = plane.p
    field = GF(p)
    f1, f2 = plane.basis()
    vectors = list(itertools.product(range(p), repeat=6))
    against_f2 = [(BiForm(field, 1, 2, v) * f2).coeffs for v in vectors]
    against_f1 = [(BiForm(field, 1, 2, v) * f1).coeffs for v in vectors]
    return sum(1 for a in against_f2 for b in against_f1 if a == b)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_coinciding_pairs_counts_repeated_rows(p):
    rng = np.random.default_rng(p)
    left = rng.integers(0, p, size=(60, 3))
    right = rng.integers(0, p, size=(50, 3))
    expected = sum(1 for a in left.tolist() for b in right.tolist() if a == b)
    weights = p ** np.arange(3)
    assert _coinciding_pairs(left @ weights, right @ weights) == expected
    identity = np.eye(3, dtype=np.int64)
    assert _coinciding_pairs(_image_keys(p, left, identity),
                             _image_keys(p, right, identity)) == expected


def test_image_keys_do_not_wrap_past_int16():
    # at p = 3 the keys of 12-vectors reach 3**12 - 1; two that differ by
    # 2**16 would coincide if the keys were formed in int16
    p = 3
    left = np.array([[key // p**w % p for w in range(12)] for key in (7, 7 + 2**16)])
    identity = np.eye(12, dtype=np.int64)
    keys = _image_keys(p, left, identity)
    assert keys.tolist() == [7, 7 + 2**16]
    assert _coinciding_pairs(keys, keys[1:]) == 1


@pytest.mark.parametrize("p,width,dtype", [
    (2, 30, np.int32), (2, 31, np.int64), (3, 19, np.int32), (3, 20, np.int64),
    (5, 12, np.int32), (7, 11, np.int32), (7, 12, np.int64), (37, 12, np.int64)])
def test_image_keys_are_int32_exactly_below_2_to_the_31(p, width, dtype):
    # the largest key, p**width - 1, of every width-vector
    top = p**width - 1
    vectors = np.array([[top // p**w % p for w in range(width)], [0] * width])
    keys = _image_keys(p, vectors, np.eye(width, dtype=np.int16))
    assert keys.dtype == dtype and keys.tolist() == [top, 0]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_full_oracle_sweep_keys_are_int32_horner_sums(monkeypatch, p):
    # up to p = 5 every key of the join, and of the raw oracle, is int32 and
    # equals the int64 sum of its image coordinates times powers of p
    real, planes = locus_module._image_keys, []

    def checked(p, vectors, maps):
        keys = real(p, vectors, maps)
        images = np.einsum("vd,...wd->...wv", vectors.astype(np.int64), maps.astype(np.int64)) % p
        expected = np.einsum("w,...wv->...v", p ** np.arange(12, dtype=np.int64), images)
        assert keys.dtype == np.int32 and np.array_equal(keys, expected)
        planes.append(len(maps))
        return keys

    monkeypatch.setattr(locus_module, "_image_keys", checked)
    sweep = sweep_locus(p, full_oracle=True)
    assert not sweep.failures and sweep.method == "enumerate"
    raw_planes = 0 if sweep.raw_counts is None else len(sweep.raw_counts)
    assert sum(planes) == len(plane_bases(p)) + raw_planes


@pytest.mark.parametrize("reverse", [False, True])
def test_complement_columns_equal_echelon_pivots(reverse):
    # the join's complement columns are all but the pivots of _k_pivots;
    # with the 12 coordinates reversed, they are sought from the other end
    p = 3
    k_bases = action_matrices(p, plane_bases(p))[1]
    if reverse:
        k_bases = k_bases[..., ::-1]
    dims, pivots = _k_pivots(p, k_bases)
    assert pivots.tolist() == [linalg.rref(GF(p), rows)[1] for rows in k_bases.tolist()]
    assert dims.tolist() == [2] * len(k_bases)
    degenerate = [[k_bases[0, 0], 2 * k_bases[0, 0]], 0 * k_bases[0]]
    assert _k_pivots(p, degenerate)[0].tolist() == [1, 0]


def test_join_counts_over_a_partial_last_block(monkeypatch):
    # the join takes blocks of KEY_BLOCK // p**5 = 20 planes at p = 5, so the
    # sweep's 806 planes under --full-oracle end in a partial block of 6;
    # 45 planes likewise run as blocks of 20, 20 and 5
    p = 5
    bases = plane_bases(p)
    kinds = classify_planes(p, bases)[0]
    rows = np.sort(np.concatenate([np.flatnonzero(kinds != 0), np.flatnonzero(kinds == 0)[:33]]))
    assert len(rows) == 45 and len(rows) % (KEY_BLOCK // p**5) == 5
    real, blocks = locus_module._join_counts, []

    def counting(p, matrices, pivots):
        blocks.append(len(matrices))
        return real(p, matrices, pivots)

    monkeypatch.setattr(locus_module, "_join_counts", counting)
    counted, counts, failures, _ = count_planes(p, bases[rows], kinds[rows], ("enumerate",))
    assert blocks == [20, 20, 5]
    assert counted.tolist() == list(range(45)) and failures == []
    planes = [Plane(p, bases[row].tolist()) for row in rows]
    assert counts["enumerate"].tolist() == [detzero_count_for_basis(*plane.basis())
                                            for plane in planes]
    assert sorted(set(counts["enumerate"].tolist())) == [0, 1, 6]


def test_canonical_vector_tables():
    for p in (2, 3):
        table = canonical_vectors(p, 10)
        assert len(table) == projective_count(p, 9) == (p**10 - 1) // (p - 1)


@pytest.mark.parametrize("p,dim", [(2, 0), (3, 0), (2, 3), (5, 2)])
def test_affine_vectors_lists_every_vector_once(p, dim):
    expected = [list(v) for v in itertools.product(range(p), repeat=dim)]
    assert _affine_vectors(p, dim).tolist() == expected


@pytest.mark.parametrize("p", [2, 3])
def test_fiber_join_equals_enumeration(p):
    for plane in enumerate_planes(p):
        assert fiber_detzero_count(plane) == enumerated_fiber_count(plane)


@pytest.mark.parametrize("p,sample", [(5, None), (7, 60)])
def test_fiber_join_equals_kernel_route(p, sample):
    planes = list(enumerate_planes(p))
    if sample is not None:
        planes = random.Random(p).sample(planes, sample)
    bases = np.array([plane.rows for plane in planes], dtype=np.int16)
    rows, counts, failures, _ = count_planes(p, bases, classify_planes(p, bases)[0], ("kernel",))
    assert rows.tolist() == list(range(len(planes))) and failures == []
    assert [fiber_detzero_count(plane) for plane in planes] == counts["kernel"].tolist()


def test_raw_join_equals_pairwise_comparison():
    planes = list(enumerate_planes(2))
    first_of_kind = {}
    planes3 = list(enumerate_planes(3))
    kinds, _, _ = classify_planes(3, [plane.rows for plane in planes3])
    for plane, kind in zip(planes3, kinds.tolist()):
        first_of_kind.setdefault(KINDS[kind], plane)
    assert set(first_of_kind) == {GENERIC, SHARED_RIGHT, SHARED_LEFT}
    for p, targets in ((2, planes), (3, list(first_of_kind.values()))):
        paired = [paired_raw_count(plane) for plane in targets]
        assert raw_oracle_counts(p, [plane.rows for plane in targets]) == paired
        assert [raw_oracle_count(plane) for plane in targets] == paired


def test_full_oracle_p5_enumerates_every_fiber(sweep5, capsys):
    code = cli.main(["verify-locus", "--prime", "5", "--full-oracle", "--workers", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["method"] == "enumerate"
    assert doc["summary"]["X_count"] == 42
    assert [f["detzero_count"] for f in doc["fibers"]] == sweep5.detzero_counts.tolist()
