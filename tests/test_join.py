"""The exact joins against the brute-force counts they replaced: the fiber
join against enumerating every point of the projective fiber, and the raw
oracle's join against comparing all p^6 x p^6 products pairwise."""

import itertools
import json
import random

import numpy as np
import pytest

import quadric_moduli.cli as cli
from quadric_moduli.biform import BiForm
from quadric_moduli.field import GF
from quadric_moduli.locus import (
    GENERIC, SHARED_LEFT, SHARED_RIGHT, _affine_vectors, _canonical_vectors,
    _coinciding_pairs, _complement_columns, _k_rows, classify_plane, det_action_matrix,
    enumerate_planes, fiber_detzero_count, kernel_detzero_counts, raw_oracle_count,
)


def enumerated_fiber_count(plane) -> int:
    """Det-zero points among all (p^10 - 1)/(p - 1) points of the fiber."""
    p = plane.p
    f1, f2 = plane.basis()
    cols = _complement_columns(GF(p), _k_rows(f1, f2))
    action = det_action_matrix(f1, f2)[:, cols]
    values = _canonical_vectors(p, 10).astype(np.int64) @ action.T % p
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
    assert _coinciding_pairs(p, left, right) == expected


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
    counts, factoring_ok = kernel_detzero_counts(p, [plane.rows for plane in planes])
    assert factoring_ok.all()
    assert [fiber_detzero_count(plane) for plane in planes] == counts.tolist()


def test_raw_join_equals_pairwise_comparison():
    planes = list(enumerate_planes(2))
    first_of_kind = {}
    for plane in enumerate_planes(3):
        first_of_kind.setdefault(classify_plane(plane).kind, plane)
    assert set(first_of_kind) == {GENERIC, SHARED_RIGHT, SHARED_LEFT}
    for plane in planes + list(first_of_kind.values()):
        assert raw_oracle_count(plane) == paired_raw_count(plane)


def test_full_oracle_p5_enumerates_every_fiber(sweep5, capsys):
    code = cli.main(["verify-locus", "--prime", "5", "--full-oracle", "--workers", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["method"] == "enumerate"
    assert doc["summary"]["X_count"] == 42
    assert [f["detzero_count"] for f in doc["fibers"]] == sweep5.detzero_counts.tolist()
