"""The batched kernel route against the per-plane reference it replaced:
det_action_matrix and _k_rows built from BiForm products for each plane,
and linalg.rank of the action matrix."""

import random

import numpy as np
import pytest

import quadric_moduli.cli as cli
import quadric_moduli.locus as locus_module
from quadric_moduli import linalg
from quadric_moduli.field import GF
from quadric_moduli.locus import (
    _factoring_ok, _k_rows, _kernel_counts, action_matrices, det_action_matrix, enumerate_planes,
)


def reference_count(plane) -> int:
    field = GF(plane.p)
    matrix = det_action_matrix(*plane.basis())
    rank = linalg.rank(field, [[int(c) for c in row] for row in matrix])
    return (plane.p ** (12 - rank - 2) - 1) // (plane.p - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_batched_counts_equal_per_plane_rank(p):
    planes = list(enumerate_planes(p))
    matrices, k_bases = action_matrices(p, [plane.rows for plane in planes])
    assert _factoring_ok(p, matrices, k_bases).all()
    counts = _kernel_counts(p, matrices)
    assert counts.tolist() == [reference_count(plane) for plane in planes]


@pytest.mark.parametrize("p,sample", [(2, None), (3, None), (5, 60), (7, 60)])
def test_contracted_matrices_equal_det_action_matrix(p, sample):
    planes = list(enumerate_planes(p))
    if sample is not None:
        planes = random.Random(p).sample(planes, sample)
    matrices, k_bases = action_matrices(p, [plane.rows for plane in planes])
    for plane, matrix, k_basis in zip(planes, matrices, k_bases):
        f1, f2 = plane.basis()
        assert np.array_equal(matrix, det_action_matrix(f1, f2))
        assert k_basis.tolist() == [list(row) for row in _k_rows(f1, f2)]


@pytest.mark.parametrize("primes", ["2", "5"])
def test_perturbed_action_tensor_flips_verdict(monkeypatch, capsys, primes):
    real = locus_module.action_tensors

    def perturbed(p):
        det, k = real(p)
        det = det.copy()
        det[0, 0, 0] = (det[0, 0, 0] + 1) % p
        return det, k

    monkeypatch.setattr(locus_module, "action_tensors", perturbed)
    code = cli.main(["verify", "--primes", primes, "--workers", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "factoring first-columns must have zero determinant" in out
    assert "verdict: FAIL" in out
