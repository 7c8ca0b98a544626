"""The batched kernel route against the per-plane reference it replaced:
det_action_matrix and _k_rows built from BiForm products for each plane,
and linalg.rank of the action matrix."""

import json
import random
import tracemalloc

import numpy as np
import pytest

import quadric_moduli.cli as cli
import quadric_moduli.locus as locus_module
from quadric_moduli import linalg
from quadric_moduli.betti import SUPPORTED_PRIMES
from quadric_moduli.biform import BiForm
from quadric_moduli.locus import (
    KEY_BLOCK, _contract, _factoring_ok, _k_pivots, _k_rows, _kernel_counts, _plane_table,
    _ranks_mod_p, _raw_maps, _reduce, action_matrices, classify_planes, det_action_matrix,
    sweep_locus,
)
from form_reference import GF, QQ
from plane_reference import enumerate_planes


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


#: The builds of every plane table: the det action, K's basis and the raw maps.
BUILDS = (det_action_matrix, _k_rows, _raw_maps)


def unit_basis_products(field) -> list[np.ndarray]:
    """Each of BUILDS on the 8 unit bases over one field, as an (8, K) array."""
    zero = BiForm.zero(field, 1, 1)
    units = [BiForm.monomial(field, 1, 1, i, j) for i in range(2) for j in range(2)]
    bases = [(unit, zero) for unit in units] + [(zero, unit) for unit in units]
    return [np.array([build(f1, f2) for f1, f2 in bases], dtype=np.int64).reshape(8, -1)
            for build in BUILDS]


def test_integer_action_tensors_equal_unit_basis_products_over_qq():
    for build, products in zip(BUILDS, unit_basis_products(QQ)):
        table = _plane_table(build)
        assert np.array_equal(table, products)
        assert set(np.unique(table).tolist()) <= {-1, 0, 1}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_action_tensors_equal_unit_basis_products_over_gf_p(p):
    # the per-prime construction the integer tables replaced: their
    # reduction mod p is what _contract reads
    for build, products in zip(BUILDS, unit_basis_products(GF(p))):
        assert np.array_equal(_plane_table(build) % p, products)


def test_cached_action_tensors_are_read_only():
    for build in BUILDS:
        table = _plane_table(build)
        assert table.dtype == np.int16 and table.shape[0] == 8
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
        assert _plane_table(build) is table


def test_raw_table_is_built_without_the_action_builds(monkeypatch):
    # a raw table read off the action's builds would meet the coset identity
    # against the action's counts by construction, whatever their defect
    def refuse(f1, f2):
        raise RuntimeError("the raw table reads an action build")

    cached = _plane_table(_raw_maps)
    monkeypatch.setattr(locus_module, "det_action_matrix", refuse)
    monkeypatch.setattr(locus_module, "_k_rows", refuse)
    assert np.array_equal(_plane_table.__wrapped__(_raw_maps), cached)


@pytest.mark.parametrize("p,fits", [(7, True), (4096, True), (4097, False), (4099, False)])
def test_contract_asserts_the_int16_sum_bound(p, fits):
    # 8 rows times entries of at most 1 sum to at most 8 * (p - 1): int16
    # holds that up to p = 4096, and the assert refuses every larger p
    table, rows = np.ones((8, 1), dtype=np.int16), np.full((1, 2, 4), p - 1)
    if fits:
        assert _contract(p, table, rows).tolist() == [[8 * (p - 1) % p]]
        assert _contract(p, _plane_table(det_action_matrix), rows).shape == (1, 144)
    else:
        with pytest.raises(AssertionError, match="int16"):
            _contract(p, table, rows)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_cached_inverses_are_read_only_int16_inverses(p):
    inverses = locus_module._inverses(p)
    assert inverses is locus_module._inverses(p) and inverses.dtype == np.int16
    assert inverses.tolist() == [0] + [pow(a, -1, p) for a in range(1, p)]
    with pytest.raises(ValueError, match="read-only"):
        inverses[0] = 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("shape", [(12, 12), (2, 12), (12, 2), (5, 9)])
def test_ranks_mod_p_equal_linalg_rank_at_every_rank(p, shape):
    # products a @ b with r inner columns, 40 per r, reach every rank up to r
    rows, cols = shape
    rng = np.random.default_rng(100 * p + rows)
    stack = np.concatenate([
        rng.integers(0, p, (40, rows, r)) @ rng.integers(0, p, (40, r, cols)) % p
        for r in range(min(shape) + 1)])
    reference = [linalg.rank(GF(p), matrix.tolist()) for matrix in stack]
    assert set(reference) == set(range(min(shape) + 1))
    assert _ranks_mod_p(stack, p).tolist() == reference


def test_ranks_mod_p_refuses_primes_beyond_int16():
    with pytest.raises(ValueError, match="int16"):
        _ranks_mod_p(np.zeros((1, 12, 12), dtype=np.int64), 61)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_reduce_equals_remainder(p, dtype):
    # down to the most negative entry _ranks_mod_p's guard lets its elimination reach
    lowest = -(2**15 - 1 - p)
    x = np.random.default_rng(p).integers(lowest, 2**15, 5000).astype(dtype)
    x[:2] = lowest, 2**15 - 1
    expected = x % p
    assert _reduce(x, p) is x
    assert x.dtype == dtype and np.array_equal(x, expected)


def test_classify_and_k_pivots_leave_their_input_as_it_was():
    p = 5
    rng = np.random.default_rng(0)
    bases = rng.integers(-20, 20, (50, 2, 4))
    k_bases = rng.integers(-20, 20, (50, 2, 12)).astype(np.int16)
    before = bases.copy(), k_bases.copy()
    for left, right in zip(classify_planes(p, bases), classify_planes(p, bases % p)):
        assert np.array_equal(left, right)
    for stack in (k_bases, k_bases[..., ::-1]):  # the reversed stack is a view of k_bases
        for left, right in zip(_k_pivots(p, stack), _k_pivots(p, stack % p)):
            assert np.array_equal(left, right)
    assert np.array_equal(bases, before[0]) and np.array_equal(k_bases, before[1])


@pytest.mark.parametrize("primes", ["2", "5", "7"])
def test_perturbed_action_tensor_flips_verdict(monkeypatch, capsys, primes):
    real = locus_module._plane_table

    def perturbed(build):
        table = real(build)
        if build is det_action_matrix:
            table = table.copy()
            table[0, 0] += 1
        return table

    monkeypatch.setattr(locus_module, "_plane_table", perturbed)
    code = cli.main(["verify", "--primes", primes, "--workers", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "factoring first-columns must have zero determinant" in out
    assert "verdict: FAIL" in out


def test_rank_one_short_flips_verdict(monkeypatch, capsys):
    real = locus_module._ranks_mod_p

    def one_short(stack, p):
        ranks = real(stack, p)
        ranks[100] -= 1
        return ranks

    monkeypatch.setattr(locus_module, "_ranks_mod_p", one_short)
    assert cli.main(["verify", "--primes", "7", "--workers", "1"]) == 1
    out = capsys.readouterr().out
    assert "plane 100 (generic): det-zero count 1, expected 0" in out
    assert "verdict: FAIL" in out


#: Planes per block of the kernel route: 144 action-matrix entries each.
KERNEL_BLOCK = KEY_BLOCK // 144


def test_sweep_memory_is_bounded_by_a_block():
    # the p = 7 sweep classifies its 2,850 planes at once, contracts and
    # row-reduces at most 455 of them at a time and keeps 26 bytes a plane
    # (0.58 MB traced; 0.61 MB with each block classified on its own, 0.71 MB
    # with 56-byte rows, 3 MB with it all contracted at once); the join keys
    # all 130 planes at p = 3 (0.72 MB) and 20 at p = 5 with full_oracle
    # (1.21 MB), in int32 (0.95 and 1.79 MB in int64); with full_oracle at
    # p = 3 the raw oracle keys 89 planes at a time (1.21 MB; 1.63 MB with
    # all 130 at once); counting a block's coinciding keys with one sort in
    # place raised the last three by 0.07 to 0.13 MB
    for build in BUILDS:
        _plane_table(build)
    peaks = {}
    for p, full_oracle, bound in ((3, False, 0.8e6), (3, True, 1.3e6), (5, True, 1.35e6),
                                  (7, False, 0.7e6)):
        tracemalloc.start()
        try:
            sweep_locus(p, full_oracle=full_oracle)
            peaks[p, full_oracle] = tracemalloc.get_traced_memory()[1], bound
        finally:
            tracemalloc.stop()
    assert all(peak < bound for peak, bound in peaks.values()), peaks


def zero_k_in_blocks(monkeypatch, *faults):
    """Make action_matrices give a zero K to the plane at offset o of its
    b-th call (block), for each (b, o) in faults."""
    real, calls = locus_module.action_matrices, []

    def degenerate(p, rows):
        matrices, k_bases = real(p, rows)
        calls.append(len(rows))
        for block, offset in faults:
            if block == len(calls) - 1:
                k_bases[offset] = 0
        return matrices, k_bases

    monkeypatch.setattr(locus_module, "action_matrices", degenerate)


def test_degenerate_k_in_a_later_block_is_one_failure_line(monkeypatch, capsys):
    # the mask runs per block and names a held-back plane by its table index
    plane = KERNEL_BLOCK + 3
    zero_k_in_blocks(monkeypatch, (1, 3))
    assert cli.main(["verify-locus", "--prime", "7"]) == 1
    doc = json.loads(capsys.readouterr().out)
    failures = doc["summary"]["failures"]
    assert failures[0] == f"plane {plane}: factoring subspace K has dimension 0"
    assert [line for line in failures if line.startswith("plane ")] == failures[:1]
    assert [fiber["plane_index"] for fiber in doc["fibers"]] == [
        index for index in range(2850) if index != plane]


def test_kernel_route_raise_keeps_the_earlier_blocks(monkeypatch, capsys):
    # the second block's count raises: the first block's rows stay, the
    # failure names the second block's first countable plane, and no line
    # of a later block is listed
    real, calls = locus_module._ranks_mod_p, []

    def flaky(stack, p):
        calls.append(len(stack))
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real(stack, p)

    monkeypatch.setattr(locus_module, "_ranks_mod_p", flaky)
    zero_k_in_blocks(monkeypatch, (1, 0), (2, 0))
    assert cli.main(["verify-locus", "--prime", "7"]) == 3
    doc = json.loads(capsys.readouterr().out)
    failure = f"worker failed on plane {KERNEL_BLOCK + 1}: injected"
    assert doc["worker_failure"] == failure
    failures = doc["summary"]["failures"]
    assert failures[:2] == [f"plane {KERNEL_BLOCK}: factoring subspace K has dimension 0", failure]
    assert not any(line.startswith("plane ") for line in failures[2:])
    assert [fiber["plane_index"] for fiber in doc["fibers"]] == list(range(KERNEL_BLOCK))
    assert calls == [KERNEL_BLOCK, KERNEL_BLOCK - 1]
