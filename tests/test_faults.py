"""Injected defects, one per layer: each must flip the CLI verdict to exit
code 1 and name the check that caught it, or, where an internal invariant
catches it first, stop the run with exit code 2."""

import json
import re

import numpy as np
import pytest

import quadric_moduli.betti as betti_module
import quadric_moduli.cli as cli
import quadric_moduli.locus as locus_module
import quadric_moduli.report as report_module
from quadric_moduli.betti import XiPoly
from quadric_moduli.hilbert import BiPoly
from quadric_moduli.locus import GENERIC, KINDS, SHARED_LEFT


def run_verify(capsys, *flags) -> tuple[int, str]:
    code = cli.main(["verify", "--primes", "2", "--workers", "1", *flags])
    return code, capsys.readouterr().out


def test_corrupted_raw_oracle_map(monkeypatch, capsys):
    real = locus_module.raw_oracle_maps

    def corrupted(p, bases):
        maps = real(p, bases)
        maps[:, 0, 0, 0] = (maps[:, 0, 0, 0] + 1) % p  # x^2 z^3 in (x z^2) * f2
        return maps

    monkeypatch.setattr(locus_module, "raw_oracle_maps", corrupted)
    code, out = run_verify(capsys, "--full-oracle")
    assert code == 1
    assert "breaks the coset identity" in out
    assert "verdict: FAIL" in out


@pytest.mark.parametrize(
    "entry", [tuple(e) for e in np.argwhere(locus_module._raw_products()).tolist()],
    ids=lambda entry: "-".join(map(str, entry)))
def test_dropped_raw_product_entry(monkeypatch, capsys, entry):
    # each of the 24 unit products feeds the raw maps of some p = 2 plane
    real = locus_module._raw_products

    def dropped():
        table = real().copy()
        table[entry] = 0
        return table

    monkeypatch.setattr(locus_module, "_raw_products", dropped)
    code, out = run_verify(capsys, "--full-oracle")
    assert code == 1
    assert "breaks the coset identity" in out


def test_inserted_raw_product_entry_stops_the_run(monkeypatch, capsys):
    # a product of monomials is one monomial: a second term in any of the 24
    # products is an internal error, caught before the raw maps are used
    real = locus_module._raw_products
    zeros = [tuple(e) for e in np.argwhere(real() == 0).tolist()]
    assert len(zeros) == 264
    for entry in zeros:
        def inserted(entry=entry):
            table = real().copy()
            table[entry] = 1
            return table

        monkeypatch.setattr(locus_module, "_raw_products", inserted)
        assert cli.main(["verify", "--primes", "2", "--full-oracle"]) == 2, entry
        out, err = capsys.readouterr()
        assert out == "", entry
        assert err == "internal error: each raw product must be at most one monomial\n", entry


def test_corrupted_raw_oracle_map_p3(monkeypatch, capsys):
    # 94 of the 130 raw counts change, but not that of the first plane of any
    # kind, so only a raw oracle on every plane sees it
    real = locus_module.raw_oracle_maps

    def corrupted(p, bases):
        maps = real(p, bases)
        maps[:, 0, 0, 0] = (maps[:, 0, 0, 0] + 1) % p  # x^2 z^3 in (x z^2) * f2
        return maps

    monkeypatch.setattr(locus_module, "raw_oracle_maps", corrupted)
    assert cli.main(["verify-locus", "--prime", "3", "--full-oracle"]) == 1
    assert '"raw_ok": false' in capsys.readouterr().out


def test_corrupted_raw_oracle_map_of_one_plane_p3(monkeypatch, capsys):
    # plane 129 is shared-left but not the first plane of its kind, and a
    # perturbed entry of its maps alone changes its raw count
    bases = locus_module.plane_bases(3)
    kinds = locus_module.classify_planes(3, bases)[0].tolist()
    assert KINDS[kinds[129]] == SHARED_LEFT and kinds.index(kinds[129]) < 129
    real = locus_module.raw_oracle_maps

    def corrupted(p, rows):
        maps = real(p, rows)
        plane = np.flatnonzero((np.asarray(rows) == bases[129]).all(axis=(1, 2)))
        maps[plane, 0, 0, 0] = (maps[plane, 0, 0, 0] + 1) % p
        return maps

    monkeypatch.setattr(locus_module, "raw_oracle_maps", corrupted)
    assert cli.main(["verify", "--primes", "3", "--full-oracle"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"plane 129: raw sweep count \d+ breaks the coset identity", out)
    assert out.count("breaks the coset identity") == 1
    assert "verdict: FAIL" in out


def test_kernel_count_numerator_plus_one_is_caught_by_the_join(monkeypatch, capsys):
    # p**d + 1 for p**d - 1 floors to the same count at p = 5, 7 (d <= 2), so
    # only the join, which also counts every plane at p = 2, 3, catches it
    def mutant(p, matrices):
        return (p ** (10 - locus_module._ranks_mod_p(matrices, p)) + 1) // (p - 1)

    monkeypatch.setattr(locus_module, "_kernel_counts", mutant)
    assert cli.main(["verify", "--primes", "2,3,5,7"]) == 1
    out = capsys.readouterr().out
    assert "! plane 0: enumerate count 3, kernel count 5\n" in out
    assert "det-zero count" not in out  # the method's counts are right
    assert out.endswith("verdict: FAIL\n")


def test_rank_one_short_at_p3_is_caught_by_the_join(monkeypatch, capsys):
    real = locus_module._ranks_mod_p

    def one_short(stack, p):
        ranks = real(stack, p)
        if p == 3:
            ranks[100] -= 1
        return ranks

    monkeypatch.setattr(locus_module, "_ranks_mod_p", one_short)
    assert cli.main(["verify", "--primes", "2,3,5,7"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "!" in line] == [
        f"{'':<13}! plane 100: enumerate count 0, kernel count 1"]
    assert out.endswith("verdict: FAIL\n")


def test_join_count_off_by_one_at_p5_is_caught_by_the_kernel_route(monkeypatch, capsys):
    real = locus_module._join_count
    monkeypatch.setattr(locus_module, "_join_count", lambda *args: real(*args) + 1)
    assert cli.main(["verify", "--primes", "5", "--full-oracle"]) == 1
    out = capsys.readouterr().out
    assert "! plane 0: enumerate count 7, kernel count 6\n" in out
    assert out.count(", kernel count ") == 806  # every plane at p = 5
    assert out.endswith("verdict: FAIL\n")


def test_wrong_expected_detzero(monkeypatch, capsys):
    real = locus_module.expected_detzero

    def wrong(p):
        by_kind = real(p).copy()
        by_kind[KINDS.index(SHARED_LEFT)] += 1
        return by_kind

    monkeypatch.setattr(locus_module, "expected_detzero", wrong)
    code, out = run_verify(capsys)
    assert code == 1
    assert "(shared-left): det-zero count 3, expected 4" in out
    assert "verdict: FAIL" in out


def test_dropped_plane(monkeypatch, capsys):
    real = locus_module.plane_bases

    def dropping(p):
        bases = real(p)
        kinds, _, _ = locus_module.classify_planes(p, bases)
        dropped = np.flatnonzero(kinds == KINDS.index(GENERIC))[0]
        return np.delete(bases, dropped, axis=0)

    monkeypatch.setattr(locus_module, "plane_bases", dropping)
    code, out = run_verify(capsys)
    assert code == 1
    # the orbit tallies sum to |Grass(2, 4)|, so a dropped plane leaves one short
    assert "17 generic planes with rank1_lines = 2, expected 18" in out
    assert "verdict: FAIL" in out


def test_wrong_rank1_lines(monkeypatch, capsys):
    real = locus_module.classify_planes

    def miscounted(p, bases):
        kinds, rank1_lines, shared_points = real(p, bases)
        tallied = np.flatnonzero((kinds == KINDS.index(GENERIC)) & (rank1_lines == 2))[0]
        rank1_lines = rank1_lines.copy()
        rank1_lines[tallied] = 1
        return kinds, rank1_lines, shared_points

    monkeypatch.setattr(locus_module, "classify_planes", miscounted)
    code, out = run_verify(capsys)
    assert code == 1
    assert "17 generic planes with rank1_lines = 2, expected 18" in out
    assert "10 generic planes with rank1_lines = 1, expected 9" in out
    assert "verdict: FAIL" in out


@pytest.mark.parametrize("module,name,named", [
    (report_module, "stratified_moduli_count", "moduli count 58312 != golden 58311"),
    (betti_module, "grass_count", "moduli count 59334 != golden 58311"),
    (betti_module, "projective_count", "moduli count 58356 != golden 58311"),
    (locus_module, "expected_x_count", "det-zero total 12, expected 13"),
], ids=["stratified-count", "grass-count", "projective-count", "expected-x"])
def test_count_formula_off_by_one(monkeypatch, capsys, module, name, named):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) + 1)
    code, out = run_verify(capsys)
    assert code == 1
    assert f"! {named}\n" in out
    assert "verdict: FAIL" in out


def test_wrong_generic_orbit_size(monkeypatch, capsys):
    real = locus_module.generic_orbit_sizes
    monkeypatch.setattr(locus_module, "generic_orbit_sizes",
                        lambda p: {**real(p), 1: real(p)[1] + 1})
    code, out = run_verify(capsys)
    assert code == 1
    assert "! 9 generic planes with rank1_lines = 1, expected 10\n" in out
    assert "verdict: FAIL" in out


def test_gaussian_binomial_with_an_extra_term(monkeypatch, capsys):
    real = betti_module.grass_poincare
    monkeypatch.setattr(betti_module, "grass_poincare",
                        lambda k, n: real(k, n) + XiPoly.monomial(2))
    assert cli.main(["betti"]) == 1
    assert "golden match: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["twist", "hilb_resolution", "hilb_combination"])
def test_wrong_hilbert_arithmetic_flips_the_verdict(monkeypatch, capsys, name):
    # load_golden computes the Hilbert checks as well: a wrong polynomial
    # fails its check, and is never a golden file of the wrong shape
    real = getattr(report_module, name)
    monkeypatch.setattr(report_module, name, lambda *args: real(*args) + BiPoly(1))
    code, out = run_verify(capsys)
    assert code == 1
    [row] = [line for line in out.splitlines() if line.startswith("hilbert ")]
    assert row.endswith(" FAIL")
    assert cli.main(["betti"]) == 0


@pytest.mark.parametrize("coeffs_desc", [
    [1, 3, 8, 10, 11, 11, 11, 11, 11, 11, 10, 8, 3, 2],
    [1, 3, 8, 10, 11, 9, 11, 11, 9, 11, 10, 8, 3, 1],
], ids=["not-palindromic", "falls-before-the-middle"])
def test_betti_list_without_the_shape_of_a_smooth_projective_variety(
        monkeypatch, capsys, tmp_path, coeffs_desc):
    # the computed polynomial and the golden list agree, so only the shape
    # check (Poincare duality, hard Lefschetz) can catch the defect
    golden = report_module.load_golden()
    golden["betti"].update(coeffs_desc=coeffs_desc, euler=sum(coeffs_desc))
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    monkeypatch.setattr(report_module, "poincare_moduli", lambda: XiPoly(coeffs_desc[::-1]))
    assert cli.main(["betti", "--golden", str(path)]) == 1
    assert "golden match: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--primes", "2"],
    ["verify", "--primes", "3"],
    ["verify", "--primes", "5"],
    ["verify", "--primes", "7"],
    ["verify", "--primes", "2,3,5", "--full-oracle"],
    ["verify-locus", "--prime", "7"],
], ids=["2", "3", "5", "7", "2,3,5-full-oracle", "locus-7"])
@pytest.mark.parametrize("dim", [1, 0], ids=["equal-rows", "zero-rows"])
def test_k_of_wrong_dimension_is_a_recorded_failure(monkeypatch, capsys, argv, dim):
    # both count routes assume dim K = 2; a plane whose K breaks that is held
    # back by the sweep with one failure line, and the report is still written
    real = locus_module.action_matrices

    def degenerate(p, rows):
        matrices, k_bases = real(p, rows)
        k_bases = k_bases.copy()
        k_bases[0] = k_bases[0, 0] if dim == 1 else 0
        return matrices, k_bases

    monkeypatch.setattr(locus_module, "action_matrices", degenerate)
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    failure = f"plane 0: factoring subspace K has dimension {dim}"
    if argv[0] == "verify-locus":
        summary = json.loads(out)["summary"]
        assert summary["failures"].count(failure) == 1
        assert summary["ok"] is False
    else:
        assert out.count(f"! {failure}\n") == len(argv[2].split(","))
        assert out.endswith("verdict: FAIL\n")
