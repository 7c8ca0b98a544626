"""Injected defects, one per layer: each must flip the CLI verdict to exit
code 1 and name the check that caught it."""

import numpy as np

import quadric_moduli.cli as cli
import quadric_moduli.locus as locus_module
from quadric_moduli.locus import GENERIC, KINDS, SHARED_LEFT


def run_verify(capsys, *flags) -> tuple[int, str]:
    code = cli.main(["verify", "--primes", "2", "--workers", "1", *flags])
    return code, capsys.readouterr().out


def test_corrupted_raw_oracle_map(monkeypatch, capsys):
    real = locus_module.raw_oracle_maps

    def corrupted(plane):
        against_f2, against_f1 = real(plane)
        against_f2 = against_f2.copy()
        against_f2[0, 0] = (against_f2[0, 0] + 1) % plane.p
        return against_f2, against_f1

    monkeypatch.setattr(locus_module, "raw_oracle_maps", corrupted)
    code, out = run_verify(capsys, "--full-oracle")
    assert code == 1
    assert "breaks the coset identity" in out
    assert "verdict: FAIL" in out


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
    assert "34 planes enumerated, expected 35" in out
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
