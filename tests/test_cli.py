import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

import quadric_moduli.cli as cli
import quadric_moduli.locus as locus_module

RES_OPEN_JSON = '{"positions": [[[0, 0], [0, 0]], [[-1, -2], [-1, -1]]]}'
RES_CURVE_JSON = '{"positions": [[[0, 0]], [[-2, -3]]]}'


def run_cli(*args, check=False):
    result = subprocess.run(
        [sys.executable, "-m", "quadric_moduli.cli", *args],
        capture_output=True, text=True, check=check)
    return result


# -- betti -----------------------------------------------------------------------

def test_betti_text_output():
    result = run_cli("betti")
    assert result.returncode == 0
    assert "1 3 8 10 11 11 11 11 11 11 10 8 3 1" in result.stdout
    assert "euler characteristic: 110" in result.stdout


def test_betti_json_schema():
    result = run_cli("betti", "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["coeffs"] == [1, 3, 8, 10, 11, 11, 11, 11, 11, 11, 10, 8, 3, 1]
    assert doc["euler"] == 110
    assert doc["degree"] == 13
    assert doc["ok"] is True


def test_betti_corrupted_golden_exits_2(tmp_path):
    bad = tmp_path / "golden.json"
    bad.write_text("{ definitely not json", encoding="utf-8")
    result = run_cli("betti", "--golden", str(bad))
    assert result.returncode == 2
    assert "golden" in result.stderr

    missing_keys = tmp_path / "empty.json"
    missing_keys.write_text("{}", encoding="utf-8")
    assert run_cli("betti", "--golden", str(missing_keys)).returncode == 2


def test_betti_wrong_golden_values_exit_1(tmp_path):
    from quadric_moduli.report import load_golden
    golden = load_golden()
    golden["betti"]["euler"] = 111
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(golden), encoding="utf-8")
    result = run_cli("betti", "--golden", str(wrong))
    assert result.returncode == 1


# -- hilbert ----------------------------------------------------------------------

def test_verify_corrupt_golden_exits_2(tmp_path):
    bad = tmp_path / "golden.json"
    bad.write_text("[]", encoding="utf-8")
    assert run_cli("verify", "--primes", "2", "--golden", str(bad)).returncode == 2


#: Stands for a key deleted from the golden file.
DELETED = object()


@pytest.mark.parametrize("keys,value", [
    (("detzero_totals", "values", "2"), "12"),
    (("moduli_point_counts", "values"), [58311]),
    (("betti", "euler"), True),
    (("hilbert", "resolutions"), 5),
    (("betti", "origin"), DELETED),
    (("hilbert", "combinations"), DELETED),
    (("moduli_point_counts", "values"),
     {"02": 58311, "3": 5520988, "5": 2468261466, "7": 157574109176}),
], ids=["string-total", "list-of-counts", "boolean-euler", "number-of-resolutions",
        "no-betti-origin", "no-combinations", "zero-padded-prime"])
def test_verify_mistyped_golden_values_exit_2(tmp_path, capsys, keys, value):
    from quadric_moduli.report import load_golden
    golden = load_golden()
    section = golden
    for key in keys[:-1]:
        section = section[key]
    if value is DELETED:
        del section[keys[-1]]
    else:
        section[keys[-1]] = value
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    assert cli.main(["verify", "--primes", "2", "--golden", str(path)]) == 2
    assert "golden data error" in capsys.readouterr().err


def test_hilbert_inline():
    result = run_cli("hilbert", RES_OPEN_JSON)
    assert result.returncode == 0
    assert "P = 3m + 2n + 2" in result.stdout
    assert "chi = 2" in result.stdout


def test_hilbert_curve_genus():
    result = run_cli("hilbert", RES_CURVE_JSON, "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["display"] == "3m + 2n - 1"
    assert doc["chi"] == -1
    assert doc["genus_if_structure_sheaf"] == 2


def test_hilbert_from_file(tmp_path):
    spec_file = tmp_path / "resolution.json"
    spec_file.write_text(RES_OPEN_JSON, encoding="utf-8")
    result = run_cli("hilbert", str(spec_file))
    assert result.returncode == 0
    assert "3m + 2n + 2" in result.stdout


def test_hilbert_malformed_json_reports_position():
    result = run_cli("hilbert", '{"positions": [[[0,0],')
    assert result.returncode == 2
    assert "line 1" in result.stderr and "column" in result.stderr


def test_hilbert_empty_positions_exit_2():
    result = run_cli("hilbert", '{"positions": []}')
    assert result.returncode == 2


def test_hilbert_malformed_shapes_exit_2():
    assert run_cli("hilbert", '{"positions": "nope"}').returncode == 2
    assert run_cli("hilbert", '{"positions": [[[0]]]}').returncode == 2
    assert run_cli("hilbert", '{"positions": [[[0, "b"]]]}').returncode == 2
    assert run_cli("hilbert", '[1, 2]').returncode == 2
    assert run_cli("hilbert", '{"positions": [[[true, 0]], [[false, -1]]]}').returncode == 2


def test_hilbert_missing_file_exit_2(tmp_path):
    result = run_cli("hilbert", str(tmp_path / "nope.json"))
    assert result.returncode == 2


# -- verify-locus --------------------------------------------------------------------

def test_verify_locus_p2():
    result = run_cli("verify-locus", "--prime", "2", "--workers", "1")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["prime"] == 2
    assert len(doc["fibers"]) == 35
    summary = doc["summary"]
    for key in ("X_count", "expected", "moduli_count", "poincare_eval", "ok"):
        assert key in summary
    assert summary["X_count"] == 12
    assert summary["expected"] == 12
    assert summary["moduli_count"] == 58311
    assert summary["poincare_eval"] == 58311
    assert summary["ok"] is True


def test_verify_locus_full_oracle_p2():
    result = run_cli("verify-locus", "--prime", "2", "--full-oracle", "--workers", "1")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    raws = [f for f in doc["fibers"] if "raw_count" in f]
    assert len(raws) == 35
    assert all(f["raw_ok"] for f in raws)


def test_verify_locus_unsupported_prime():
    result = run_cli("verify-locus", "--prime", "11")
    assert result.returncode == 2
    assert "unsupported" in result.stderr


# -- verify / report -------------------------------------------------------------------

def test_verify_p2_passes():
    result = run_cli("verify", "--primes", "2", "--workers", "1")
    assert result.returncode == 0
    assert "verdict: PASS" in result.stdout


def test_verify_unsupported_prime():
    result = run_cli("verify", "--primes", "11")
    assert result.returncode == 2


def test_verify_bad_primes_list():
    assert run_cli("verify", "--primes", "two").returncode == 2
    assert run_cli("verify", "--primes", "").returncode == 2
    assert run_cli("verify", "--primes", "2,3,2").returncode == 2
    assert run_cli("verify", "--primes", "2", "--workers", "0").returncode == 2
    assert run_cli("verify-locus", "--prime", "2", "--workers", "0").returncode == 2


def test_verify_reports_are_byte_identical(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli("verify", "--primes", "2", "--workers", "1",
                   "--out", str(out1)).returncode == 0
    assert run_cli("verify", "--primes", "2", "--workers", "1",
                   "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_json_document():
    result = run_cli("report", "--primes", "2", "--workers", "1")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["verdict"] is True
    assert doc["betti"]["ok"] is True
    assert doc["hilbert"]["ok"] is True
    assert len(doc["locus"]) == 1
    assert doc["locus"][0]["X_count"] == 12
    assert doc["config"] == {"primes": [2], "workers": 1, "full_oracle": False}


def test_report_bytes_do_not_depend_on_the_environment(monkeypatch):
    monkeypatch.delenv("QM_WORKERS", raising=False)
    unset = run_cli("report", "--primes", "2")
    monkeypatch.setenv("QM_WORKERS", "3")
    with_env = run_cli("report", "--primes", "2")
    assert unset.returncode == with_env.returncode == 0
    assert unset.stdout == with_env.stdout


#: SHA-256 of the stdout of three headline runs, as pinned by the benchmark.
REPORT_DIGESTS = {
    ("verify", "--primes", "2,3,5,7"):
        "da4b2b13034c19cf8bb2f5e1436b07d0acd288a935b802c119b5aa0ad6fd2369",
    ("verify", "--primes", "2,3", "--full-oracle"):
        "84029a58be1e8d9a9910947165ee0e0b762eeca45a87a5a5f6838f98b62a1e0a",
    ("verify-locus", "--prime", "7"):
        "eab54445aa41a9b75ff19602dc8d92bd8e791a1309dc89b097c64e5b0caaab9a",
    # raw_count/raw_ok on every plane
    ("verify-locus", "--prime", "2", "--full-oracle"):
        "7fa40fe4c5ad3bd7db06aa2acdf126f718f2610431a35a75b6ecca955d60204f",
    # one raw-oracle target per plane kind
    ("verify-locus", "--prime", "3", "--full-oracle"):
        "c30b733daa2e3b0652c1ef611cf22da45a42982b9c40a3865d2bd784a83f0ca4",
}
#: SHA-256 of the partial verify-locus --prime 2 document of a worker that
#: fails on its sixth plane.
PARTIAL_LOCUS_DIGEST = "19ac1661cbab156ae157c0f21f9c240b4aa3e7f670893e4718b90a9d04fdc068"


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS),
                         ids=["verify", "verify-full-oracle", "verify-locus",
                              "verify-locus-full-oracle-2", "verify-locus-full-oracle-3"])
def test_report_bytes_are_pinned(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REPORT_DIGESTS[argv]


def test_report_includes_golden_origins():
    result = run_cli("report", "--primes", "2", "--workers", "1")
    doc = json.loads(result.stdout)
    assert doc["betti"]["expected"]["origin"] == "reference"
    origins = {check["origin"] for check in doc["hilbert"]["checks"]}
    assert origins == {"reference", "derived"}


# -- worker failure and exit-code totality ----------------------------------------------

def test_worker_failure_exit_3(monkeypatch, capsys, tmp_path):
    def boom(args):
        raise RuntimeError("injected")

    monkeypatch.setattr(locus_module, "_plane_worker", boom)
    out = tmp_path / "partial.json"
    code = cli.main(["verify", "--primes", "2", "--workers", "1", "--out", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["verdict"] is False
    assert "worker_failure" in report
    human = capsys.readouterr().out
    assert "worker failure" in human


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_locus_worker_failure_exit_3(monkeypatch, capsys, workers):
    calls = {"n": 0}
    real = locus_module._plane_worker

    def flaky(args):
        calls["n"] += 1
        if calls["n"] > 5:
            raise RuntimeError("injected")
        return real(args)

    monkeypatch.setattr(locus_module, "_plane_worker", flaky)
    code = cli.main(["verify-locus", "--prime", "2", "--workers", workers])
    assert code == 3
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["worker_failure"]
    assert len(doc["fibers"]) == 5
    assert hashlib.sha256(out.encode()).hexdigest() == PARTIAL_LOCUS_DIGEST


@pytest.mark.parametrize("argv", [["verify", "--primes", "2"], ["verify-locus", "--prime", "2"]],
                         ids=["verify", "verify-locus"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing-dir" / "r.json"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write output file" in err
    assert "internal error" not in err


def test_verification_mismatch_exit_1(monkeypatch, capsys):
    real = locus_module._plane_worker

    def wrong(args):
        return real(args) + 1

    monkeypatch.setattr(locus_module, "_plane_worker", wrong)
    code = cli.main(["verify", "--primes", "2", "--workers", "1"])
    assert code == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_usage_error_exits_2():
    assert run_cli("frobnicate").returncode == 2
    assert run_cli().returncode == 2


def test_verify_locus_off_by_one_golden_exits_1(tmp_path, capsys):
    from quadric_moduli.report import load_golden
    golden = load_golden()
    golden["detzero_totals"]["values"]["2"] += 1
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    code = cli.main(["verify-locus", "--prime", "2", "--workers", "1", "--golden", str(path)])
    assert code == 1
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["failures"] == ["det-zero total 12 != golden 13"]
