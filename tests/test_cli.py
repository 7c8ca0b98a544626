import contextlib
import hashlib
import io
import json
import os
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
    (("moduli_point_counts", "values", "2"), "58311"),
    (("moduli_point_counts", "values"), [58311]),
    (("betti", "euler"), True),
    (("hilbert", "resolutions"), 5),
    (("betti", "origin"), DELETED),
    (("hilbert", "combinations"), DELETED),
    (("moduli_point_counts", "values"),
     {"02": 58311, "3": 5520988, "5": 2468261466, "7": 157574109176}),
    (("hilbert", "resolutions", 0, "positions"), DELETED),
    (("hilbert", "twists", 0), 7),
    (("hilbert", "combinations", 0, "coeffs"), DELETED),
    (("hilbert", "resolutions", 0, "expected_coeffs"), [[None]]),
    (("hilbert", "combinations", 0, "twists", 0), [1]),
    (("hilbert", "combinations", 0, "equals_line_bundle"), [1]),
    (("hilbert", "twists", 0, "shift"), [1, True]),
    (("hilbert", "twists", 0, "start_coeffs"), [["x"]]),
    (("hilbert", "combinations", 0, "coeffs"), ["x", -2]),
    (("hilbert", "resolutions", 0, "positions"), [[[0, True]]]),
    (("hilbert", "combinations", 0, "coeffs"), [3]),
    (("moduli_point_counts", "values", "7"), DELETED),
], ids=["string-total", "list-of-counts", "boolean-euler", "number-of-resolutions",
        "no-betti-origin", "no-combinations", "zero-padded-prime", "resolution-without-positions",
        "number-as-twist", "combination-without-coeffs", "null-coefficient", "short-twist",
        "short-line-bundle", "boolean-shift", "non-numeric-coefficient",
        "non-numeric-combination-coefficient", "boolean-label", "fewer-coeffs-than-twists",
        "missing-prime"])
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


def test_verify_accepts_fraction_golden_coefficients(tmp_path, capsys):
    from quadric_moduli.report import load_golden
    golden = load_golden()
    golden["hilbert"]["twists"][0]["expected_coeffs"] = [["4/2", 2], ["6/2"]]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    assert cli.main(["verify", "--primes", "2", "--golden", str(path)]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


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


@pytest.mark.parametrize("spec", ["[1]", " [1, 2]", "[]"])
def test_hilbert_inline_json_that_is_not_an_object_exits_2(capsys, spec):
    # read as inline JSON, not as the path of a resolution file
    assert cli.main(["hilbert", spec]) == 2
    err = capsys.readouterr().err
    assert err == 'error: resolution JSON must be an object with a "positions" key\n'


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


#: Invalid --primes and --workers values, with the one stderr line each exits 2 with.
ARGV_ERRORS = {
    ("--primes", ""): "error: at least one prime is required",
    ("--primes", "two"): "error: cannot parse primes list 'two'",
    ("--primes", "11"): "error: unsupported primes [11]; supported: (2, 3, 5, 7)",
    ("--primes", "2,3,2"): "error: repeated primes in [2, 3, 2]",
    ("--primes", "2", "--workers", "0"): "error: workers must be >= 1",
}


def test_verify_bad_primes_list(capsys, tmp_path):
    out = tmp_path / "report.json"
    cases = [((command, *flags), line) for command in ("verify", "report")
             for flags, line in ARGV_ERRORS.items()]
    cases.append((("verify-locus", "--prime", "2", "--workers", "0"),
                  "error: workers must be >= 1"))
    for argv, line in cases:
        for extra in ((), ("--out", str(out))):
            assert cli.main([*argv, *extra]) == 2, argv
            assert capsys.readouterr() == ("", line + "\n"), argv
            assert not out.exists(), argv


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
    assert doc["config"] == {"primes": [2], "full_oracle": False}


def test_report_bytes_do_not_depend_on_workers():
    assert (run_main(["report", "--primes", "2", "--workers", "1"])
            == run_main(["report", "--primes", "2", "--workers", "2"]))


def test_report_bytes_do_not_depend_on_the_environment(monkeypatch):
    monkeypatch.delenv("QM_WORKERS", raising=False)
    unset = run_cli("report", "--primes", "2")
    monkeypatch.setenv("QM_WORKERS", "3")
    with_env = run_cli("report", "--primes", "2")
    assert unset.returncode == with_env.returncode == 0
    assert unset.stdout == with_env.stdout


#: SHA-256 of the stdout of the three headline runs pinned by the benchmark, of
#: the JSON report and of verify-locus at every supported prime.
REPORT_DIGESTS = {
    ("verify", "--primes", "2,3,5,7"):
        "da4b2b13034c19cf8bb2f5e1436b07d0acd288a935b802c119b5aa0ad6fd2369",
    ("verify", "--primes", "2,3", "--full-oracle"):
        "84029a58be1e8d9a9910947165ee0e0b762eeca45a87a5a5f6838f98b62a1e0a",
    ("verify-locus", "--prime", "7"):
        "eab54445aa41a9b75ff19602dc8d92bd8e791a1309dc89b097c64e5b0caaab9a",
    ("report", "--primes", "2,3,5,7"):
        "d79225d979623737aa1baaf4307d69fc721bc74cd3d7778fa8d079b33ae9789a",
    ("report", "--primes", "2,3", "--full-oracle"):
        "889e34acf7c5b2882b08203065b510b435b5ce8f38adc101dd143298736f94b9",
    ("verify-locus", "--prime", "2"):
        "8f6431004632c2a3e0fff6456620593523c95900f00e2aab9949b9be00c1964d",
    ("verify-locus", "--prime", "3"):
        "e1941d18976891197b5d69dd5f1430950ad716842890fe94c0dcdd6d5984a7a7",
    ("verify-locus", "--prime", "5"):
        "ca37664afc4a741afddb6ed469860d02b44ea39380f27f373ccd4e13d70d65cd",
    # raw_count/raw_ok on every plane
    ("verify-locus", "--prime", "2", "--full-oracle"):
        "7fa40fe4c5ad3bd7db06aa2acdf126f718f2610431a35a75b6ecca955d60204f",
    # one raw-oracle target per plane kind
    ("verify-locus", "--prime", "3", "--full-oracle"):
        "c30b733daa2e3b0652c1ef611cf22da45a42982b9c40a3865d2bd784a83f0ca4",
    # full fiber enumeration at p = 5
    ("verify-locus", "--prime", "5", "--full-oracle"):
        "4e4d6f3b718b6a91945078731943f870efbd185a779d696baef33e15021f8033",
    # --full-oracle adds nothing at p = 7: the same document as without it
    ("verify-locus", "--prime", "7", "--full-oracle"):
        "eab54445aa41a9b75ff19602dc8d92bd8e791a1309dc89b097c64e5b0caaab9a",
}
#: SHA-256 of the partial verify-locus --prime 2 document of a worker that
#: fails on its sixth plane.
PARTIAL_LOCUS_DIGEST = "c666e79ed1866d86425fe0d112ce25c1691f4f8a072dce68fb4e87675f6d5785"
#: SHA-256 of the partial report and verify --primes 2,3 outputs, JSON and
#: human, of a join that fails on its sixth call.
PARTIAL_REPORT_DIGESTS = {
    ("report", "--primes", "2,3"):
        "ad4874c6fe4ba4b3a635a1a694dcf62688f95b939dc61a2939d981d8a08cade6",
    ("verify", "--primes", "2,3"):
        "23edb2c28e60f15ac6042618e65c94590d69d48be83ea0603ec833e5b529d017",
}


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS),
                         ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv))
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
    def boom(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(locus_module, "_join_count", boom)
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
    real = locus_module._join_count

    def flaky(*args):
        calls["n"] += 1
        if calls["n"] > 5:
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(locus_module, "_join_count", flaky)
    code = cli.main(["verify-locus", "--prime", "2", "--workers", workers])
    assert code == 3
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["worker_failure"]
    assert len(doc["fibers"]) == 5
    assert hashlib.sha256(out.encode()).hexdigest() == PARTIAL_LOCUS_DIGEST


def fail_kernel_route(monkeypatch):
    def boom(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(locus_module, "_ranks_mod_p", boom)


def test_kernel_route_failure_keeps_earlier_primes_exit_3(monkeypatch, capsys):
    fail_kernel_route(monkeypatch)
    assert cli.main(["verify", "--primes", "2,7"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == f"{'locus p=2':<12} {'X=12/12, count=58311, poly=58311':<48} PASS"
    assert lines[3].startswith("locus p=7    X=0/72") and lines[3].endswith("FAIL")
    assert "worker failure: worker failed on plane 0: injected" in lines


def test_verify_locus_kernel_route_failure_exit_3(monkeypatch, capsys):
    fail_kernel_route(monkeypatch)
    assert cli.main(["verify-locus", "--prime", "7"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["fibers"] == []
    assert doc["worker_failure"] == "worker failed on plane 0: injected"


@pytest.mark.parametrize("argv", list(PARTIAL_REPORT_DIGESTS),
                         ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv))
def test_partial_report_bytes_are_pinned(monkeypatch, capsys, argv):
    calls = {"n": 0}
    real = locus_module._join_count

    def flaky(*args):
        calls["n"] += 1
        if calls["n"] == 6:
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(locus_module, "_join_count", flaky)
    assert cli.main(list(argv)) == 3
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PARTIAL_REPORT_DIGESTS[argv]


@pytest.mark.parametrize("argv", [["verify", "--primes", "2"], ["verify-locus", "--prime", "2"]],
                         ids=["verify", "verify-locus"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing-dir" / "r.json"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write output file" in err
    assert "internal error" not in err


def test_verification_mismatch_exit_1(monkeypatch, capsys):
    real = locus_module._join_count

    def wrong(*args):
        return real(*args) + 1

    monkeypatch.setattr(locus_module, "_join_count", wrong)
    code = cli.main(["verify", "--primes", "2", "--workers", "1"])
    assert code == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_usage_error_exits_2():
    assert run_cli("frobnicate").returncode == 2
    assert run_cli().returncode == 2
    # report prints the JSON report; verify has no --json
    result = run_cli("verify", "--primes", "2", "--json")
    assert result.returncode == 2
    assert "unrecognized arguments: --json" in result.stderr


def test_verify_locus_off_by_one_golden_exits_1(tmp_path, capsys):
    from quadric_moduli.report import load_golden
    golden = load_golden()
    golden["moduli_point_counts"]["values"]["2"] += 1
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    code = cli.main(["verify-locus", "--prime", "2", "--workers", "1", "--golden", str(path)])
    assert code == 1
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["failures"] == ["moduli count 58311 != golden 58312"]


# -- the console script's entry point ----------------------------------------------

def run_main(argv) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_entry_point(argv) -> tuple[int, bytes, bytes]:
    result = subprocess.run([sys.executable, "-m", "quadric_moduli.cli", *argv],
                            capture_output=True)
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize("argv,code", [
    (("report", "--primes", "2,3"), 0),
    (("verify-locus", "--prime", "2"), 0),
    (("verify", "--primes", "2", "--golden", "{off_by_one}"), 1),
    (("verify", "--primes", "4"), 2),
], ids=["report", "verify-locus", "off-by-one-golden", "unsupported-prime"])
def test_entry_point_equals_main(tmp_path, argv, code):
    from quadric_moduli.report import load_golden
    golden = load_golden()
    golden["moduli_point_counts"]["values"]["2"] += 1
    off_by_one = tmp_path / "golden.json"
    off_by_one.write_text(json.dumps(golden), encoding="utf-8")
    argv = [arg.format(off_by_one=off_by_one) for arg in argv]
    result = run_entry_point(argv)
    assert result[0] == code
    assert result == run_main(argv)


def test_entry_point_report_out_writes_the_json_report(tmp_path):
    out, verify_out = tmp_path / "report.json", tmp_path / "verify.json"
    assert run_entry_point(["report", "--primes", "2,3", "--out", str(out)]) == (0, b"", b"")
    assert run_main(["verify", "--primes", "2,3", "--out", str(verify_out)])[0] == 0
    assert out.read_bytes() == verify_out.read_bytes() == run_main(["report", "--primes", "2,3"])[1]


# -- start-up --------------------------------------------------------------------------

def test_package_root_imports_no_numpy():
    code = "import sys, quadric_moduli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


#: Modules that only a sweep needs.
SWEEP_MODULES = ("numpy", "quadric_moduli.biform", "quadric_moduli.locus")


@pytest.mark.parametrize("argv,loaded", [
    (["betti"], ()),
    (["betti", "--json"], ()),
    (["hilbert", RES_OPEN_JSON], ()),
    (["verify", "--primes", "2"], SWEEP_MODULES),
], ids=["betti", "betti-json", "hilbert", "verify"])
def test_only_sweeps_load_numpy(argv, loaded):
    code = ("import sys\n"
            "from quadric_moduli import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            f"sys.stderr.write(' '.join(m for m in {SWEEP_MODULES!r} if m in sys.modules))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr == " ".join(loaded)


def test_entry_point_freezes_the_heap_the_sweeps_import():
    # verify imports numpy inside main: the collections at exit must skip its heap too
    code = ("import gc, sys\n"
            "from quadric_moduli import cli\n"
            "sys.argv = ['qmoduli', 'verify', '--primes', '2']\n"
            "try:\n"
            "    cli.entrypoint()\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "import numpy\n"
            "assert not any(o is vars(numpy) for o in gc.get_objects()), 'numpy is not frozen'\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_runs_numpy_on_one_thread():
    # the child gets a BLAS thread count of its own: importing cli here has
    # already set OPENBLAS_NUM_THREADS in this process, which it would inherit
    # (on a one-core machine OpenBLAS starts no extra thread either way)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "4"}
    code = "import os, quadric_moduli.cli, numpy; print(len(os.listdir('/proc/self/task')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "1\n"
