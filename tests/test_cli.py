import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import quadric_moduli.cli as cli
import quadric_moduli.locus as locus_module
from test_reachable import COMMANDS as REACHABLE_COMMANDS

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


MISTYPED_GOLDEN = [
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
    (("hilbert", "twists", 0, "start_coeffs"), [[1, 0, 1]]),
    (("hilbert", "resolutions", 0, "expected_coeffs"), [[2, 2], [3], [0]]),
    (("hilbert", "twists", 0, "expected_coeffs"), [["4/2", 2], ["6/2"]]),
]
MISTYPED_GOLDEN_IDS = [
    "string-total", "list-of-counts", "boolean-euler", "number-of-resolutions",
    "no-betti-origin", "no-combinations", "zero-padded-prime", "resolution-without-positions",
    "number-as-twist", "combination-without-coeffs", "null-coefficient", "short-twist",
    "short-line-bundle", "boolean-shift", "non-numeric-coefficient",
    "non-numeric-combination-coefficient", "boolean-label", "fewer-coeffs-than-twists",
    "missing-prime", "grid-row-above-bidegree-1-1", "grid-rows-above-bidegree-1-1",
    "fraction-coefficient"]


# betti reads no Hilbert entry, yet rejects the same golden files as verify
@pytest.mark.parametrize("keys,value,argv", [
    pytest.param(keys, value, argv, id=name + suffix)
    for (keys, value), name in zip(MISTYPED_GOLDEN, MISTYPED_GOLDEN_IDS)
    for argv, suffix in ((["verify", "--primes", "2"], ""), (["betti"], "-betti"))])
def test_verify_mistyped_golden_values_exit_2(tmp_path, capsys, keys, value, argv):
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
    assert cli.main([*argv, "--golden", str(path)]) == 2
    assert "golden data error" in capsys.readouterr().err


def test_non_utf8_golden_exits_2(tmp_path, capsys):
    bad = tmp_path / "golden.json"
    bad.write_bytes(b"\xff\xfe{")
    assert cli.main(["report", "--primes", "2", "--golden", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("golden data error: cannot read golden file: 'utf-8' codec")


#: Past Python's int-string limit, json.loads raises a plain ValueError.
needs_int_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or not sys.get_int_max_str_digits(),
    reason="no int-string length limit")


@needs_int_limit
def test_golden_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    from quadric_moduli.report import load_golden
    golden = load_golden()
    golden["betti"]["euler"] = "HUGE"  # json.dumps cannot write the integer itself
    huge = "1" * (sys.get_int_max_str_digits() + 700)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden).replace('"HUGE"', huge), encoding="utf-8")
    assert cli.main(["betti", "--golden", str(path)]) == 2
    assert capsys.readouterr().err.startswith("golden data error: golden file is not valid JSON: ")


@needs_int_limit
def test_resolution_integer_past_the_digit_limit_exits_2(capsys):
    huge = "1" * (sys.get_int_max_str_digits() + 700)
    assert cli.main(["hilbert", f'{{"positions": [[[{huge}, 0]]]}}']) == 2
    assert capsys.readouterr().err.startswith("invalid resolution JSON: ")


def label_past_half_the_digit_limit() -> str:
    """A decimal integer within the int-string limit whose square is past it."""
    return "1" * (sys.get_int_max_str_digits() * 7 // 10)


def polynomial_past_the_digit_limit() -> str:
    """A resolution of one summand O(a, a) whose label is within the
    int-string limit, while its Hilbert polynomial's (a + 1)**2 is past it."""
    a = label_past_half_the_digit_limit()
    return f'{{"positions": [[[{a}, {a}]]]}}'


@needs_int_limit
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_resolution_polynomial_past_the_digit_limit_exits_2(capsys, flags):
    assert cli.main(["hilbert", polynomial_past_the_digit_limit(), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid resolution: Hilbert polynomial too large: ")
    assert not captured.out


@needs_int_limit
@pytest.mark.parametrize("argv", [["verify", "--primes", "2"], ["betti"]],
                         ids=["verify", "betti"])
@pytest.mark.parametrize("key,fields", [
    ("resolutions", {"positions": [[["A", "A"]]]}),
    ("combinations", {"coeffs": ["A", -2], "twists": [["A", "A"], [0, 0]]}),
    ("twists", {"start_coeffs": [[0, 0], [0, "A"]], "shift": ["A", "A"]}),
], ids=["resolutions", "combinations", "twists"])
def test_golden_resolution_polynomial_past_the_digit_limit_exits_2(
        tmp_path, capsys, key, fields, argv):
    # each integer A is within the int-string limit, the polynomial it gives is past it
    from quadric_moduli.report import load_golden
    golden = load_golden()
    golden["hilbert"][key][0].update(fields)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden).replace('"A"', label_past_half_the_digit_limit()),
                    encoding="utf-8")
    assert cli.main([*argv, "--golden", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"golden data error: golden hilbert {key}[0] has the wrong shape\n")


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


def test_hilbert_non_utf8_file_exits_2(tmp_path, capsys):
    spec_file = tmp_path / "bad.json"
    spec_file.write_bytes(b"\xff\xfe{")
    assert cli.main(["hilbert", str(spec_file)]) == 2
    assert capsys.readouterr().err.startswith("cannot read resolution file: 'utf-8' codec")


#: SHA-256 of the `hilbert --json` stdout of each resolution in the golden file.
HILBERT_JSON_DIGESTS = {
    "open_stratum_resolution":
        "659c52273be39ebe52dada04fb6cd708125408a36a3ec94ce77a6f2db2353a74",
    "curve_point_extension_resolution":
        "659c52273be39ebe52dada04fb6cd708125408a36a3ec94ce77a6f2db2353a74",
    "section_family_r0": "0607fe56d09589910773c2874ea52753585f1e52c565d164b000e87d2fdd561d",
    "section_family_r1": "9712710b62b32b9ddd8c874079917d527de2bc49c2d9e3717a73b6b5f617c2ef",
    "section_family_r2": "84ccc411c1e7e9df9e88f37896a86f933dedfb4c24d4e10c5c06c2a31362825f",
    "section_family_r3": "0436c021be0c69bc87d7e32849f27f8d6edb1e32366a857213285cf3537afe0a",
    "section_family_r4": "aa1b289eed1fb4b99a013aaa4d203662c81491864abdcc1ce5ca331b436eb522",
    "curve23_structure_sheaf":
        "78120c5550b97055064303ce0233f64e2ea4ca2d2bb5ce523c530eeb27a12d9c",
}


@pytest.mark.parametrize("entry_id", list(HILBERT_JSON_DIGESTS))
def test_hilbert_json_bytes_are_pinned(entry_id):
    from quadric_moduli.report import load_golden
    entry = next(e for e in load_golden()["hilbert"]["resolutions"] if e["id"] == entry_id)
    code, out, _ = run_main(["hilbert", json.dumps({"positions": entry["positions"]}), "--json"])
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == HILBERT_JSON_DIGESTS[entry_id]
    if entry_id == "open_stratum_resolution":
        assert json.loads(out)["coeffs"] == [[2, 2], [3, 0]]  # the trimmed grid


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
    # string hashing, and so the order of any set or dict built from strings,
    # follows the interpreter's hash seed
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    seed_0 = run_cli("report", "--primes", "2")
    monkeypatch.setenv("PYTHONHASHSEED", "12345")
    seed_12345 = run_cli("report", "--primes", "2")
    assert seed_0.returncode == seed_12345.returncode == 0
    assert seed_0.stdout == seed_12345.stdout


#: SHA-256 of the stdout of the three headline runs and the setup run
#: (betti --json) pinned by the benchmark, of the JSON report and of
#: verify-locus at every supported prime.
REPORT_DIGESTS = {
    ("betti", "--json"):
        "75b8e9a4b990c293350559acc1c9f7241fbf6073463c9e5b4eafa10479e6e761",
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
    # every multi-route row of SWEEP_ROUTES
    ("report", "--primes", "2,3,5,7", "--full-oracle"):
        "b8061a651355f3ffbc0a95859f1519d27fb2c3929e01b85fa871213d8e1ed080",
    ("verify-locus", "--prime", "2"):
        "8f6431004632c2a3e0fff6456620593523c95900f00e2aab9949b9be00c1964d",
    ("verify-locus", "--prime", "3"):
        "e1941d18976891197b5d69dd5f1430950ad716842890fe94c0dcdd6d5984a7a7",
    ("verify-locus", "--prime", "5"):
        "ca37664afc4a741afddb6ed469860d02b44ea39380f27f373ccd4e13d70d65cd",
    # raw_count/raw_ok on every plane
    ("verify-locus", "--prime", "2", "--full-oracle"):
        "7fa40fe4c5ad3bd7db06aa2acdf126f718f2610431a35a75b6ecca955d60204f",
    # raw_count/raw_ok on every plane
    ("verify-locus", "--prime", "3", "--full-oracle"):
        "f21088cf0a208816608236a4897b050ae9ab7a5ad200233ab7af54512ee23b32",
    # adds the fiber join at p = 5, whose counts the document carries
    ("verify-locus", "--prime", "5", "--full-oracle"):
        "4e4d6f3b718b6a91945078731943f870efbd185a779d696baef33e15021f8033",
    # adds the fiber join at p = 7, whose counts the kernel route's equal:
    # the same document as without it
    ("verify-locus", "--prime", "7", "--full-oracle"):
        "eab54445aa41a9b75ff19602dc8d92bd8e791a1309dc89b097c64e5b0caaab9a",
}
#: SHA-256 of the partial verify-locus --prime 3 --full-oracle document of
#: a route that raises on its second block: the same bytes for every route.
PARTIAL_LOCUS_DIGEST = "2e238e214f8f26310cfa45fb2a5c71b7a4ad1a390a24d0929fd467fc2a6dd087"
#: SHA-256 of the partial report and verify --primes 2,3 outputs, JSON and
#: human, of a join that raises on its second call, the one block at p = 3.
PARTIAL_REPORT_DIGESTS = {
    ("report", "--primes", "2,3"):
        "af8088720a85f0da699a9b0071029f083f9967e0fffe023133f4b3fe4b70693a",
    ("verify", "--primes", "2,3"):
        "9c803ad04ddd55f62bf1c820362c6f514966854fedf1d07a3e9a54d107faf7a7",
}


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS),
                         ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv))
def test_report_bytes_are_pinned(request, monkeypatch, argv):
    if "--full-oracle" in argv and "7" in argv[2].split(","):
        # the session's one unpatched p = 7 --full-oracle sweep, which both documents read
        shared, real = request.getfixturevalue("sweep7_full_oracle")[0], locus_module.sweep_locus
        monkeypatch.setattr(locus_module, "sweep_locus", lambda p, *, full_oracle=False: (
            shared if (p, full_oracle) == (7, True) else real(p, full_oracle=full_oracle)))
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

    monkeypatch.setattr(locus_module, "_join_counts", boom)
    out = tmp_path / "partial.json"
    code = cli.main(["verify", "--primes", "2", "--workers", "1", "--out", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["verdict"] is False
    assert "worker_failure" in report
    human = capsys.readouterr().out
    assert "worker failure" in human


def fail_from_call(monkeypatch, name: str, call: int) -> list:
    """Make the block count locus_module.<name>, which takes p first, raise
    from its call-th call on; returns the p of each call."""
    real, calls = getattr(locus_module, name), []

    def flaky(p, *args):
        calls.append(p)
        if len(calls) >= call:
            raise RuntimeError("injected")
        return real(p, *args)

    monkeypatch.setattr(locus_module, name, flaky)
    return calls


@pytest.mark.parametrize("name", ["_kernel_counts", "_join_counts", "raw_oracle_counts"])
def test_a_route_that_raises_drops_its_block_exit_3(monkeypatch, capsys, name):
    # at p = 3 with the raw oracle every route counts two blocks of 89 and
    # 41 planes; whichever route raises on the second, the first block stays
    p, routes = 3, ("enumerate", "kernel", "raw")
    with monkeypatch.context() as patch:
        fail_from_call(patch, name, 2)
        assert cli.main(["verify-locus", "--prime", "3", "--full-oracle"]) == 3
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["worker_failure"] == "worker failed on plane 89: injected"
    assert [fiber["plane_index"] for fiber in doc["fibers"]] == list(range(89))
    assert all(fiber["raw_ok"] is True for fiber in doc["fibers"])
    assert doc["summary"]["ok"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == PARTIAL_LOCUS_DIGEST
    bases = locus_module.plane_bases(p)
    kinds = locus_module.classify_planes(p, bases)[0]
    fail_from_call(monkeypatch, name, 2)
    rows, counts, failures, worker_failure = locus_module.count_planes(p, bases, kinds, routes)
    assert rows.tolist() == list(range(89)) and failures == []
    assert worker_failure == "worker failed on plane 89: injected"
    assert list(counts) == list(routes)
    assert all(column.dtype == np.int64 and len(column) == len(rows)
               for column in counts.values())


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_locus_worker_failure_exit_3(monkeypatch, capsys, workers):
    # at p = 5 with --full-oracle the join counts blocks of 20 planes; raising
    # on its sixth keeps the five blocks before it, whatever --workers says
    argv = ["verify-locus", "--prime", "5", "--full-oracle"]
    outs = []
    for extra in (("--workers", workers), ()):
        with monkeypatch.context() as patch:
            calls = fail_from_call(patch, "_join_counts", 6)
            assert cli.main([*argv, *extra]) == 3
        assert calls == [5] * 6
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["worker_failure"] == "worker failed on plane 100: injected"
    assert [fiber["plane_index"] for fiber in doc["fibers"]] == list(range(100))
    assert doc["summary"]["ok"] is False


def fail_kernel_route(monkeypatch):
    # at p = 7 only: the kernel route runs at every prime
    real = locus_module._ranks_mod_p

    def boom(stack, p):
        if p == 7:
            raise RuntimeError("injected")
        return real(stack, p)

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


def test_raw_oracle_failure_stops_the_run_exit_3(monkeypatch, capsys):
    calls = fail_from_call(monkeypatch, "raw_oracle_counts", 1)
    assert cli.main(["verify", "--primes", "2,3", "--full-oracle"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "worker failure: worker failed on plane 0: injected" in lines
    assert calls == [2] and not any(line.startswith("locus p=3") for line in lines)
    assert lines[-1] == "verdict: FAIL"


def test_raw_oracle_failure_in_a_later_block_keeps_earlier_blocks_exit_3(monkeypatch, capsys):
    # at p = 3 the raw oracle counts 89 planes a block
    calls = fail_from_call(monkeypatch, "raw_oracle_counts", 2)
    assert cli.main(["verify-locus", "--prime", "3", "--full-oracle"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert calls == [3, 3]
    assert doc["worker_failure"] == "worker failed on plane 89: injected"
    assert [fiber["plane_index"] for fiber in doc["fibers"]] == list(range(89))
    assert all(fiber["raw_ok"] is True for fiber in doc["fibers"])
    assert doc["summary"]["ok"] is False


@pytest.mark.parametrize("argv", list(PARTIAL_REPORT_DIGESTS),
                         ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv))
def test_partial_report_bytes_are_pinned(monkeypatch, capsys, argv):
    fail_from_call(monkeypatch, "_join_counts", 2)
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


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: the named method raises BrokenPipeError."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["verify-locus", "--prime", "7"], ["verify", "--primes", "2"], ["report", "--primes", "2"],
    ["betti"], ["hilbert", RES_OPEN_JSON],
], ids=["verify-locus", "verify", "report", "betti", "hilbert"])
def test_closed_stdout_exits_2(monkeypatch, capsys, argv, failing):
    # a write or the flush after the last write fails: every command reports it alike
    monkeypatch.setattr(sys, "stdout", ClosedPipe(failing))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_entry_point_exits_2_when_the_reader_closes_the_pipe():
    # the verify-locus document at p = 7 is 1.2 MB, far past a pipe's buffer
    child = subprocess.Popen([sys.executable, "-m", "quadric_moduli.cli", "verify-locus",
                              "--prime", "7"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(child.stdout.read(10)) == 10
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait() == 2  # not 120, a failed flush at exit
    assert err == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_verification_mismatch_exit_1(monkeypatch, capsys):
    real = locus_module._join_counts

    def wrong(*args):
        return real(*args) + 1

    monkeypatch.setattr(locus_module, "_join_counts", wrong)
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
    # stdout buffered, as it is by default: an unflushed byte is then a lost one
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    result = subprocess.run([sys.executable, "-m", "quadric_moduli.cli", *argv],
                            capture_output=True, env=env)
    return result.returncode, result.stdout, result.stderr


def command_id(argv) -> str:
    """A test id for a command line: its words, less dashes and inline JSON."""
    return "-".join(arg.lstrip("-") for arg in argv if not arg.startswith("{"))


#: Command lines whose console-script run must equal cli.main's, bytes and
#: exit code: each that test_reachable runs in-process, and three more.
ENTRY_POINT_COMMANDS = [
    pytest.param(["report", "--primes", "2,3"], 0, id="report"),
    pytest.param(["verify-locus", "--prime", "2"], 0, id="verify-locus"),
    pytest.param(["verify", "--primes", "2", "--golden", "OFF_BY_ONE"], 1, id="off-by-one-golden"),
    pytest.param(["verify", "--primes", "4"], 2, id="unsupported-prime"),
    *(pytest.param(argv, code, id=command_id(argv))
      for argv, code in REACHABLE_COMMANDS if argv != ["verify", "--primes", "4"]),
]


@pytest.mark.parametrize("argv,code", ENTRY_POINT_COMMANDS)
def test_entry_point_equals_main(tmp_path, argv, code):
    # the console script ends with os._exit, which drops whatever stdout still
    # buffers: every byte must have been flushed by then
    from quadric_moduli.report import load_golden
    golden = load_golden()
    golden["moduli_point_counts"]["values"]["2"] += 1
    off_by_one = tmp_path / "golden.json"
    off_by_one.write_text(json.dumps(golden), encoding="utf-8")
    argv = [str(off_by_one) if arg == "OFF_BY_ONE" else arg for arg in argv]
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


@pytest.mark.parametrize("argv", [
    ["verify-locus", "--prime", "2"],
    ["verify", "--primes", "2", "--full-oracle"],
    ["betti", "--json"],
    ["hilbert", RES_OPEN_JSON],
], ids=["verify-locus", "verify-full-oracle", "betti-json", "hilbert"])
def test_sweeps_import_no_dataclasses(argv):
    # no command imports dataclasses, fractions or decimal; in a child
    # process, since this one has them from the test helpers
    code = ("import sys\n"
            "from quadric_moduli import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "loaded = [m for m in ('dataclasses', 'fractions', 'decimal') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_entry_point_keeps_the_collector_off():
    # verify imports numpy inside main, and no collection may run during it.
    # The child counts collections in main and reports them from os._exit,
    # with which the entry point ends the process
    code = ("import gc, os, sys\n"
            "from quadric_moduli import cli\n"
            "sys.argv = ['qmoduli', 'verify', '--primes', '2']\n"
            "collections, main, exit = [], cli.main, os._exit\n"
            "def count(phase, info):\n"
            "    if phase == 'start':\n"
            "        collections.append(info['generation'])\n"
            "def counted_main():\n"
            "    gc.callbacks.append(count)\n"
            "    try:\n"
            "        return main()\n"
            "    finally:\n"
            "        gc.callbacks.remove(count)\n"
            "def reporting_exit(status):\n"
            "    sys.stderr.write(f'exit {status}, collections {collections}')\n"
            "    sys.stderr.flush()\n"
            "    exit(status)\n"
            "cli.main, os._exit = counted_main, reporting_exit\n"
            "cli.entrypoint()\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "exit 0, collections []")
    assert result.stdout.endswith("verdict: PASS\n")


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
