"""Verification runs and machine-readable reports.

A report bundles the Betti-polynomial check, the Hilbert-polynomial
battery, and the per-prime determinant-locus sweeps with the stratified
point counts they give.  Golden values live in a versioned JSON data
file; every entry carries an "origin": an externally stated "reference"
value or one "derived" by an independent in-repo computation.  Its
Hilbert entries have one reader, hilbert_section, which load_golden runs
too.  Reports hold nothing run-dependent, so identical configurations
give byte-identical output.  The verify-locus document is streamed in
blocks of fibers, so its size never sets the memory its rendering takes.
"""

from __future__ import annotations

import json
import os

from .betti import SUPPORTED_PRIMES, poincare_moduli, stratified_moduli_count
from .hilbert import (
    BiPoly, euler_char, genus, hilb_combination, hilb_line, hilb_resolution, int_list,
    resolution_from_json, twist,
)

TYPE_CHECKING = False  # type checkers read it as True; importing typing costs start-up
if TYPE_CHECKING:
    from .locus import LocusSweep  # locus loads numpy: the sweeps import it when they run


class GoldenError(ValueError):
    """The golden data file is missing, unreadable, or malformed."""


def _is_int(value) -> bool:
    return type(value) is int  # rejects JSON booleans, which isinstance accepts


def load_golden(path: str | None = None) -> dict:
    """Load the golden-value file; check each entry, the Hilbert ones by computing them."""
    try:
        if path is None:  # by path: importlib.resources would import zipfile and tempfile
            path = os.path.join(os.path.dirname(__file__), "data", "golden.json")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GoldenError(f"cannot read golden file: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the int-string limit
        raise GoldenError(f"golden file is not valid JSON: {exc}") from exc
    try:
        betti = data["betti"]
        if (not isinstance(betti["coeffs_desc"], list)
                or not all(map(_is_int, [*betti["coeffs_desc"], betti["euler"], betti["degree"]]))
                or not isinstance(betti["origin"], str)):
            raise GoldenError("golden betti section has the wrong shape")
        hilbert_section(data)
        values = data["moduli_point_counts"]["values"]
        # locus_summary checks the count at every supported prime, and reads no other
        if (not isinstance(values, dict) or set(values) != {str(p) for p in SUPPORTED_PRIMES}
                or not all(map(_is_int, values.values()))):
            raise GoldenError("golden moduli_point_counts must map exactly the primes "
                              f"{SUPPORTED_PRIMES} to integers")
    except (KeyError, TypeError) as exc:
        raise GoldenError(f"golden file is missing required entries: {exc}") from exc
    return data


def to_json_text(obj) -> str:
    """Canonical JSON rendering used for all machine output; it renders the
    fiber templates of the verify-locus document (locus_document_chunks) too."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


#: Fibers rendered per chunk: the render holds one block, never the document.
FIBER_BLOCK = 64


def locus_document_chunks(sweep: LocusSweep, summary: dict):
    """Yield to_json_text of a verify-locus document in pieces: the canonical
    text up to the fiber list, the fibers in blocks of FIBER_BLOCK written
    from slices of the sweep's columns, then the rest of the document.  Each
    kind's fiber template is to_json_text of one fiber whose values are "%s",
    cut to the fiber's text and led by a "%s" for its separator, so each
    fiber is one % of its kind's template, and each block is joined once."""
    from .locus import GENERIC, KINDS
    doc = {"fibers": [], "prime": sweep.p, "summary": summary,
           "worker_failure": sweep.worker_failure}
    text = to_json_text({key: value for key, value in doc.items() if value is not None})
    if not len(sweep.plane_index):
        yield text
        return
    # "fibers" sorts first, so its [] is the first in the text
    opening, closing = text.split("[]", 1)
    yield opening + "["
    expected, raw, raw_ok = sweep.expected_counts, sweep.raw_counts, sweep.raw_ok
    templates = []
    for kind in KINDS:  # indexed by kind code
        fiber = {"detzero_count": "%s", "expected": "%s", "ok": "%s",
                 "plane": {"basis": [["%s"] * 4] * 2, "p": sweep.p}, "plane_index": "%s",
                 "plane_type": {"kind": kind, "rank1_lines": "%s"} if kind == GENERIC
                 else {"kind": kind, "shared_point": ["%s"] * 2}}
        if raw is not None:
            fiber.update(raw_count="%s", raw_ok="%s")
        fiber_text = to_json_text({"fibers": [fiber]}).replace('"%s"', "%s")
        templates.append("%s" + fiber_text[fiber_text.index("[") + 2:fiber_text.rindex("]") - 3])
    for start in range(0, len(sweep.plane_index), FIBER_BLOCK):
        block = slice(start, start + FIBER_BLOCK)
        tails = ([()] * FIBER_BLOCK if raw is None else  # zip stops at the block's end
                 zip(raw[block].tolist(), map(str.lower, map(str, raw_ok[block].tolist()))))
        fibers = []
        for row, (index, basis, kind, lines, point, count, wanted, tail) in enumerate(zip(
                sweep.plane_index[block].tolist(), sweep.bases[block].reshape(-1, 8).tolist(),
                sweep.kinds[block].tolist(), sweep.rank1_lines[block].tolist(),
                sweep.shared_points[block].tolist(), sweep.detzero_counts[block].tolist(),
                expected[block].tolist(), tails), start):
            fibers.append(templates[kind] % (
                ",\n" if row else "\n", count, wanted, str(count == wanted).lower(), *basis,
                index, *((lines,) if KINDS[kind] == GENERIC else point), *tail))
        yield "".join(fibers)
    yield "\n  ]" + closing


# -- sections ---------------------------------------------------------------


def betti_section(golden: dict) -> dict:
    computed = poincare_moduli()
    coeffs_desc = [computed.coeff(k) for k in range(computed.degree, -1, -1)]
    euler = computed.eval(1)
    expected = golden["betti"]
    # Poincare duality and hard Lefschetz on a smooth projective variety: the
    # Betti list reads the same both ways and does not fall up to the middle
    rising = coeffs_desc[:len(coeffs_desc) // 2 + 1]
    ok = (coeffs_desc == expected["coeffs_desc"]
          and euler == expected["euler"]
          and computed.degree == expected["degree"]
          and coeffs_desc == coeffs_desc[::-1]
          and all(a <= b for a, b in zip(rising, rising[1:])))
    return {
        "coeffs": coeffs_desc,
        "degree": computed.degree,
        "euler": euler,
        "expected": {"coeffs": expected["coeffs_desc"], "euler": expected["euler"],
                     "degree": expected["degree"], "origin": expected["origin"]},
        "ok": ok,
    }


def _resolution_check(entry: dict) -> dict:
    computed = hilb_resolution(resolution_from_json({"positions": entry["positions"]}))
    expected = BiPoly.from_json({"coeffs": entry["expected_coeffs"]})
    check = {"poly": str(computed), "chi": euler_char(computed), "expected_poly": str(expected),
             "ok": int_list([entry["chi"]]) == [euler_char(computed)] and computed == expected}
    if "genus" in entry:
        check["genus"] = genus(computed)
        check["ok"] = int_list([entry["genus"]]) == [genus(computed)] and check["ok"]
    return check


def _combination_check(entry: dict) -> dict:
    if not isinstance(entry["twists"], list):  # {} or "" would read as no twists
        raise ValueError("twists must be a list")
    extra = BiPoly.from_json({"coeffs": entry["extra_coeffs"]})
    twists = [int_list(t, 2) for t in entry["twists"]]
    computed = hilb_combination(int_list(entry["coeffs"]), twists, extra)
    expected = BiPoly.from_json({"coeffs": entry["expected_coeffs"]})
    ok = computed == expected
    if "equals_line_bundle" in entry:
        ok = computed == hilb_line(*int_list(entry["equals_line_bundle"], 2)) and ok
    return {"poly": str(computed), "expected_poly": str(expected), "ok": ok}


def _twist_check(entry: dict) -> dict:
    start = BiPoly.from_json({"coeffs": entry["start_coeffs"]})
    computed = twist(start, *int_list(entry["shift"], 2))
    expected = BiPoly.from_json({"coeffs": entry["expected_coeffs"]})
    return {"poly": str(computed), "expected_poly": str(expected), "ok": computed == expected}


def hilbert_section(golden: dict) -> dict:
    """The checks of the golden hilbert lists, which only this function reads.
    An entry it cannot compute, or whose polynomials cannot be written within
    the int-string limit, raises GoldenError, so load_golden runs it too."""
    checks = []
    for key, read in (("resolutions", _resolution_check), ("combinations", _combination_check),
                      ("twists", _twist_check)):
        entries = golden["hilbert"][key]
        if not isinstance(entries, list):
            raise GoldenError(f"golden hilbert {key} must be a list")
        for index, entry in enumerate(entries):
            try:
                if not (isinstance(entry["id"], str) and isinstance(entry["origin"], str)):
                    raise ValueError("id and origin must be strings")
                checks.append({"id": entry["id"], "origin": entry["origin"], **read(entry)})
            except (KeyError, TypeError, ValueError) as exc:
                raise GoldenError(f"golden hilbert {key}[{index}] has the wrong shape") from exc
    return {"checks": checks, "ok": all(check["ok"] for check in checks)}


def locus_summary(sweep: LocusSweep, golden: dict) -> dict:
    """Per-prime summary: the sweep verdict plus the stratified point count, checked
    against the golden count.  poincare_eval is only reported: the count minus it is
    the sweep's expected X minus its X, which the sweep checks."""
    p = sweep.p
    moduli_count = stratified_moduli_count(p, sweep.x_count)
    failures = list(sweep.failures)
    golden_m = golden["moduli_point_counts"]["values"][str(p)]
    if moduli_count != golden_m:
        failures.append(f"moduli count {moduli_count} != golden {golden_m}")
    return {
        "prime": p,
        "method": sweep.method,
        "plane_tallies": dict(sorted(sweep.tallies.items())),
        "X_count": sweep.x_count,
        "expected": sweep.expected_x,
        "moduli_count": moduli_count,
        "poincare_eval": poincare_moduli().eval(p),
        "failures": failures,
        "ok": not failures,
    }


def build_report(primes, golden: dict, *, full_oracle: bool = False) -> dict:
    """Full verification report, one locus entry per prime in the given
    order.  Mismatches only flip the verdict.  A sweep that stops partway
    (LocusSweep.worker_failure) ends the run: its partial summary is the
    last locus entry, and its message is recorded there and at the top
    level under "worker_failure"."""
    from .locus import sweep_locus
    report = {
        "tool": "quadric-moduli",
        "config": {
            "primes": list(primes),
            "full_oracle": full_oracle,
        },
        "betti": betti_section(golden),
        "hilbert": hilbert_section(golden),
        "locus": [],
    }
    for p in primes:
        sweep = sweep_locus(p, full_oracle=full_oracle)
        summary = locus_summary(sweep, golden)
        report["locus"].append(summary)
        if sweep.worker_failure is not None:
            summary["worker_failure"] = report["worker_failure"] = sweep.worker_failure
            break
    # a partial sweep lists its worker_failure among its failures, so it fails here too
    report["verdict"] = (report["betti"]["ok"] and report["hilbert"]["ok"]
                         and all(s["ok"] for s in report["locus"]))
    return report
