"""Verification runs and machine-readable reports.

A report bundles the Betti-polynomial check, the Hilbert-polynomial
battery, and the per-prime determinant-locus sweeps with the stratified
point counts they give.  Golden values live in a versioned JSON data
file; every entry carries an "origin" field telling whether it is an
externally stated reference value or one derived by an independent
in-repo computation.  Reports contain nothing run-dependent, so
identical configurations produce byte-identical output.  The verify-locus
document, one fiber per plane, is rendered as a stream of chunks, one
fixed block of fibers each, so that its size never sets the memory its
rendering takes.
"""

from __future__ import annotations

import json
import os
import re

from .betti import SUPPORTED_PRIMES, eval_at, poincare_moduli, stratified_moduli_count
from .hilbert import (
    BiPoly, ResolutionSpec, euler_char, genus, hilb_combination, hilb_line, hilb_resolution,
    twist,
)

TYPE_CHECKING = False  # type checkers read it as True; importing typing costs start-up
if TYPE_CHECKING:
    from .locus import LocusSweep  # locus loads numpy: the sweeps import it when they run


class GoldenError(ValueError):
    """The golden data file is missing, unreadable, or malformed."""


def _is_int(value) -> bool:
    return type(value) is int  # rejects JSON booleans, which isinstance accepts


def _is_coefficient(value) -> bool:
    """An exact coefficient as BiPoly.to_json writes it: an int or a "num/den" string."""
    return _is_int(value) or (isinstance(value, str)
                              and re.fullmatch(r"-?\d+/\d*[1-9]\d*", value) is not None)


def _list_of(check, length=None):
    return lambda value: (isinstance(value, list) and length in (None, len(value))
                          and all(map(check, value)))


def _is_resolution(value) -> bool:
    try:
        return bool(ResolutionSpec.from_json({"positions": value}))
    except ValueError:
        return False


_COEFFS, _PAIR = _list_of(_is_coefficient), _list_of(_is_int, 2)
_GRID = _list_of(_COEFFS)
#: The keys of an entry of each golden hilbert list, besides the strings
#: "id" and "origin", with a check of each value.
_HILBERT_ENTRY_CHECKS = {
    "resolutions": {"positions": _is_resolution, "expected_coeffs": _GRID, "chi": _is_int,
                    "genus": _is_int},
    "combinations": {"coeffs": _COEFFS, "twists": _list_of(_PAIR), "extra_coeffs": _GRID,
                     "expected_coeffs": _GRID, "equals_line_bundle": _PAIR},
    "twists": {"start_coeffs": _GRID, "shift": _PAIR, "expected_coeffs": _GRID},
}
#: Hilbert entry keys that may be absent.
_OPTIONAL_HILBERT_KEYS = ("genus", "equals_line_bundle")


def load_golden(path: str | None = None) -> dict:
    """Load the golden-value file and check the shape of every entry it reads."""
    try:
        if path is None:  # by path: importlib.resources would import zipfile and tempfile
            path = os.path.join(os.path.dirname(__file__), "data", "golden.json")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise GoldenError(f"cannot read golden file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GoldenError(f"golden file is not valid JSON: {exc}") from exc
    try:
        betti = data["betti"]
        if (not _list_of(_is_int)(betti["coeffs_desc"])
                or not _is_int(betti["euler"])
                or not _is_int(betti["degree"])
                or not isinstance(betti["origin"], str)):
            raise GoldenError("golden betti section has the wrong shape")
        for key, checks in _HILBERT_ENTRY_CHECKS.items():
            entries = data["hilbert"][key]
            if not isinstance(entries, list):
                raise GoldenError(f"golden hilbert {key} must be a list")
            for index, entry in enumerate(entries):
                # a missing required key raises KeyError, reported below
                if not (isinstance(entry, dict)
                        and all(isinstance(entry[name], str) for name in ("id", "origin"))
                        and all(check(entry[name]) for name, check in checks.items()
                                if name in entry or name not in _OPTIONAL_HILBERT_KEYS)):
                    raise GoldenError(f"golden hilbert {key}[{index}] has the wrong shape")
                if key == "combinations" and len(entry["coeffs"]) != len(entry["twists"]):
                    raise GoldenError(f"golden hilbert {key}[{index}] needs one coeff per twist")
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
    """Canonical JSON rendering used for all machine output (the verify-locus
    fiber list is written in the same form by locus_document_chunks)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# A fiber as to_json_text renders it in the verify-locus document, by kind.
_BASIS_ROW = '          [\n' + ',\n'.join(['            %s'] * 4) + '\n          ]'
_FIBER_HEAD = ('    {\n      "detzero_count": %s,\n      "expected": %s,\n      "ok": %s,\n'
               '      "plane": {\n        "basis": [\n' + _BASIS_ROW + ',\n' + _BASIS_ROW
               + '\n        ],\n        "p": %s\n      },\n      "plane_index": %s,\n'
               '      "plane_type": {\n        "kind": "%s",\n')
_GENERIC_FIBER = _FIBER_HEAD + '        "rank1_lines": %s\n      }'
_SHARED_FIBER = (_FIBER_HEAD + '        "shared_point": [\n          %s,\n          %s\n'
                 '        ]\n      }')
_RAW_TAIL = ',\n      "raw_count": %s,\n      "raw_ok": %s'
#: Fibers rendered per chunk: the render holds one block, never the document.
FIBER_BLOCK = 256


def locus_document_chunks(sweep: LocusSweep, summary: dict):
    """Yield to_json_text of a verify-locus document in pieces: the canonical
    text up to the fiber list, the fibers in blocks of FIBER_BLOCK written
    from slices of the sweep's columns, then the rest of the document."""
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
    raw_tails = {row: _RAW_TAIL % (sweep.raw_counts[row], str(ok).lower())
                 for row, ok in sweep.raw_ok().items()}
    expected_counts = sweep.expected_counts
    for start in range(0, len(sweep.plane_index), FIBER_BLOCK):
        block = slice(start, start + FIBER_BLOCK)
        fibers = []
        for row, (index, basis, kind, lines, point, count, expected) in enumerate(zip(
                sweep.plane_index[block].tolist(), sweep.bases[block].reshape(-1, 8).tolist(),
                sweep.kinds[block].tolist(), sweep.rank1_lines[block].tolist(),
                sweep.shared_points[block].tolist(), sweep.detzero_counts[block].tolist(),
                expected_counts[block].tolist()), start):
            head = (count, expected, str(count == expected).lower(), *basis, sweep.p, index,
                    KINDS[kind])
            fiber = (_GENERIC_FIBER % (*head, lines) if KINDS[kind] == GENERIC
                     else _SHARED_FIBER % (*head, *point))
            fibers.append(fiber + raw_tails.get(row, "") + "\n    }")
        yield (",\n" if start else "\n") + ",\n".join(fibers)
    yield "\n  ]" + closing


# -- sections ---------------------------------------------------------------


def betti_section(golden: dict) -> dict:
    computed = poincare_moduli()
    coeffs_desc = [computed.coeff(k) for k in range(computed.degree, -1, -1)]
    euler = eval_at(computed, 1)
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


def hilbert_section(golden: dict) -> dict:
    checks = []
    for entry in golden["hilbert"]["resolutions"]:
        spec = ResolutionSpec.from_json({"positions": entry["positions"]})
        computed = hilb_resolution(spec)
        expected = BiPoly.from_json({"coeffs": entry["expected_coeffs"]})
        ok = computed == expected and euler_char(computed) == entry["chi"]
        check = {
            "id": entry["id"],
            "origin": entry["origin"],
            "poly": str(computed),
            "chi": euler_char(computed),
            "expected_poly": str(expected),
            "ok": ok,
        }
        if "genus" in entry:
            check["genus"] = genus(computed)
            check["ok"] = ok and genus(computed) == entry["genus"]
        checks.append(check)
    for entry in golden["hilbert"]["combinations"]:
        extra = BiPoly.from_json({"coeffs": entry["extra_coeffs"]})
        computed = hilb_combination(entry["coeffs"], [tuple(t) for t in entry["twists"]], extra)
        expected = BiPoly.from_json({"coeffs": entry["expected_coeffs"]})
        ok = computed == expected
        if "equals_line_bundle" in entry:
            a, b = entry["equals_line_bundle"]
            ok = ok and computed == hilb_line(a, b)
        checks.append({"id": entry["id"], "origin": entry["origin"],
                       "poly": str(computed), "expected_poly": str(expected), "ok": ok})
    for entry in golden["hilbert"]["twists"]:
        start = BiPoly.from_json({"coeffs": entry["start_coeffs"]})
        a, b = entry["shift"]
        computed = twist(start, a, b)
        expected = BiPoly.from_json({"coeffs": entry["expected_coeffs"]})
        checks.append({"id": entry["id"], "origin": entry["origin"],
                       "poly": str(computed), "expected_poly": str(expected),
                       "ok": computed == expected})
    return {"checks": checks, "ok": all(c["ok"] for c in checks)}


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
        "poincare_eval": eval_at(poincare_moduli(), p),
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
