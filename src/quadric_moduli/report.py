"""Verification runs and machine-readable reports.

A report bundles the Betti-polynomial check, the Hilbert-polynomial
battery, and the per-prime determinant-locus sweeps with their
cross-checks against the Betti polynomial.  Golden values live in a
versioned JSON data file; every entry carries an "origin" field telling
whether it is an externally stated reference value or one derived by an
independent in-repo computation.  Reports contain nothing run-dependent,
so identical configurations produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .betti import eval_at, poincare_moduli
from .hilbert import (
    BiPoly, ResolutionSpec, euler_char, genus, hilb_combination, hilb_line, hilb_resolution,
    twist,
)
from .locus import (
    SUPPORTED_PRIMES, LocusSweep, WorkerFailure, stratified_moduli_count, sweep_locus,
)


class GoldenError(ValueError):
    """The golden data file is missing, unreadable, or malformed."""


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a verification run."""

    primes: tuple[int, ...]
    workers: int = 1
    full_oracle: bool = False
    output_path: str | None = None

    def __post_init__(self):
        bad = [p for p in self.primes if p not in SUPPORTED_PRIMES]
        if bad:
            raise ValueError(f"unsupported primes {bad}; supported: {SUPPORTED_PRIMES}")
        if not self.primes:
            raise ValueError("at least one prime is required")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"repeated primes in {list(self.primes)}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def load_golden(path: str | None = None) -> dict:
    """Load and minimally validate the golden-value file."""
    try:
        if path is None:
            text = resources.files("quadric_moduli.data").joinpath("golden.json").read_text()
        else:
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
        # `type(...) is int` rejects JSON booleans, which isinstance accepts
        if (not isinstance(betti["coeffs_desc"], list)
                or not all(type(c) is int for c in betti["coeffs_desc"])
                or type(betti["euler"]) is not int
                or type(betti["degree"]) is not int
                or not isinstance(betti["origin"], str)):
            raise GoldenError("golden betti section has the wrong shape")
        for key in ("resolutions", "combinations", "twists"):
            if not isinstance(data["hilbert"][key], list):
                raise GoldenError(f"golden hilbert {key} must be a list")
        for section in ("moduli_point_counts", "detzero_totals"):
            values = data[section]["values"]
            # a key such as "02" would never match the str(p) lookup
            if not (isinstance(values, dict)
                    and all(key.isdecimal() and str(int(key)) == key and type(v) is int
                            for key, v in values.items())):
                raise GoldenError(f"golden {section} values must map primes to integers")
    except (KeyError, TypeError) as exc:
        raise GoldenError(f"golden file is missing required entries: {exc}") from exc
    return data


def to_json_text(obj) -> str:
    """Canonical JSON rendering used for all machine output."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- sections ---------------------------------------------------------------


def betti_section(golden: dict) -> dict:
    computed = poincare_moduli()
    coeffs_desc = [computed.coeff(k) for k in range(computed.degree, -1, -1)]
    euler = eval_at(computed, 1)
    expected = golden["betti"]
    ok = (coeffs_desc == expected["coeffs_desc"]
          and euler == expected["euler"]
          and computed.degree == expected["degree"])
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
    """Per-prime summary: the sweep verdict plus the cross-route equality
    between the stratified point count and the Betti-polynomial value."""
    p = sweep.p
    moduli_count = stratified_moduli_count(p, sweep.x_count)
    poincare_eval = eval_at(poincare_moduli(), p)
    failures = list(sweep.failures)
    if moduli_count != poincare_eval:
        failures.append(
            f"stratified count {moduli_count} != polynomial value {poincare_eval}")
    golden_x = golden["detzero_totals"]["values"].get(str(p))
    if golden_x is not None and sweep.x_count != golden_x:
        failures.append(f"det-zero total {sweep.x_count} != golden {golden_x}")
    golden_m = golden["moduli_point_counts"]["values"].get(str(p))
    if golden_m is not None and moduli_count != golden_m:
        failures.append(f"moduli count {moduli_count} != golden {golden_m}")
    return {
        "prime": p,
        "method": sweep.method,
        "plane_tallies": dict(sorted(sweep.tallies.items())),
        "X_count": sweep.x_count,
        "expected": sweep.expected_x,
        "moduli_count": moduli_count,
        "poincare_eval": poincare_eval,
        "failures": failures,
        "ok": not failures,
    }


def build_report(config: RunConfig, golden: dict) -> dict:
    """Full verification report.  A worker failure is recorded in the
    report (key "worker_failure") together with everything completed up to
    that point; mismatches only flip the verdict."""
    report = {
        "tool": "quadric-moduli",
        "config": {
            "primes": list(config.primes),
            "workers": config.workers,
            "full_oracle": config.full_oracle,
        },
        "betti": betti_section(golden),
        "hilbert": hilbert_section(golden),
        "locus": [],
    }
    worker_failure = None
    for p in config.primes:
        try:
            sweep = sweep_locus(p, workers=config.workers, full_oracle=config.full_oracle)
        except WorkerFailure as failure:
            worker_failure = str(failure)
            summary = locus_summary(failure.partial, golden)
            summary["worker_failure"] = worker_failure
            report["locus"].append(summary)
            break
        report["locus"].append(locus_summary(sweep, golden))
    sections_ok = (report["betti"]["ok"] and report["hilbert"]["ok"]
                   and all(s["ok"] for s in report["locus"])
                   and len(report["locus"]) == len(config.primes))
    if worker_failure is not None:
        report["worker_failure"] = worker_failure
        sections_ok = False
    report["verdict"] = sections_ok
    return report
