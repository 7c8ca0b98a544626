"""Command-line interface.

Subcommands: betti | hilbert | verify-locus | verify | report.
Exit codes are total: 0 success, 1 verification mismatch (the report is
written and its verdict is FAIL), 2 invalid input or environment, 3 a
count raised (the sweep stopped there; the partial report is still
written, with the planes that every route of the prime counted).  A
sweep records every mismatch, a plane that breaks a precondition of the
counts included, and raises only for invalid input.  Machine output is
canonical JSON (sorted keys, indent 2); identical configurations produce
byte-identical reports.  --workers is parsed and range-checked for
compatibility, and changes nothing.  report prints the JSON report, and
verify --out writes the same bytes beside verify's summary.  The
verify-locus document is streamed in blocks of fibers written from the
sweep's columns, in that same canonical form, and is never held whole.
Each subcommand imports only what it runs: betti and hilbert need the
closed formulas of betti and the Hilbert arithmetic alone, and never
load numpy or the sweep engine (locus), which verify-locus, verify and
report import when they start a sweep.  The CLI pins BLAS to one thread:
it sets OPENBLAS_NUM_THREADS before anything imports numpy.  Every stdout
write goes through _emit, so a closed pipe exits 2 as a bad --out does.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# every count is integer arithmetic: one BLAS thread, not one spinning per core
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .betti import SUPPORTED_PRIMES
from .hilbert import euler_char, genus, hilb_resolution, resolution_from_json
from .report import (
    GoldenError, betti_section, build_report, load_golden, locus_document_chunks, locus_summary,
    to_json_text,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_WORKER = 3


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _emit(chunks, out_path: str | None):
    """Write an iterable of text chunks to out_path, or to stdout without one,
    and flush.  Each chunk is written as it is rendered, so a document is never
    held whole; rendering cannot fail once the first chunk is out, only I/O
    can, and a failed write, a closed pipe included, raises ValueError."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        raise ValueError(f"cannot write output{' file' if out_path else ''}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmoduli",
        description="Exact verification of the genus-2 sheaf moduli on the quadric "
                    "surface: Betti numbers, Hilbert polynomials, determinant-locus "
                    "sweeps over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="Poincare polynomial of the moduli space")
    p_betti.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_betti.add_argument("--golden", metavar="PATH", help="alternate golden-value file")
    p_betti.set_defaults(run=cmd_betti)

    p_hilb = sub.add_parser("hilbert", help="Hilbert polynomial of a resolution")
    p_hilb.add_argument("resolution", metavar="SPEC",
                        help='resolution JSON ({"positions": [[[a, b], ...], ...]}), '
                             "inline or a file path")
    p_hilb.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_hilb.set_defaults(run=cmd_hilbert)

    def add_sweep_args(p):
        p.add_argument("--full-oracle", action="store_true",
                       help="count by each prime's --full-oracle row of betti.SWEEP_ROUTES")
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="accepted for compatibility; must be at least 1 and "
                            "has no other effect (every sweep runs in one process)")
        p.add_argument("--out", metavar="PATH", help="write the JSON document here")
        p.add_argument("--golden", metavar="PATH", help="alternate golden-value file")

    p_locus = sub.add_parser("verify-locus",
                             help="determinant-locus sweep over one prime (JSON output)")
    p_locus.add_argument("--prime", type=int, required=True, metavar="P",
                         help=f"one of {SUPPORTED_PRIMES}")
    add_sweep_args(p_locus)
    p_locus.set_defaults(run=cmd_verify_locus)

    p_verify = sub.add_parser("verify", help="run every check and print a summary")
    p_report = sub.add_parser("report", help="run every check and emit the JSON report")
    for p, json_only in ((p_verify, False), (p_report, True)):
        p.add_argument("--primes", default="2,3", metavar="LIST",
                       help="comma-separated primes (default: 2,3)")
        add_sweep_args(p)
        p.set_defaults(run=_run_report, json=json_only)

    return parser


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"cannot parse primes list {text!r}") from exc
    bad = [p for p in primes if p not in SUPPORTED_PRIMES]
    if bad:
        raise ValueError(f"unsupported primes {bad}; supported: {SUPPORTED_PRIMES}")
    if not primes:
        raise ValueError("at least one prime is required")
    if len(set(primes)) != len(primes):
        raise ValueError(f"repeated primes in {list(primes)}")
    return primes


def cmd_betti(args) -> int:
    golden = load_golden(args.golden)
    section = betti_section(golden)
    if args.json:
        _emit([to_json_text(section)], None)
    else:
        coeffs = " ".join(str(c) for c in section["coeffs"])
        _emit([f"coefficients (degree {section['degree']} -> 0): {coeffs}\n"
               f"euler characteristic: {section['euler']}\n"
               f"golden match: {_status(section['ok'])}\n"], None)
    return EXIT_OK if section["ok"] else EXIT_MISMATCH


def cmd_hilbert(args) -> int:
    text = args.resolution
    if not text.lstrip().startswith(("{", "[")):
        try:
            with open(text, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read resolution file: {exc}", file=sys.stderr)
            return EXIT_INVALID
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"invalid resolution JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:  # an int past the int-string limit
        print(f"invalid resolution JSON: {exc}", file=sys.stderr)
        return EXIT_INVALID
    poly = hilb_resolution(resolution_from_json(data))
    try:
        doc = poly.to_json()
    except ValueError as exc:  # a coefficient past the int-string limit
        print(f"invalid resolution: Hilbert polynomial too large: {exc}", file=sys.stderr)
        return EXIT_INVALID
    doc["chi"] = chi = euler_char(poly)
    doc["genus_if_structure_sheaf"] = g = genus(poly)
    if args.json:
        _emit([to_json_text(doc)], None)
    else:
        _emit([f"P = {poly}\nchi = {chi}\ngenus (if a structure sheaf) = {g}\n"], None)
    return EXIT_OK


def cmd_verify_locus(args) -> int:
    from .locus import sweep_locus

    golden = load_golden(args.golden)
    sweep = sweep_locus(args.prime, full_oracle=args.full_oracle)
    summary = locus_summary(sweep, golden)
    _emit(locus_document_chunks(sweep, summary), args.out)
    if sweep.worker_failure is not None:
        return EXIT_WORKER
    return EXIT_OK if summary["ok"] else EXIT_MISMATCH


def _human_report(report: dict) -> str:
    def row(label: str, detail: str, ok: bool) -> str:
        return f"{label:<12} {detail:<48} {_status(ok)}"

    lines = []
    b = report["betti"]
    lines.append(row("betti", f"degree {b['degree']}, euler {b['euler']}", b["ok"]))
    h = report["hilbert"]
    lines.append(row("hilbert", f"{len(h['checks'])} polynomial checks", h["ok"]))
    for s in report["locus"]:
        detail = (f"X={s['X_count']}/{s['expected']}, "
                  f"count={s['moduli_count']}, poly={s['poincare_eval']}")
        lines.append(row(f"locus p={s['prime']}", detail, s["ok"]))
        for failure in s["failures"]:
            lines.append(f"{'':<13}! {failure}")
    if "worker_failure" in report:
        lines.append(f"worker failure: {report['worker_failure']}")
    lines.append(f"verdict: {_status(report['verdict'])}")
    return "\n".join(lines) + "\n"


def _run_report(args) -> int:
    primes = _parse_primes(args.primes)
    golden = load_golden(args.golden)
    report = build_report(primes, golden, full_oracle=args.full_oracle)
    if args.out or args.json:
        _emit([to_json_text(report)], args.out)
    if not args.json:
        _emit([_human_report(report)], None)
    if "worker_failure" in report:
        return EXIT_WORKER
    return EXIT_OK if report["verdict"] else EXIT_MISMATCH


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:  # only the sweep commands take --workers
            raise ValueError("workers must be >= 1")
        return args.run(args)
    except GoldenError as exc:
        print(f"golden data error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # the exit-code contract is total
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint():
    """The qmoduli console script, also run by python -m quadric_moduli.cli."""
    # a run builds no reference cycles, so the collector stays off for it; main
    # has flushed its output, so the process ends with os._exit, skipping the
    # collections and the final flush of the interpreter's teardown
    gc.disable()
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
