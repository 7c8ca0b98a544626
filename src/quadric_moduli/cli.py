"""Command-line interface.

Subcommands: betti | hilbert | verify-locus | verify | report.
Exit codes are total: 0 success, 1 verification mismatch, 2 invalid
input or environment, 3 worker failure (a partial report is still
written).  Machine output is canonical JSON (sorted keys); identical
configurations produce byte-identical reports, for any --workers.
"""

from __future__ import annotations

import argparse
import json
import sys

from .hilbert import ResolutionSpec, euler_char, genus, hilb_resolution
from .locus import SUPPORTED_PRIMES, VerificationError, WorkerFailure, sweep_locus
from .report import (
    GoldenError, RunConfig, betti_section, build_report, load_golden, locus_summary,
    to_json_text,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_WORKER = 3


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


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

    p_hilb = sub.add_parser("hilbert", help="Hilbert polynomial of a resolution")
    p_hilb.add_argument("resolution", metavar="SPEC",
                        help='resolution JSON ({"positions": [[[a, b], ...], ...]}), '
                             "inline or a file path")
    p_hilb.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_locus = sub.add_parser("verify-locus",
                             help="determinant-locus sweep over one prime (JSON output)")
    p_locus.add_argument("--prime", type=int, required=True, metavar="P",
                         help=f"one of {SUPPORTED_PRIMES}")
    p_locus.add_argument("--full-oracle", action="store_true",
                         help="also run the raw pair sweeps (p = 2, 3) and full "
                              "fiber enumeration at p = 5")
    p_locus.add_argument("--workers", type=int, default=1, metavar="N",
                         help="accepted for compatibility; has no effect "
                              "(every sweep runs in one process)")
    p_locus.add_argument("--out", metavar="PATH", help="write the JSON here instead of stdout")
    p_locus.add_argument("--golden", metavar="PATH", help="alternate golden-value file")

    def add_verify_args(p):
        p.add_argument("--primes", default="2,3", metavar="LIST",
                       help="comma-separated primes (default: 2,3)")
        p.add_argument("--full-oracle", action="store_true")
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="accepted for compatibility; has no effect "
                            "(every sweep runs in one process)")
        p.add_argument("--out", metavar="PATH", help="write the JSON report here")
        p.add_argument("--golden", metavar="PATH", help="alternate golden-value file")

    p_verify = sub.add_parser("verify", help="run every check and print a summary")
    add_verify_args(p_verify)
    p_verify.add_argument("--json", action="store_true", help="print the JSON report")

    p_report = sub.add_parser("report", help="run every check and emit the JSON report")
    add_verify_args(p_report)

    return parser


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"cannot parse primes list {text!r}") from exc
    if not primes:
        raise ValueError("at least one prime is required")
    return primes


def cmd_betti(args) -> int:
    golden = load_golden(args.golden)
    section = betti_section(golden)
    if args.json:
        sys.stdout.write(to_json_text(section))
    else:
        coeffs = " ".join(str(c) for c in section["coeffs"])
        print(f"coefficients (degree {section['degree']} -> 0): {coeffs}")
        print(f"euler characteristic: {section['euler']}")
        print(f"golden match: {_status(section['ok'])}")
    return EXIT_OK if section["ok"] else EXIT_MISMATCH


def cmd_hilbert(args) -> int:
    text = args.resolution
    if not text.lstrip().startswith("{"):
        try:
            with open(text, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"cannot read resolution file: {exc}", file=sys.stderr)
            return EXIT_INVALID
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"invalid resolution JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_INVALID
    spec = ResolutionSpec.from_json(data)
    poly = hilb_resolution(spec)
    chi = euler_char(poly)
    g = genus(poly)
    if args.json:
        doc = dict(poly.to_json())
        doc["chi"] = chi if isinstance(chi, int) else str(chi)
        doc["genus_if_structure_sheaf"] = g if isinstance(g, int) else str(g)
        sys.stdout.write(to_json_text(doc))
    else:
        print(f"P = {poly}")
        print(f"chi = {chi}")
        print(f"genus (if a structure sheaf) = {g}")
    return EXIT_OK


def cmd_verify_locus(args) -> int:
    golden = load_golden(args.golden)
    worker_failure = None
    try:
        sweep = sweep_locus(args.prime, workers=args.workers, full_oracle=args.full_oracle)
    except WorkerFailure as failure:
        sweep, worker_failure = failure.partial, str(failure)
    summary = locus_summary(sweep, golden)
    doc = {"prime": args.prime, "fibers": sweep.fibers_json(), "summary": summary}
    if worker_failure is not None:
        doc["worker_failure"] = worker_failure
    _emit(to_json_text(doc), args.out)
    if worker_failure is not None:
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


def _run_report(args, as_json: bool) -> int:
    config = RunConfig(primes=_parse_primes(args.primes), workers=args.workers,
                       full_oracle=args.full_oracle, output_path=args.out)
    golden = load_golden(args.golden)
    report = build_report(config, golden)
    text = to_json_text(report)
    if config.output_path:
        _emit(text, config.output_path)
        if not as_json:
            sys.stdout.write(_human_report(report))
    else:
        sys.stdout.write(text if as_json else _human_report(report))
    if "worker_failure" in report:
        return EXIT_WORKER
    return EXIT_OK if report["verdict"] else EXIT_MISMATCH


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "betti":
            return cmd_betti(args)
        if args.command == "hilbert":
            return cmd_hilbert(args)
        if args.command == "verify-locus":
            return cmd_verify_locus(args)
        if args.command == "verify":
            return _run_report(args, as_json=args.json)
        if args.command == "report":
            return _run_report(args, as_json=True)
        parser.error(f"unknown command {args.command!r}")
    except GoldenError as exc:
        print(f"golden data error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # the exit-code contract is total
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_INVALID


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
