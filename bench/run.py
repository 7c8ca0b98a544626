"""Benchmark of the ``qmoduli`` verifier, measured from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: a desk user runs one
``qmoduli`` process, waits for its verdict, then runs the next.  Each
workload passes ``--workers`` explicitly and uses at most two processes.

``--trace 0`` times whole invocations with ``os.wait4`` and reports
``wall_s`` (median), ``wall_s_tail`` (the highest percentile with at least
ten samples beyond it), ``cpu_s`` (user+sys of the process and the sweep
workers it reaped), ``peak_rss_mb`` and ``setup_s`` (median wall time of
``qmoduli betti --json``: interpreter start, numpy import and the golden
load, no sweep).  Setup probes are interleaved with the workload; the seed
only shuffles that interleaving, because the workloads are deterministic.

``--trace 1`` runs the same argv in-process, untraced and then traced by
``tracer.Tracer``, and reports per-layer times and counts.  The counts must
repeat exactly between traced runs.

Every invocation is checked: it fails if it exits non-zero, if its verdict
is not PASS, or if its stdout differs from the reference digest below
(reports are byte-identical by contract, also under the pool).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

The child environment drops ``QM_WORKERS``, every ``PYTHON*`` variable and
the BLAS thread variables.  It sets ``PYTHONPATH`` to the checkout's ``src``
and ``PYTHONPYCACHEPREFIX`` to ``.bench-pycache`` in the checkout, so every
measured invocation finds warm bytecode, as an installed package would, and
nothing is written outside the checkout.  BLAS thread variables are never
set: with ``--workers 1`` OpenBLAS threads busy-wait, and ``cpu_s`` must
show that.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYCACHE = ROOT / ".bench-pycache"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: The tail percentile needs at least ten samples beyond it.
MIN_SAMPLES = 11
#: A run stops starting invocations after this, whatever the sample count.
HARD_LIMIT_S = 150.0
#: An invocation still running after this is killed and counted failed.
INVOCATION_TIMEOUT_S = 100.0


def _verdict_text(out: bytes) -> bool:
    return out.rstrip().endswith(b"verdict: PASS")


def _verdict_locus_json(out: bytes) -> bool:
    return json.loads(out)["summary"]["ok"] is True


def _verdict_betti_json(out: bytes) -> bool:
    return json.loads(out)["ok"] is True


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    primes: tuple[int, ...]
    workers: int
    full_oracle: bool
    verdict: object
    sha256: str
    why: str


WORKLOADS = {
    "verify-serial": Workload(
        ("verify", "--primes", "2,3,5,7", "--workers", "1"), (2, 3, 5, 7), 1, False,
        _verdict_text, "da4b2b13034c19cf8bb2f5e1436b07d0acd288a935b802c119b5aa0ad6fd2369",
        "the headline verdict, single-threaded: kernel route at p = 5, 7, "
        "enumeration at p = 2, 3; no pool, no raw oracle"),
    "oracle-pooled": Workload(
        ("verify", "--primes", "2,3", "--full-oracle", "--workers", "2"), (2, 3), 2, True,
        _verdict_text, "84029a58be1e8d9a9910947165ee0e0b762eeca45a87a5a5f6838f98b62a1e0a",
        "fiber enumeration and the raw p^12 oracle under the pool, where the "
        "pool costs more than it saves"),
    "locus-p7-pooled": Workload(
        ("verify-locus", "--prime", "7", "--workers", "2"), (7,), 2, False,
        _verdict_locus_json,
        "eab54445aa41a9b75ff19602dc8d92bd8e791a1309dc89b097c64e5b0caaab9a",
        "kernel route over the 2,850 planes of p = 7 under the pool, where the "
        "pool wins; writes 1.2 MB of JSON"),
}
SETUP = Workload(("betti", "--json"), (), 1, False, _verdict_betti_json,
                 "75b8e9a4b990c293350559acc1c9f7241fbf6073463c9e5b4eafa10479e6e761",
                 "interpreter start, numpy import and golden load")
#: ``verify --primes 2`` with the true golden file; the gate self-check runs
#: it against an off-by-one golden file and must see every check fire.
SELF_CHECK = Workload(("verify", "--primes", "2", "--workers", "1"), (2,), 1, False,
                      _verdict_text,
                      "08bb90e2a554884bc7e0e0de88c017354320dd3ffa12ccafc54ccbca0d28a47d",
                      "gate self-check")

#: Per-layer counts of the traced run at the seed commit.  A later change
#: of the program may move them; the benchmark reports the difference and
#: fails only if counts do not repeat between traced runs.
SEED_COUNTS = {
    "verify-serial": {"locus.enumerate_planes.planes": 3821,
                      "locus.det_action_matrix.calls": 3821,
                      "locus.kernel_detzero_count.calls": 3656,
                      "locus.fiber_detzero_count.calls": 165,
                      "locus.raw_oracle_count.calls": 0},
    "oracle-pooled": {"locus.enumerate_planes.planes": 165,
                      "locus.fiber_detzero_count.calls": 165,
                      "locus.kernel_detzero_count.calls": 0,
                      "locus.raw_oracle_count.calls": 38},
    "locus-p7-pooled": {"locus.enumerate_planes.planes": 2850,
                        "locus.det_action_matrix.calls": 2850,
                        "locus.kernel_detzero_count.calls": 2850,
                        "locus.fiber_detzero_count.calls": 0,
                        "locus.raw_oracle_count.calls": 0},
}

END_TO_END_UNITS = {"wall_s": "s", "wall_s_tail": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "cli.main.s": "s", "cli.main.self_s": "s",
    "locus.sweep_locus.self_s": "s", "locus.pool.speedup": "ratio",
    "locus.enumerate_planes.s": "s", "locus.enumerate_planes.planes": "count",
    "locus.classify_plane.s": "s", "locus.planes.generic": "count",
    "locus.planes.shared_right": "count", "locus.planes.shared_left": "count",
    "locus.det_action_matrix.s": "s", "locus.det_action_matrix.calls": "count",
    "locus.kernel_detzero_count.self_s": "s", "locus.kernel_detzero_count.calls": "count",
    "linalg.rref.self_s": "s", "linalg.rref.calls": "count",
    "biform.mul.s": "s", "biform.mul.calls": "count",
    "locus.fiber_detzero_count.self_s": "s", "locus.fiber_detzero_count.calls": "count",
    "locus.fiber.points": "count", "locus.fiber.detzero_ratio": "ratio",
    "locus.raw_oracle_count.s": "s", "locus.raw_oracle_count.calls": "count",
    "locus.raw_oracle.pairs": "count", "locus.raw_oracle.hit_ratio": "ratio",
    "report.to_json_text.s": "s", "report.to_json_text.bytes": "count",
    "report.load_golden.s": "s", "report.betti_section.s": "s",
    "report.hilbert_section.s": "s", "report.locus_summary.s": "s",
    "trace.worker_busy_s": "s", "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    """One checked invocation."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    verdict_ok: bool
    digest_ok: bool
    stderr: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.verdict_ok and self.digest_ok


def judge(workload: Workload, out: bytes) -> tuple[bool, bool]:
    """(verdict is PASS, stdout matches the reference digest)."""
    try:
        verdict_ok = workload.verdict(out)
    except (ValueError, KeyError, TypeError):
        verdict_ok = False
    return verdict_ok, hashlib.sha256(out).hexdigest() == workload.sha256


def _dropped(key: str) -> bool:
    return key.startswith("PYTHON") or key in ("QM_WORKERS", *BLAS_THREAD_VARS)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not _dropped(k)}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def invoke(workload: Workload, env: dict[str, str], extra: tuple[str, ...] = ()) -> Outcome:
    """Run one ``qmoduli`` process to completion, timed from spawn to exit."""
    cmd = [sys.executable, "-m", "quadric_moduli.cli", *workload.argv, *extra]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    watchdog.start()
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    watchdog.cancel()
    reader.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    verdict_ok, digest_ok = judge(workload, out)
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   proc.returncode, verdict_ok, digest_ok,
                   errors[0].decode(errors="replace") if errors else "")


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(values)
    if len(ordered) < MIN_SAMPLES:
        return ordered[-1], 100.0
    index = len(ordered) - MIN_SAMPLES
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def environment(seed: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    probe = ("import json, numpy, multiprocessing; "
             "c = numpy.__config__.CONFIG['Build Dependencies']['blas']; "
             "print(json.dumps({'numpy': numpy.__version__, "
             "'blas': c.get('openblas configuration') or c.get('name'), "
             "'start_method': multiprocessing.get_start_method()}))")
    versions = json.loads(subprocess.run([sys.executable, "-c", probe], env=child_env(),
                                         capture_output=True, text=True, check=True,
                                         timeout=60).stdout)
    return {
        "seed": seed,
        "python": platform.python_version(),
        **versions,
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
        "dropped_env": sorted(k for k in os.environ if _dropped(k)),
    }


def check_source():
    """Exit with code 1 unless this checkout holds the package source."""
    init = SRC / "quadric_moduli" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from a checkout of the repository")


def self_check(env: dict[str, str], scratch: Path) -> bool:
    """An off-by-one golden file must make ``verify`` count as failed on
    every gate, with exit code 1."""
    golden = json.loads((SRC / "quadric_moduli" / "data" / "golden.json").read_text())
    golden["moduli_point_counts"]["values"]["2"] += 1
    path = scratch / "golden-off-by-one.json"
    path.write_text(json.dumps(golden))
    outcome = invoke(SELF_CHECK, env, ("--golden", str(path)))
    caught = (outcome.exit_code == 1 and not outcome.verdict_ok and not outcome.digest_ok
              and not outcome.ok)
    print(f"gate self-check (off-by-one golden): exit {outcome.exit_code}, "
          f"verdict {'PASS' if outcome.verdict_ok else 'FAIL'}, digest "
          f"{'same' if outcome.digest_ok else 'differs'} -> "
          f"{'counted failed' if caught else 'NOT CAUGHT'}")
    return caught


def run_end_to_end(name: str, workload: Workload, seed: int, seconds: float) -> dict:
    env = child_env()
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as scratch:
        gate_ok = self_check(env, Path(scratch))
    warm = invoke(SETUP, env)  # fills the bytecode cache; not measured
    runs: list[Outcome] = []
    probes: list[Outcome] = []
    order = []
    start = perf_counter()
    while True:
        block = ["workload", "setup"]
        rng.shuffle(block)
        order.append("".join(slot[0] for slot in block))
        for slot in block:
            if slot == "workload":
                runs.append(invoke(workload, env))
            else:
                probes.append(invoke(SETUP, env))
        elapsed = perf_counter() - start
        per_block = elapsed / len(runs)
        if elapsed + per_block > HARD_LIMIT_S:
            break
        if elapsed + per_block > seconds and len(runs) >= MIN_SAMPLES:
            break

    failures = [o for o in [warm, *runs, *probes] if not o.ok]
    for outcome in failures[:3]:
        print(f"failed invocation: exit {outcome.exit_code}, verdict_ok "
              f"{outcome.verdict_ok}, digest_ok {outcome.digest_ok}\n{outcome.stderr}",
              file=sys.stderr)
    walls = [o.wall_s for o in runs]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(o.cpu_s for o in runs),
        "peak_rss_mb": statistics.median(o.rss_mb for o in runs),
        "setup_s": statistics.median(o.wall_s for o in probes),
    }
    attempted = 1 + len(runs) + len(probes)
    print(f"workload {name}: {' '.join(workload.argv)}  ({workload.why})")
    print(f"interleaving (w = workload, s = setup probe), seed {seed}: {' '.join(order)}")
    notes = {"wall_s": f"median of {len(walls)} invocations",
             "wall_s_tail": f"p{tail_pct:.1f} of {len(walls)} invocations",
             "cpu_s": f"median of {len(runs)}, user+sys incl. reaped workers",
             "peak_rss_mb": f"median ru_maxrss of {len(runs)}",
             "setup_s": f"median of {len(probes)} 'betti --json' probes"}
    for key, value in metrics.items():
        print(f"  {key:<12} {value:10.4f} {END_TO_END_UNITS[key]:<5} {notes[key]}")
    print("  wall_s samples: " + " ".join(f"{w:.3f}" for w in sorted(walls)))
    print(f"  {'fail_ratio':<12} {len(failures) / attempted:10.4f} ratio "
          f"{len(failures)} of {attempted} invocations")
    return {
        "correct": gate_ok and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


# -- traced run ---------------------------------------------------------------


def _call_main(cli, argv) -> tuple[float, int, bytes, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.main(list(argv))
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue().encode(), err.getvalue()


def _sweep_time(locus, workload: Workload, workers: int) -> float:
    start = perf_counter()
    for p in workload.primes:
        locus.sweep_locus(p, workers=workers, full_oracle=workload.full_oracle)
    return perf_counter() - start


def _layer_metrics(main: dict, counts, workers: dict) -> dict:
    def inclusive(name):
        return main.get(name, {}).get("s", 0.0) + workers.get(name, {}).get("s", 0.0)

    def self_time(name):
        return (main.get(name, {}).get("self_s", 0.0)
                + workers.get(name, {}).get("self_s", 0.0))

    def ratio(numerator, denominator):
        return counts[numerator] / counts[denominator] if counts[denominator] else 0.0

    out = {}
    for key in PER_LAYER_UNITS:
        if key.endswith(".self_s"):
            out[key] = self_time(key[: -len(".self_s")])
        elif key.endswith(".s"):
            out[key] = inclusive(key[: -len(".s")])
        else:
            out[key] = counts[key]
    out["locus.fiber.detzero_ratio"] = ratio("locus.fiber.detzero", "locus.fiber.points")
    out["locus.raw_oracle.hit_ratio"] = ratio("locus.raw_oracle.hits",
                                              "locus.raw_oracle.pairs")
    out["trace.worker_busy_s"] = sum((e["self_s"] for e in workers.values()), 0.0)
    return out


def _plane_contract(counts) -> list[str]:
    """Per prime: p + 1 shared-right and shared-left planes and all of
    Grass(2, 4) enumerated, wherever the trace saw the planes."""
    problems = []
    primes = {int(m.group(1)) for m in map(re.compile(r"\.p(\d+)\.").search, counts) if m}
    for p in sorted(primes):
        grass = (p * p + 1) * (p * p + p + 1)
        enumerated = counts[f"locus.enumerate_planes.p{p}.planes"]
        kinds = {k: counts[f"locus.planes.p{p}.{k}"]
                 for k in ("generic", "shared_right", "shared_left")}
        if enumerated and enumerated != grass:
            problems.append(f"p={p}: {enumerated} planes enumerated, expected {grass}")
        if sum(kinds.values()) and (kinds["shared_right"] != p + 1
                                    or kinds["shared_left"] != p + 1
                                    or sum(kinds.values()) != grass):
            problems.append(f"p={p}: plane kinds {kinds}, expected p + 1 shared each")
    return problems


def run_traced(name: str, workload: Workload, seconds: float) -> dict:
    for key in ("QM_WORKERS", *BLAS_THREAD_VARS):
        os.environ.pop(key, None)
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(SRC))
    from quadric_moduli import cli, locus  # from SRC, checked below
    from tracer import Tracer

    if Path(cli.__file__).resolve().parent != SRC / "quadric_moduli":
        sys.exit(f"bench: imported {cli.__file__}, not this checkout's src")
    attempted = failed = 0
    problems: list[str] = []

    def checked(result):
        nonlocal attempted, failed
        elapsed, code, out, err = result
        attempted += 1
        verdict_ok, digest_ok = judge(workload, out)
        if code != 0 or not verdict_ok or not digest_ok:
            failed += 1
            print(f"failed in-process run: exit {code}, verdict_ok {verdict_ok}, "
                  f"digest_ok {digest_ok}\n{err}", file=sys.stderr)
        return elapsed

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as scratch:
        tracer = Tracer(Path(scratch))
        checked(_call_main(cli, workload.argv))  # warm-up: imports and caches
        samples: list[dict] = []
        first_counts = None
        start = perf_counter()
        while True:
            untraced = checked(_call_main(cli, workload.argv))
            tracer.collect()  # discard what untraced pool workers left behind
            with tracer.patched():
                traced = checked(_call_main(cli, workload.argv))
            main, counts, workers = tracer.collect()
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                changed = sorted(k for k in set(counts) | set(first_counts)
                                 if counts[k] != first_counts[k])
                problems.append(f"counts differ between traced runs: {changed}")
            self_sum = sum(e["self_s"] for e in main.values())
            if abs(self_sum - main["cli.main"]["s"]) > 1e-6 * main["cli.main"]["s"]:
                problems.append(f"self times sum to {self_sum}, cli.main took "
                                f"{main['cli.main']['s']}")
            sample = _layer_metrics(main, counts, workers)
            sample["trace.overhead_ratio"] = traced / untraced
            if workload.workers > 1:
                sample["locus.pool.speedup"] = (_sweep_time(locus, workload, 1)
                                                / _sweep_time(locus, workload, workload.workers))
            else:
                sample["locus.pool.speedup"] = 1.0
            samples.append(sample)
            elapsed = perf_counter() - start
            per_sample = elapsed / len(samples)
            if elapsed + per_sample > HARD_LIMIT_S:
                break
            if elapsed + per_sample > seconds and len(samples) >= 2:
                break

    problems += _plane_contract(first_counts)
    metrics = {key: samples[0][key] if unit == "count"  # counts repeat exactly
               else statistics.median(s[key] for s in samples)
               for key, unit in PER_LAYER_UNITS.items()}
    print(f"workload {name}: {' '.join(workload.argv)}  (traced in-process, "
          f"{len(samples)} traced runs, medians)")
    for key, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {key:<36} {shown} {PER_LAYER_UNITS[key]}")
    print(f"  accounting: cli.main self times sum to cli.main.s = {metrics['cli.main.s']:.4f} s "
          f"in the calling process; sweep workers add {metrics['trace.worker_busy_s']:.4f} s")
    seed_diff = {k: (v, first_counts[k]) for k, v in SEED_COUNTS[name].items()
                 if first_counts[k] != v}
    print("  counts at the seed commit: " + (
        "all match" if not seed_diff else
        ", ".join(f"{k} {old} -> {new}" for k, (old, new) in seed_diff.items())))
    print("  all counts: " + json.dumps(dict(sorted(first_counts.items()))))
    for problem in problems:
        print(f"contract broken: {problem}", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_source()
    workload = WORKLOADS[args.workload]
    before = os.getloadavg()
    env_record = environment(args.seed)
    if args.trace:
        result = run_traced(args.workload, workload, args.seconds)
    else:
        result = run_end_to_end(args.workload, workload, args.seed, args.seconds)
    env_record["loadavg_before"] = list(before)
    env_record["loadavg_after"] = list(os.getloadavg())
    print("environment: " + json.dumps(env_record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
