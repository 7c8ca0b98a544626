"""In-process layer trace of one ``qmoduli`` invocation, taken from outside.

The program is not changed: ``Tracer.patched()`` replaces a fixed list of
public functions of ``quadric_moduli`` by wrappers that record spans
(name, start, end, parent) and counters, and restores the originals on
exit.  Every module-level name bound to a wrapped function is replaced, so
names imported with ``from .locus import sweep_locus`` are traced too.

Self time is a span's duration minus the time its child spans cover.  A
generator (``enumerate_planes``) gets one span per resumption, so the time
its consumer spends between items is not counted as generator time.
``field`` operations are not wrapped: there are millions of calls, and
their cost lands in the self time of their callers.

Sweep workers are forked by the program's process pool and inherit the
wrappers.  Each worker starts with an empty trace and writes its totals to
``dump_dir`` when it exits; ``collect()`` merges them.  With a start
method other than ``fork`` the workers import the package afresh, run
untraced, and their work is missing from the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter


def _classified(counts, args, result):
    p = args[0].p
    kind = result.kind.replace("-", "_")
    counts[f"locus.planes.{kind}"] += 1
    counts[f"locus.planes.p{p}.{kind}"] += 1


def _enumerated(counts, args, item):
    counts["locus.enumerate_planes.planes"] += 1
    counts[f"locus.enumerate_planes.p{args[0]}.planes"] += 1


def _fiber_counted(counts, args, result):
    p = args[0].p
    counts["locus.fiber.points"] += (p ** 10 - 1) // (p - 1)  # points of P^9
    counts["locus.fiber.detzero"] += result


def _raw_counted(counts, args, result):
    counts["locus.raw_oracle.pairs"] += args[0].p ** 12
    counts["locus.raw_oracle.hits"] += result


def _json_written(counts, args, result):
    counts["report.to_json_text.bytes"] += len(result)


#: (module, attribute, span name, hook(counts, args, result or item)).
#: A hook on a generator runs once per item yielded.
TARGETS = (
    ("quadric_moduli.cli", "main", "cli.main", None),
    ("quadric_moduli.report", "load_golden", "report.load_golden", None),
    ("quadric_moduli.report", "betti_section", "report.betti_section", None),
    ("quadric_moduli.report", "hilbert_section", "report.hilbert_section", None),
    ("quadric_moduli.report", "locus_summary", "report.locus_summary", None),
    ("quadric_moduli.report", "to_json_text", "report.to_json_text", _json_written),
    ("quadric_moduli.locus", "sweep_locus", "locus.sweep_locus", None),
    ("quadric_moduli.locus", "enumerate_planes", "locus.enumerate_planes", _enumerated),
    ("quadric_moduli.locus", "classify_plane", "locus.classify_plane", _classified),
    ("quadric_moduli.locus", "det_action_matrix", "locus.det_action_matrix", None),
    ("quadric_moduli.locus", "kernel_detzero_count", "locus.kernel_detzero_count", None),
    ("quadric_moduli.locus", "fiber_detzero_count", "locus.fiber_detzero_count",
     _fiber_counted),
    ("quadric_moduli.locus", "raw_oracle_count", "locus.raw_oracle_count", _raw_counted),
    ("quadric_moduli.linalg", "rref", "linalg.rref", None),
    ("quadric_moduli.biform", "BiForm.__mul__", "biform.mul", None),
)


class Tracer:
    """Spans and counters of one process; see the module docstring."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = dump_dir
        self.spans: list[list] = []  # [name, start, end, parent index, outermost]
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        mp_util.register_after_fork(self, Tracer._start_worker)

    def reset(self):
        self.spans, self.stack = [], []
        self.active, self.counts = Counter(), Counter()

    def _start_worker(self):
        self.reset()
        mp_util.Finalize(None, self._dump_worker, exitpriority=0)

    def _dump_worker(self):
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps({"totals": self.totals(), "counts": self.counts}))

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        record = [name, perf_counter(), 0.0, parent, not self.active[name]]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        self.active[name] += 1
        try:
            yield
        finally:
            record[2] = perf_counter()
            self.stack.pop()
            self.active[name] -= 1

    def _wrap(self, fn, name, hook):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self.counts[f"{name}.calls"] += 1
                inner = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    if hook is not None:
                        hook(self.counts, args, item)
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return traced

    @contextmanager
    def patched(self):
        """Trace every target that exists; restore the originals on exit."""
        undo = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "quadric_moduli" or key.startswith("quadric_moduli.")]
        try:
            for module_name, attr, name, hook in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, leaf = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, name, hook)
                holders = [owner] + [m for m in modules if m is not owner]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, original))
            yield
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def totals(self) -> dict:
        """Per span name: inclusive seconds (outermost spans only) and self
        seconds (duration minus the children's durations)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for (name, start, end, _, outermost), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0})
            if outermost:
                entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def collect(self) -> tuple[dict, Counter, dict]:
        """Totals and counts of the calling process, and the merged totals
        of the workers that have exited, clearing both for the next run."""
        main = self.totals()
        counts = Counter(self.counts)
        workers: dict = {}
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            counts.update(data["counts"])
            for name, entry in data["totals"].items():
                merged = workers.setdefault(name, {"s": 0.0, "self_s": 0.0})
                merged["s"] += entry["s"]
                merged["self_s"] += entry["self_s"]
        self.reset()
        return main, counts, workers
