"""The verify-locus document writer against the canonical JSON encoder.

report.locus_document_chunks writes the fiber list from templates that
to_json_text renders, one % of a template per fiber and one block of fibers
per chunk.  The reference here builds the same document as dicts, one fiber
per row of the sweep, and renders it with json.dumps(indent=2, sort_keys=True)."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import quadric_moduli.cli as cli
import quadric_moduli.locus as locus_module
from quadric_moduli.betti import SUPPORTED_PRIMES
from quadric_moduli.locus import GENERIC, KINDS, LocusSweep, expected_detzero, sweep_locus
from quadric_moduli.report import (
    FIBER_BLOCK, load_golden, locus_document_chunks, locus_summary, to_json_text,
)


def reference_document(sweep, summary: dict, worker_failure: str | None) -> str:
    p = sweep.p
    fibers = []
    for row, index in enumerate(sweep.plane_index.tolist()):
        kind = KINDS[sweep.kinds[row]]
        count = int(sweep.detzero_counts[row])
        expected = int(expected_detzero(p)[sweep.kinds[row]])
        plane_type = ({"kind": kind, "rank1_lines": int(sweep.rank1_lines[row])}
                      if kind == GENERIC
                      else {"kind": kind, "shared_point": sweep.shared_points[row].tolist()})
        fiber = {"plane_index": index, "plane": {"p": p, "basis": sweep.bases[row].tolist()},
                 "plane_type": plane_type, "detzero_count": count, "expected": expected,
                 "ok": count == expected}
        if sweep.raw_counts is not None:
            raw = int(sweep.raw_counts[row])
            # the coset identity of raw_oracle_counts
            fiber.update(raw_count=raw, raw_ok=raw == p * p + count * (p - 1) * p * p)
        fibers.append(fiber)
    doc = {"prime": p, "fibers": fibers, "summary": summary}
    if worker_failure is not None:
        doc["worker_failure"] = worker_failure
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def count_one_too_many(monkeypatch):
    real = locus_module._join_counts
    monkeypatch.setattr(locus_module, "_join_counts", lambda *args: real(*args) + 1)


def corrupt_raw_oracle_map(monkeypatch):
    real = locus_module.raw_oracle_maps

    def corrupted(p, bases):
        maps = real(p, bases)
        maps[:, 0, 0, 0] = (maps[:, 0, 0, 0] + 1) % p
        return maps

    monkeypatch.setattr(locus_module, "raw_oracle_maps", corrupted)


def fail_on_plane_0(monkeypatch):
    def boom(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(locus_module, "_join_counts", boom)


@pytest.mark.parametrize("p,flags,fault,code,marker", [
    (2, (), None, 0, '"kind": "shared-left"'),
    (3, (), None, 0, '"rank1_lines": 0'),
    (5, (), None, 0, '"ok": true'),
    (7, (), None, 0, '"shared_point": ['),
    (2, ("--full-oracle",), None, 0, '"raw_ok": true'),
    (3, ("--full-oracle",), None, 0, '"raw_ok": true'),
    (2, (), count_one_too_many, 1, '"ok": false'),
    (2, ("--full-oracle",), corrupt_raw_oracle_map, 1, '"raw_ok": false'),
    (3, ("--full-oracle",), corrupt_raw_oracle_map, 1, '"raw_ok": false'),
    (2, (), fail_on_plane_0, 3, '"fibers": [],'),
], ids=["2", "3", "5", "7", "2-full-oracle", "3-full-oracle", "count-one-too-many",
        "corrupt-raw-oracle-map", "corrupt-raw-oracle-map-3", "fail-on-plane-0"])
def test_locus_document_equals_json_dumps(monkeypatch, capsys, p, flags, fault, code, marker):
    if fault is not None:
        fault(monkeypatch)
    assert cli.main(["verify-locus", "--prime", str(p), *flags]) == code
    text = capsys.readouterr().out
    sweep = sweep_locus(p, full_oracle=bool(flags))
    assert text == reference_document(sweep, locus_summary(sweep, load_golden()),
                                      sweep.worker_failure)
    assert to_json_text(json.loads(text)) == text
    assert marker in text


def columns(n: int, dtype, shape=(), elements=None):
    return hnp.arrays(dtype, (n, *shape), elements=elements)


@st.composite
def drawn_sweeps(draw) -> LocusSweep:
    """A LocusSweep of any supported p built from drawn columns: a row count
    at and around the block boundaries, any mix of kind codes, indices,
    counts and shared points of many digits (counts often the kind's
    expected one), and raw counts absent, or meeting the coset identity or not."""
    p = draw(st.sampled_from(SUPPORTED_PRIMES))
    n = draw(st.sampled_from([0, 1, FIBER_BLOCK - 1, FIBER_BLOCK, FIBER_BLOCK + 1,
                              2 * FIBER_BLOCK + 1]))
    kinds = draw(columns(n, np.int8, elements=st.integers(0, len(KINDS) - 1)))
    # up to the points of a fiber's P^9, and the raw pairs of p^12
    counts = draw(columns(n, np.int64, elements=st.integers(0, p + 1) | st.integers(0, p**10)))
    raw = None
    if draw(st.booleans()):
        other = draw(columns(n, np.int64, elements=st.integers(0, p**12)))
        raw = np.where(draw(columns(n, bool)), p * p + counts * (p - 1) * p * p, other)
    return LocusSweep(
        p, draw(st.sampled_from(["kernel", "enumerate"])),
        draw(columns(n, np.int32, elements=st.integers(0, 2**31 - 1))),
        draw(columns(n, np.int16, (2, 4))), kinds, draw(columns(n, np.int8)),
        draw(columns(n, np.int16, (2,))), counts, raw, [],
        draw(st.none() | st.text()))


# no shrink phase: a LocusSweep prints as an object, so a shrunk one shows no
# more, and shrinking columns of 129 rows ran for minutes
@settings(max_examples=100, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(drawn_sweeps())
def test_drawn_sweep_documents_equal_json_dumps(sweep):
    summary = locus_summary(sweep, load_golden())
    text = "".join(locus_document_chunks(sweep, summary))
    assert text == reference_document(sweep, summary, sweep.worker_failure)
    assert to_json_text(json.loads(text)) == text


def fail_join_on_call(monkeypatch, call: int):
    real, calls = locus_module._join_counts, []

    def flaky(*args):
        calls.append(None)
        if len(calls) == call:
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(locus_module, "_join_counts", flaky)


def fail_on_plane_89(monkeypatch):
    # at p = 3 with the raw oracle the join counts blocks of 89 planes
    fail_join_on_call(monkeypatch, 2)


def fail_on_plane_100(monkeypatch):
    # at p = 5 with --full-oracle the join counts blocks of 20 planes
    fail_join_on_call(monkeypatch, 6)


def test_locus_document_chunks_are_blocks_of_fibers():
    sweep = sweep_locus(7)
    chunks = list(locus_document_chunks(sweep, locus_summary(sweep, load_golden())))
    # the text up to the fiber list, one chunk per block, the rest
    assert len(chunks) == 2 + -(-len(sweep.plane_index) // FIBER_BLOCK) > 1
    assert chunks[0].endswith('"fibers": [')
    assert all(chunk.count('"plane_index"') <= FIBER_BLOCK for chunk in chunks)


def render_peak(p: int) -> int:
    """Bytes the verify-locus render allocates at most beyond what the sweep
    and the summary already hold, with every chunk dropped once made."""
    sweep = sweep_locus(p)
    summary = locus_summary(sweep, load_golden())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in locus_document_chunks(sweep, summary):
            pass
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_render_memory_is_bounded_by_a_block():
    # the p = 7 document is 1.2 MB; its render holds one block of 64 fibers,
    # each one % of its kind's template, and joins it once (0.13 MB traced,
    # 0.11 MB at p = 5; 0.48 MB with blocks of 256 that were also copied to
    # prepend their separator)
    peak5, peak7 = render_peak(5), render_peak(7)
    assert peak7 < 0.2e6
    assert abs(peak7 - peak5) < 0.1e6


@pytest.mark.parametrize("p,flags,fault,code,fibers", [
    (7, (), None, 0, None),
    (3, ("--full-oracle",), None, 0, None),
    (3, ("--full-oracle",), fail_on_plane_89, 3, 89),
    (5, ("--full-oracle",), fail_on_plane_100, 3, 100),
], ids=["7", "3-full-oracle", "fail-on-plane-89", "fail-on-plane-100"])
def test_out_file_equals_stdout(monkeypatch, capsys, tmp_path, p, flags, fault, code, fibers):
    argv = ["verify-locus", "--prime", str(p), *flags]
    out = tmp_path / "locus.json"
    documents = []
    for extra in ((), ("--out", str(out))):
        with monkeypatch.context() as patch:
            if fault is not None:
                fault(patch)
            assert cli.main([*argv, *extra]) == code
        documents.append(capsys.readouterr().out.encode())
    assert documents[1] == b""
    assert out.read_bytes() == documents[0]
    doc = json.loads(documents[0])
    assert ("worker_failure" in doc) == (code == 3)
    if code == 3:  # the blocks counted before the failure
        assert len(doc["fibers"]) == fibers
        assert doc["worker_failure"] == f"worker failed on plane {fibers}: injected"
