"""The golden file as load_golden reads it, and its moduli point counts
against the Poincare polynomial."""

import json
from importlib import resources

from quadric_moduli.betti import poincare_moduli
from quadric_moduli.report import load_golden


def test_load_golden_reads_the_packaged_file():
    packaged = resources.files("quadric_moduli.data").joinpath("golden.json").read_bytes()
    assert load_golden() == json.loads(packaged)


def test_golden_moduli_counts_equal_polynomial():
    golden = load_golden()["moduli_point_counts"]
    assert golden["origin"] == "derived"
    assert set(golden["values"]) == {"2", "3", "5", "7"}
    for p, count in golden["values"].items():
        assert count == poincare_moduli().eval(int(p))
