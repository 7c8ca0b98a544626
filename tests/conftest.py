import sys
from collections import Counter

import pytest

import quadric_moduli.locus as locus_module
from quadric_moduli.locus import sweep_locus


def sweep_counting_planes(p: int, full_oracle: bool) -> tuple:
    """sweep_locus(p, full_oracle=full_oracle), and how many planes each
    det-zero count route counted, read by a profile hook on the calls of
    _kernel_counts and _join_counts, which replaces nothing the sweep runs."""
    routes = {locus_module._kernel_counts.__code__: "kernel",
              locus_module._join_counts.__code__: "enumerate"}
    counted = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in routes:
            counted[routes[frame.f_code]] += len(frame.f_locals["matrices"])

    sys.setprofile(hook)
    try:
        sweep = sweep_locus(p, full_oracle=full_oracle)
    finally:
        sys.setprofile(None)
    return sweep, dict(counted)


@pytest.fixture(scope="session")
def sweep2():
    return sweep_locus(2)


@pytest.fixture(scope="session")
def sweep3():
    return sweep_locus(3)


@pytest.fixture(scope="session")
def sweep5():
    return sweep_locus(5)


@pytest.fixture(scope="session")
def sweep7_full_oracle():
    """The slowest sweep, p = 7 with the join on every plane (about 4 s), run
    once, unpatched, for every test that reads it, with its counted planes."""
    return sweep_counting_planes(7, True)
