"""The test settings in pyproject.toml report a failing test as a failure.

Under filterwarnings = ["error"], a warning raised inside a pytest plugin's
hook ends the run in INTERNALERROR (exit 3) and hides the failing test's
assertion.  Hypothesis's report of a failing test is one such hook.
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

ALWAYS_FAILS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n
'''


def test_a_failing_hypothesis_test_is_a_plain_failure(tmp_path):
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS)
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_always_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed" in run.stdout and "INTERNALERROR" not in output, output
