"""The pytest configuration's warning filters, run in a separate session."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A failing property test, a test raising its own DeprecationWarning, and a
# passing test after both. Hypothesis's explain phase imports libcst, where it
# is installed, and that import warns from mypy_extensions.
_SESSION = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_own_deprecation_still_fails():
    warnings.warn("deprecated here", DeprecationWarning)


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # with error::DeprecationWarning alone, a libcst install turns the first
    # failing hypothesis test into INTERNALERROR and no later test runs
    (tmp_path / "test_session.py").write_text(_SESSION)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
            str(tmp_path / "test_session.py"),
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
