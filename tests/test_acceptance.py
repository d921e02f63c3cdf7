"""Release gate: every criterion at its stated tolerance, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines, or `steklov verify` for the same suite from the CLI.
"""

import os
import subprocess
import sys

import pytest

from steklov import acceptance


@pytest.fixture(scope="module")
def results():
    out = {res.index: res for res in acceptance.run_all()}
    for idx in sorted(out):
        print(out[idx].line())
    return out


@pytest.mark.parametrize("index,name", [(i, n) for i, n, _ in acceptance.CRITERIA])
def test_criterion(results, index, name):
    res = results[index]
    print(res.line())
    assert res.passed, f"criterion {index} ({name}) failed: {res.details}"


def test_cli_determinism_without_pythonpath(tmp_path):
    """Criterion 12's CLI children find the package when only sys.path knew it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(acceptance.__file__)))
    script = (f"import sys; sys.path.insert(0, {root!r})\n"
              "from steklov import acceptance\n"
              "print(acceptance.run_criterion(12).details['cli_deterministic'])\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"
