"""The six demos print exactly what they printed when pinned.

Each demo runs as a script in its own interpreter, importing the package
from ``src``; the pin is the SHA-256 of its standard output.  A refactor
that keeps the mathematics must keep these bytes; a deliberate change to a
demo or to what it prints updates its pin with it.

README's "Library quick start" block runs the same way, so the documented
API cannot drift from the code.
"""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

PINS = {
    "01_axiom_suites.py":
        "4b7a3d9bd3c77ff61df08644be9eb148743af1deb715adeda3848420d5d63605",
    "02_twists.py":
        "d8993b6edf6cdd9fed80873fc4df7a966d803374dcdc290e4e27fb29a39f4868",
    "03_covariant_derivative.py":
        "70c8ff62e1a28b2243f12e4bfd3bacfa962cc3468a42726fe7640dd7537304e9",
    "04_cohomology.py":
        "2908c1037c96a08b33ebcaa898c97982d6814382ed32cdade3c7cd52154130ea",
    "05_dirac.py":
        "40aa0ca8906e8d70773c8cdc05fbe75963602ede6d073a5b2f97289467c48373",
    "06_homotopy_packaging.py":
        "a82032cefb7a3a8b35f19fb4715ae13e8a2182f05e25c589708246c48cfdbc1e",
}


def test_every_demo_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_stdout_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(done.stdout).hexdigest() == PINS[name]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
