"""The benchmark's tracer patches package functions by name: a rename or a
deletion of one of them must fail here, not only in a traced benchmark run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL_BOTH = """
from tracer import CallCounter, Tracer
Tracer().install()
CallCounter().install()
from binomsums.catalog.entries import check_identity
from fractions import Fraction
assert check_identity("ID06", 3, {"s": Fraction(1, 2), "t": Fraction(1, 3)}).status == "pass"
"""


def test_tracer_and_call_counter_install_against_the_package():
    # a subprocess: both installs patch Fraction, math.gcd and the package for good
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run([sys.executable, "-c", INSTALL_BOTH], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
