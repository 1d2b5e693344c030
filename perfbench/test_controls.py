"""The checker rejects each deliberately corrupted output.

    python3 -m pytest perfbench/test_controls.py
"""

from controls import run_controls
from program import OUT


def test_checker_rejects_every_corruption():
    assert run_controls(OUT / "controls") == []
