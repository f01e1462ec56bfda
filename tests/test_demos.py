"""The narrative demos run to completion and print their story.  Demo 04
(about 20 s of sweeps) is left out to keep the suite fast."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_voxelize_and_patch.py",
        "02_train_codebooks.py",
        "03_wire_format.py",
        "05_confidence_filter.py",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
