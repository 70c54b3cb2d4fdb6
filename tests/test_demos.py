"""The demos that train nothing print, byte for byte, the records under
tests/golden/ (demo 04's output includes the sweep CSV)."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_premature_end_pathology", "02_silence_modeling_remedy",
                                  "04_latency_accuracy_tradeoff"])
def test_demo_prints_its_record(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], capture_output=True,
                         env={**os.environ, "PYTHONPATH": path}, cwd=ROOT, timeout=120, check=True)
    assert run.stdout == (ROOT / "tests" / "golden" / f"{demo}.txt").read_bytes()
