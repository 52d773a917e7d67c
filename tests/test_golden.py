"""Byte-for-byte golden outputs of ``degcz analyze-weight``.

Each directory under ``golden/`` holds a config (``config.cfg``) and the
files one run of it writes.  The CSV and JSON bodies must match byte for
byte; the config echo may differ only in its ``out`` path.  The bodies are
reproducible for a single-threaded BLAS (``OMP_NUM_THREADS=1``,
``OPENBLAS_NUM_THREADS=1``), which is how CI runs this suite.
"""
import json
from pathlib import Path

import pytest

from degcz.cli import main

GOLDEN = Path(__file__).parent / "golden"
BODIES = (
    "weight_summary.csv",
    "weight_bmo_balls.csv",
    "weight_oscillation.csv",
    "weight_power_means.csv",
    "weight_analysis.json",
)


@pytest.mark.parametrize("case", sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()))
def test_analyze_weight_bodies_are_byte_identical(case, tmp_path):
    ref = GOLDEN / case
    out = tmp_path / case
    assert main(["analyze-weight", "--config", str(ref / "config.cfg"), "--out", str(out)]) == 0
    for name in BODIES:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    echo, ref_echo = (
        json.loads((d / "analyze_weight_config.json").read_text()) for d in (out, ref)
    )
    assert echo.pop("out") == str(out)
    ref_echo.pop("out")
    assert echo == ref_echo
