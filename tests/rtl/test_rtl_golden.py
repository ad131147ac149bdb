"""Byte-diff guard: control-module RTL campaigns vs the golden fixture.

``tests/fixtures/artifacts/rtl_golden.jsonl`` holds the canonical report
bytes of small fixed-seed burst and stuck-at cells, stuck-at signature
campaigns and one transient t-MxM grid on the scheduler and pipeline,
written by ``tests/fixtures/artifacts/make_rtl_golden.py``.  Latch
interposition, bubble clocking and golden-trace recording claim to be
behaviour-preserving; a mismatch here names the drifting case.  The CI
``vectorized-equivalence`` job runs this module on every push.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (Path(__file__).parent.parent / "fixtures" / "artifacts"
           / "make_rtl_golden.py")
_spec = importlib.util.spec_from_file_location("make_rtl_golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

_LINES = {json.loads(line)["case"]: line
          for line in golden.FIXTURE.read_text().splitlines(keepends=True)}


def test_fixture_covers_every_case():
    assert list(_LINES) == golden.cases()


@pytest.mark.parametrize("case", golden.cases())
def test_rtl_report_byte_identical(case):
    assert golden.render_case(case) == _LINES[case], (
        f"RTL report drifted from the golden fixture for {case}")
