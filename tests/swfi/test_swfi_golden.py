"""Byte-diff guard: SWFI PVF campaigns vs the pinned golden fixture.

``tests/fixtures/artifacts/swfi_pvf_golden.jsonl`` holds the canonical
``PVFReport.to_dict()`` bytes of small fixed-seed campaigns (every
application but LeNET, the transformer at all three precisions, bit-flip
and multi-thread syndrome models), written by
``tests/fixtures/artifacts/make_swfi_golden.py``.  The
:class:`~repro.swfi.ops.SassOps` hot path claims to be
behaviour-preserving; a mismatch here names the drifting case.  The CI
``swfi-golden`` job runs this module on every push.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (Path(__file__).parent.parent / "fixtures" / "artifacts"
           / "make_swfi_golden.py")
_spec = importlib.util.spec_from_file_location("make_swfi_golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

_LINES = {json.loads(line)["case"]: line
          for line in golden.FIXTURE.read_text().splitlines(keepends=True)}


def test_fixture_covers_every_case():
    assert list(_LINES) == [golden.case_id(c) for c in golden.cases()]


@pytest.mark.parametrize("case", golden.cases(), ids=golden.case_id)
def test_pvf_report_byte_identical(case):
    assert golden.render_case(case) == _LINES[golden.case_id(case)], (
        f"PVF report drifted from the golden fixture for "
        f"{golden.case_id(case)}")
