"""Journal headers: byte-identical to the pinned fixture, shared by twins.

``tests/fixtures/artifacts/journal_headers.json`` pins the first line of
every campaign shape's checkpoint journal, written by
``tests/fixtures/artifacts/make_journal_headers.py``.  A header is the
identity a resume checks, so a drifting byte strands every journal
written before it.  Each adaptive runner executes a prefix of its fixed
twin's plan and must journal under the twin's header, so either can
resume the other's journal.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.adaptive import (
    AdaptiveConfig,
    run_adaptive_campaign,
    run_adaptive_grid,
    run_adaptive_pvf_campaign,
)

_SCRIPT = (Path(__file__).parent.parent / "fixtures" / "artifacts"
           / "make_journal_headers.py")
_spec = importlib.util.spec_from_file_location("make_journal_headers",
                                               _SCRIPT)
headers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(headers)

_PINNED = json.loads(headers.FIXTURE.read_text())


def test_fixture_bytes_match_the_runners():
    assert headers.render() == headers.FIXTURE.read_text()


def _adaptive_pvf(journal):
    from repro.apps import make_application
    from repro.swfi.models import SingleBitFlip

    run_adaptive_pvf_campaign(make_application("MxM", seed=3),
                              SingleBitFlip(), 10, AdaptiveConfig(),
                              seed=3, batch_size=7, checkpoint=journal,
                              cancel=headers._cancelled)


def _adaptive_cell(module, **kwargs):
    def run(journal):
        from repro.gpu.isa import Opcode
        from repro.rtl.microbench import make_microbenchmark

        bench = make_microbenchmark(Opcode.FADD, "M", seed=1)
        run_adaptive_campaign(bench, module, 10, AdaptiveConfig(), seed=3,
                              batch_size=None, checkpoint=journal,
                              cancel=headers._cancelled, **kwargs)
    return run


def _adaptive_grid(**kwargs):
    def run(journal):
        from repro.gpu.isa import Opcode

        kwargs.setdefault("batch_size", None)
        run_adaptive_grid(opcodes=[Opcode.FADD, Opcode.IADD],
                          input_ranges=("S", "M"), n_faults=10,
                          config=AdaptiveConfig(), seed=4,
                          checkpoint=journal, cancel=headers._cancelled,
                          **kwargs)
    return run


@pytest.mark.parametrize("twin, run", [
    ("pvf/batch=7", _adaptive_pvf),
    ("rtl-cell/transient", _adaptive_cell("fp32")),
    ("rtl-cell/kind=data", _adaptive_cell("scheduler", kind="data")),
    ("rtl-grid/fp32", _adaptive_grid()),
    ("rtl-grid/fp16", _adaptive_grid(precision="fp16")),
    ("rtl-grid/modules", _adaptive_grid(modules=["pipeline"],
                                        batch_size=5)),
], ids=lambda value: value if isinstance(value, str) else "")
def test_adaptive_runner_writes_its_fixed_twins_header(twin, run):
    assert headers.journal_header(run) == _PINNED[twin]
