"""Regenerate the golden journal-header fixture (``journal_headers.json``).

A checkpoint journal's first line is the campaign's identity: resuming
compares it field by field, and a sharded service job shares its
journal with the in-process runner only while both write the same
header.  The fixture pins that line, byte for byte, for every campaign
shape the runners journal: PVF (default and explicit batch size), a
single RTL cell (transient, burst, fp16, data-only fault list), the
instruction grid (fp32, fp16, a module filter), the t-MxM grid with
shared memory and the stuck-at signature campaign.

Each case runs its public runner with a checkpoint and a ``cancel``
hook that fires before the first unit, so the header is written and no
fault is simulated.  ``tests/artifacts/test_journal_headers.py``
re-renders every case and asserts byte identity.  Regenerate only for
an intended journal-compatibility break::

    PYTHONPATH=src python tests/fixtures/artifacts/make_journal_headers.py
"""

import json
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

HERE = Path(__file__).parent
FIXTURE = HERE / "journal_headers.json"


def _cancelled() -> bool:
    return True


def _pvf(batch_size):
    def run(journal):
        from repro.apps import make_application
        from repro.swfi.campaign import run_pvf_campaign
        from repro.swfi.models import SingleBitFlip

        run_pvf_campaign(make_application("MxM", seed=3), SingleBitFlip(),
                         10, seed=3, batch_size=batch_size,
                         checkpoint=journal, cancel=_cancelled)
    return run


def _cell(module, precision="fp32", **kwargs):
    def run(journal):
        from repro.gpu.isa import Opcode
        from repro.rtl.campaign import run_campaign
        from repro.rtl.microbench import make_microbenchmark

        bench = make_microbenchmark(Opcode.FADD, "M", seed=1,
                                    precision=precision)
        run_campaign(bench, module, 10, seed=3, checkpoint=journal,
                     cancel=_cancelled, **kwargs)
    return run


def _grid(**kwargs):
    def run(journal):
        from repro.gpu.isa import Opcode
        from repro.rtl.campaign import run_grid

        run_grid(opcodes=[Opcode.FADD, Opcode.IADD],
                 input_ranges=("S", "M"), n_faults=10, seed=4,
                 checkpoint=journal, cancel=_cancelled, **kwargs)
    return run


def _tmxm(journal):
    from repro.rtl.campaign import run_tmxm_grid

    run_tmxm_grid(tile_kinds=["Max"], n_faults=10, seed=5,
                  use_shared_memory=True, checkpoint=journal,
                  cancel=_cancelled)


def _signature(journal):
    from repro.rtl.campaign import run_signature_campaign

    run_signature_campaign("scheduler", 3, seed=6, checkpoint=journal,
                           cancel=_cancelled)


#: case name -> runner writing that case's journal; DO NOT change
#: without re-pinning
CASES = {
    "pvf/batch=None": _pvf(None),
    "pvf/batch=7": _pvf(7),
    "rtl-cell/transient": _cell("fp32"),
    "rtl-cell/burst": _cell("fp32", batch_size=5, fault_model="burst"),
    "rtl-cell/fp16": _cell("fp16", precision="fp16"),
    "rtl-cell/kind=data": _cell("scheduler", kind="data"),
    "rtl-grid/fp32": _grid(),
    "rtl-grid/fp16": _grid(precision="fp16"),
    "rtl-grid/modules": _grid(modules=["pipeline"], batch_size=5),
    "rtl-tmxm/shared": _tmxm,
    "rtl-signature/default-apps": _signature,
}


def journal_header(run) -> str:
    """The first journal line *run* writes (without its newline)."""
    from repro.errors import CampaignCancelled

    with TemporaryDirectory() as tmp:
        journal = Path(tmp) / "journal.jsonl"
        try:
            run(journal)
        except CampaignCancelled:
            pass
        return journal.read_text().splitlines()[0]


def render() -> str:
    headers = {name: journal_header(run) for name, run in CASES.items()}
    return json.dumps(headers, indent=2) + "\n"


def main() -> None:
    text = render()
    FIXTURE.write_text(text)
    print(f"wrote {FIXTURE} ({len(CASES)} cases, {len(text)} bytes)")


if __name__ == "__main__":
    sys.exit(main())
