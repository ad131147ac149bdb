"""Regenerate the golden RTL campaign fixture (``rtl_golden.jsonl``).

The fixture pins the canonical report bytes of small fixed-seed RTL
campaigns on the two control modules, where the fault plane interposes
on every latch for the whole run:

* burst and stuck-at :func:`~repro.rtl.campaign.run_campaign` cells on
  ``scheduler`` and ``pipeline``, over an arithmetic (FADD) and a
  memory (GLD) micro-benchmark — memory-latency stalls clock pipeline
  bubbles, so a burst or stuck-at on a pipeline register meets bubble
  latches;
* stuck-at :func:`~repro.rtl.campaign.run_signature_campaign` on both
  modules across micro-benchmark and t-MxM applications;
* one transient :func:`~repro.rtl.campaign.run_tmxm_grid` with
  ``vectorize="auto"``, whose unfired faults resolve from the recorded
  golden trace.

``tests/rtl/test_rtl_golden.py`` re-runs every case and asserts byte
identity, so any change to latch interposition, bubble clocking or
trace recording that alters a report fails by case name.  Regenerate
only for an intended reproducibility break::

    PYTHONPATH=src python tests/fixtures/artifacts/make_rtl_golden.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).parent
FIXTURE = HERE / "rtl_golden.jsonl"

#: DO NOT change without re-pinning
CELL_OPCODES = ("FADD", "GLD")
CELL_MODELS = ("burst", "stuck-at")
MODULES = ("scheduler", "pipeline")
CELL_FAULTS = 40
SIGNATURE_APPS = ("FADD/M", "GLD/M", "tmxm/Max")
SIGNATURE_FAULTS = 4
TMXM_FAULTS = 20


def cases():
    """Every case id, in fixture order."""
    out = [f"cell/{opcode}/{model}/{module}"
           for opcode in CELL_OPCODES
           for model in CELL_MODELS
           for module in MODULES]
    out += [f"signature/{module}" for module in MODULES]
    out.append("tmxm-grid/transient/auto")
    return out


def _report(case: str):
    from repro.gpu.isa import Opcode
    from repro.rtl.campaign import (
        run_campaign,
        run_signature_campaign,
        run_tmxm_grid,
    )
    from repro.rtl.microbench import make_microbenchmark

    kind, _, rest = case.partition("/")
    if kind == "cell":
        opcode, model, module = rest.split("/")
        bench = make_microbenchmark(Opcode(opcode), "M", seed=1)
        return run_campaign(bench, module, CELL_FAULTS, seed=3,
                            fault_model=model).to_dict()
    if kind == "signature":
        return run_signature_campaign(rest, SIGNATURE_FAULTS, seed=4,
                                      apps=list(SIGNATURE_APPS)).to_dict()
    return [r.to_dict() for r in run_tmxm_grid(n_faults=TMXM_FAULTS,
                                               seed=5, vectorize="auto")]


def render_case(case: str) -> str:
    """One fixture line: the case id and its canonical report(s)."""
    return json.dumps({"case": case, "report": _report(case)},
                      sort_keys=True, separators=(",", ":")) + "\n"


def main() -> None:
    text = "".join(render_case(case) for case in cases())
    FIXTURE.write_text(text)
    print(f"wrote {FIXTURE} ({len(cases())} cases, {len(text)} bytes)")


if __name__ == "__main__":
    sys.exit(main())
