"""Regenerate the golden SWFI PVF fixture (``swfi_pvf_golden.jsonl``).

The fixture pins the canonical ``PVFReport.to_dict()`` bytes of small
fixed-seed PVF campaigns over every registered application except LeNET
(whose construction trains a classifier for several seconds), plus the
transformer block at fp16 and bf16, under three fault models: single and
double bit-flip, and the multi-thread relative-error syndrome drawn from
the shipped database.  Together they cover the reduced-precision operand
paths, multi-element corruption spans and branch attribution of the
:class:`~repro.swfi.ops.SassOps` layer.

``tests/swfi/test_swfi_golden.py`` re-runs every case and asserts byte
identity, so any change to the SWFI hot path that alters a report fails
by case name.  Regenerate only for an intended reproducibility break::

    PYTHONPATH=src python tests/fixtures/artifacts/make_swfi_golden.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).parent
FIXTURE = HERE / "swfi_pvf_golden.jsonl"

#: (application, precision) pairs; DO NOT change without re-pinning
APPS = (
    ("MxM", "fp32"), ("LUD", "fp32"), ("Quicksort", "fp32"),
    ("Lava", "fp32"), ("Gaussian", "fp32"), ("Hotspot", "fp32"),
    ("YoloV3", "fp32"), ("BFS", "fp32"), ("NW", "fp32"),
    ("Pathfinder", "fp32"), ("Transformer", "fp32"),
    ("Transformer", "fp16"), ("Transformer", "bf16"),
)
MODELS = ("single-bit-flip", "double-bit-flip", "relative-error-mt")
SEEDS = (2021, 5)
INJECTIONS = 8


def cases():
    """Every (app, precision, model, seed) case, in fixture order."""
    return [(app, precision, model, seed)
            for app, precision in APPS
            for model in MODELS
            for seed in SEEDS]


def case_id(case) -> str:
    app, precision, model, seed = case
    return f"{app}/{precision}/{model}/seed={seed}"


def _model(name: str):
    from repro.datafiles import load_database
    from repro.swfi.models import (
        DoubleBitFlip,
        RelativeErrorSyndrome,
        SingleBitFlip,
    )

    if name == "single-bit-flip":
        return SingleBitFlip()
    if name == "double-bit-flip":
        return DoubleBitFlip()
    return RelativeErrorSyndrome(load_database(), multi_thread=True)


def render_case(case) -> str:
    """One fixture line: the case id and its canonical report."""
    from repro.apps import make_application
    from repro.swfi.campaign import run_pvf_campaign

    app_name, precision, model, seed = case
    app = make_application(app_name, seed=seed, precision=precision)
    report = run_pvf_campaign(app, _model(model), INJECTIONS, seed=seed)
    return json.dumps({"case": case_id(case), "report": report.to_dict()},
                      sort_keys=True, separators=(",", ":")) + "\n"


def main() -> None:
    text = "".join(render_case(case) for case in cases())
    FIXTURE.write_text(text)
    print(f"wrote {FIXTURE} ({len(cases())} cases, {len(text)} bytes)")


if __name__ == "__main__":
    sys.exit(main())
