"""Span recorder for the traced benchmark run.

Wraps public functions and methods of :mod:`repro` at runtime; nothing
under ``src/`` is edited.  Each wrapped call records one span (name,
start, end, parent span, workload id, optional counts) in memory, and
the spans are written out once the run ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.

Counts that must repeat exactly (simulator launches and cycles, scalar
injections, dynamic SWFI instructions, syndrome lookups, outcomes) are
taken at the same boundaries, from the wrapped calls' arguments and
return values.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_OUTCOME_KEYS = {"MASKED": "masked", "SDC": "sdc", "DUE": "due"}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "wid", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 wid: str) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.wid = wid
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "wid": self.wid,
                **({"attrs": self.attrs} if self.attrs else {})}


class Recorder:
    """In-memory spans; recording happens only while ``wid`` is set."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.wid: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(span_id, name, stack[-1].id if stack else None,
                    self.wid)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def ancestor_names(self) -> List[str]:
        return [span.name for span in self._stack()]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(span.to_dict()) + "\n")


RECORDER = Recorder()


def _wrap(name: str, func: Callable,
          on_return: Optional[Callable] = None) -> Callable:
    """A call-through wrapper that records one span per call.

    ``on_return(span, args, kwargs, result, error)`` may attach counts to
    the span; it runs before the span closes.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if RECORDER.wid is None:
            return func(*args, **kwargs)
        span = RECORDER.open(name)
        result, error = None, None
        try:
            result = func(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            if on_return is not None:
                on_return(span, args, kwargs, result, error)
            RECORDER.close(span)

    return wrapper


def _wrap_run_units(name: str, func: Callable,
                    on_return: Optional[Callable] = None) -> Callable:
    """``run_units`` wrapper that also records one span per unit run."""
    traced = _wrap(name, func, on_return)

    @functools.wraps(func)
    def wrapper(units, run_unit, *args, **kwargs):
        if RECORDER.wid is not None:
            run_unit = _wrap("campaign.unit", run_unit)
        return traced(units, run_unit, *args, **kwargs)

    return wrapper


class Patcher:
    """Installs wrappers and undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: Any, attr: str, name: str,
                 on_return: Optional[Callable] = None,
                 wrap: Callable = _wrap) -> None:
        """Wrap a module-level function in every module bound to it.

        That covers ``from x import f`` in ``repro`` and in the
        benchmark's own workload module alike.
        """
        original = getattr(module, attr)
        wrapped = wrap(name, original, on_return)
        for mod in list(sys.modules.values()):
            for key, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def method(self, cls: type, attr: str, name: str,
               on_return: Optional[Callable] = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(
                _wrap(name, raw.__func__, on_return)))
        else:
            self._set(cls, attr, _wrap(name, raw, on_return))

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- count hooks -------------------------------------------------------------
def _add(span: Span, **counts) -> None:
    if span.attrs is None:
        span.attrs = {}
    for key, value in counts.items():
        span.attrs[key] = span.attrs.get(key, 0) + value


def _outcome_counts(classifications: Iterable) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for classification in classifications:
        key = _OUTCOME_KEYS[classification.outcome.name]
        counts[key] = counts.get(key, 0) + 1
    return counts


def _on_launch(span, args, kwargs, result, error) -> None:
    _add(span, cycles=int(result.cycles) if error is None else 0)


def _on_inject(span, args, kwargs, result, error) -> None:
    ancestors = RECORDER.ancestor_names()
    if error is None and "rtl.inject_batch" not in ancestors:
        # a stuck-at (fault, app) simulation, or one transient/burst fault
        kind = ("stuck_sims" if "rtl.signature_campaign" in ancestors
                else "faults")
        _add(span, **{kind: 1}, **_outcome_counts([result]))


def _on_inject_batch(span, args, kwargs, result, error) -> None:
    if error is None:
        _add(span, faults=len(result), **_outcome_counts(result))


def _on_swfi_inject(span, args, kwargs, result, error) -> None:
    if error is None:
        _add(span, **{_OUTCOME_KEYS[result.outcome.name]: 1})


def _on_app_run(span, args, kwargs, result, error) -> None:
    ops = args[1] if len(args) > 1 else kwargs.get("ops")
    if ops is not None and ops.target is not None:
        _add(span, injected=1, dyn=int(ops.total))


def install(patcher: Patcher) -> None:
    """Wrap the public calls of every benchmarked layer."""
    import repro.apps  # noqa: F401  (registers every application class)
    import repro.artifacts as artifacts
    import repro.campaign.engine as engine
    import repro.rtl.campaign as rtl_campaign
    import repro.rtl.faultlist as faultlist
    from repro.apps.base import GPUApplication
    from repro.campaign.checkpoint import CampaignCheckpoint
    from repro.gpu.sm import StreamingMultiprocessor
    from repro.rtl.injector import RTLInjector
    from repro.rtl.reports import CampaignReport
    from repro.rtl.signatures import SignatureReport
    from repro.rtl.vectorized import VectorizedRTLInjector
    from repro.service.store import JobStore
    from repro.swfi.campaign import PVFReport
    from repro.swfi.injector import SoftwareInjector
    from repro.syndrome.builder import StreamingDatabaseBuilder
    from repro.syndrome.database import SyndromeDatabase

    # campaign: the engine (its unit runner wrapped per call), the
    # journal and the report merges
    patcher.function(engine, "run_units", "campaign.run_units",
                     wrap=_wrap_run_units)
    patcher.method(CampaignCheckpoint, "record", "campaign.journal")
    for cls in (CampaignReport, PVFReport, SignatureReport):
        patcher.method(cls, "merge", "campaign.merge")

    # gpu: one SM kernel launch per simulation
    patcher.method(StreamingMultiprocessor, "launch", "gpu.launch",
                   _on_launch)

    # rtl: fault lists, golden passes, scalar and vectorized injection
    patcher.function(faultlist, "generate_fault_list", "rtl.fault_list")
    patcher.function(faultlist, "generate_model_fault_list",
                     "rtl.fault_list")
    patcher.method(RTLInjector, "run_golden", "rtl.golden")
    patcher.method(RTLInjector, "inject", "rtl.inject", _on_inject)
    patcher.method(VectorizedRTLInjector, "prepare", "rtl.prepare")
    patcher.method(VectorizedRTLInjector, "inject_batch",
                   "rtl.inject_batch", _on_inject_batch)
    patcher.function(rtl_campaign, "run_signature_campaign",
                     "rtl.signature_campaign")

    # syndrome: database build and lookups
    patcher.method(StreamingDatabaseBuilder, "add_report", "syndrome.ingest")
    patcher.method(StreamingDatabaseBuilder, "add_tmxm_report",
                   "syndrome.ingest")
    patcher.method(StreamingDatabaseBuilder, "build", "syndrome.build")
    patcher.method(SyndromeDatabase, "save", "syndrome.save")
    patcher.method(SyndromeDatabase, "lookup", "syndrome.lookup")

    # swfi + apps: golden passes, injected runs, classification
    patcher.method(SoftwareInjector, "run_golden", "swfi.golden")
    patcher.method(SoftwareInjector, "inject_one", "swfi.inject",
                   _on_swfi_inject)
    pending = [GPUApplication]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in cls.__dict__ and cls is not GPUApplication:
            patcher.method(cls, "run", "swfi.app_run", _on_app_run)
        if "is_sdc" in cls.__dict__:
            patcher.method(cls, "is_sdc", "swfi.classify")

    # artifacts: canonical serialisation
    for attr in ("dump_body", "dump_artifact", "save_artifact"):
        patcher.function(artifacts, attr, "artifacts.serialize")

    # service: the job store behind the daemon
    for attr, value in list(vars(JobStore).items()):
        if isinstance(value, types.FunctionType) and not attr.startswith("_"):
            patcher.method(JobStore, attr, "service.store")


# -- aggregation -------------------------------------------------------------
def _covered(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Aggregate:
    """Per-name totals over a set of spans."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        by_id = {span.id: span for span in spans}
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in spans:
            if span.parent in by_id:
                children[span.parent].append(span)
        self._children = children
        self._by_id = by_id

    def _named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def outermost(self, name: str) -> List[Span]:
        """Spans of *name* with no ancestor of the same name."""
        out = []
        for span in self._named(name):
            parent = self._by_id.get(span.parent)
            while parent is not None and parent.name != name:
                parent = self._by_id.get(parent.parent)
            if parent is None:
                out.append(span)
        return out

    def calls(self, name: str) -> int:
        return len(self._named(name))

    def total_s(self, name: str) -> float:
        return sum(span.duration for span in self.outermost(name))

    def self_s(self, name: str) -> float:
        total = 0.0
        for span in self._named(name):
            kids = [(c.start, c.end) for c in self._children[span.id]]
            total += span.duration - _covered(kids)
        return total

    def child_s(self, name: str, child: str) -> float:
        return sum(c.duration for span in self._named(name)
                   for c in self._children[span.id] if c.name == child)

    def count(self, name: str, key: str) -> int:
        return sum((span.attrs or {}).get(key, 0)
                   for span in self._named(name))

    def duration_with(self, name: str, attr: str) -> float:
        """Total duration of *name* spans carrying count *attr*."""
        return sum(span.duration for span in self._named(name)
                   if (span.attrs or {}).get(attr))
