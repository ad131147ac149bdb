"""Memory structures of the streaming multiprocessor.

The paper *excludes* memories (register file, caches, shared memory) from
fault injection because GPUs deployed with strict reliability requirements
protect them with ECC, and a memory fault's syndrome is the well-understood
single/double bit-flip.  Accordingly these structures are **not** declared
on the fault plane — they are plain, reliable storage — but they do detect
illegal accesses, which is one of the ways corrupted control state becomes
a DUE.

Both structures are part of the SM's cross-step state (see
:meth:`~repro.gpu.sm.StreamingMultiprocessor.snapshot`), stored as
**deltas from the launch image**: every write remembers the launch value
of its cell the first time it lands after :meth:`seal_image`, so
:meth:`delta` lists just the cells written since the launch and
:meth:`restore` puts one back.  A kernel writes a few hundred of the
64Ki memory words, so a delta costs a fraction of a full copy.
"""

from __future__ import annotations

from struct import pack
from typing import Dict, Iterable, List, Tuple

from ..errors import MemoryFaultError, RegisterFaultError
from .bits import MASK32, bits_to_float, float_to_bits

__all__ = ["GlobalMemory", "RegisterFile", "Delta"]

#: ``(cells, values)``: the indices of the cells written since the
#: launch, in first-write order, and their current values — two byte
#: strings of native 32-bit words, four bytes a cell (``struct`` is
#: loaded anyway; ``array`` would map one more extension module).
#: Equal deltas mean equal contents.  Equal contents reached through
#: another write order (or with a cell written back to its launch value)
#: give unequal deltas; a fault run compared with golden then just
#: simulates on.
Delta = Tuple[bytes, bytes]


def _delta(values: list, origin: Dict[int, int]) -> Delta:
    """The cells of *values* that *origin* records as written."""
    words = f"{len(origin)}I"
    return (pack(words, *origin),
            pack(words, *map(values.__getitem__, origin)))


def _restore(values: list, origin: Dict[int, int], delta: Delta) -> None:
    """Reset *values* to the launch image, then apply *delta*."""
    for i, first in origin.items():
        values[i] = first
    origin.clear()
    cells, written = delta
    for i, value in zip(memoryview(cells).cast("I"),
                        memoryview(written).cast("I")):
        origin[i] = values[i]
        values[i] = value


class GlobalMemory:
    """Word-addressed (32-bit) global memory with bounds checking."""

    def __init__(self, n_words: int) -> None:
        if n_words <= 0:
            raise ValueError("memory size must be positive")
        self.n_words = n_words
        self._words: List[int] = [0] * n_words
        #: address -> launch-image value of each word stored since
        #: :meth:`seal_image`
        self._origin: Dict[int, int] = {}

    def load(self, address: int) -> int:
        self._check(address)
        return self._words[address]

    def store(self, address: int, value: int) -> None:
        self._check(address)
        if address not in self._origin:
            self._origin[address] = self._words[address]
        self._words[address] = value & MASK32

    def seal_image(self) -> None:
        """Take the current contents as the launch image."""
        self._origin.clear()

    def delta(self) -> Delta:
        """Every word stored since the launch image, with its value."""
        return _delta(self._words, self._origin)

    def restore(self, delta: Delta) -> None:
        """Set the contents to the launch image plus *delta*."""
        _restore(self._words, self._origin, delta)

    def load_float(self, address: int) -> float:
        return bits_to_float(self.load(address))

    def store_float(self, address: int, value: float) -> None:
        self.store(address, float_to_bits(value))

    def write_words(self, base: int, values: Iterable[int]) -> None:
        for offset, value in enumerate(values):
            self.store(base + offset, value)

    def write_floats(self, base: int, values: Iterable[float]) -> None:
        for offset, value in enumerate(values):
            self.store_float(base + offset, value)

    def read_words(self, base: int, count: int) -> List[int]:
        return [self.load(base + i) for i in range(count)]

    def read_floats(self, base: int, count: int) -> List[float]:
        return [self.load_float(base + i) for i in range(count)]

    def snapshot(self) -> List[int]:
        """Copy of the full memory contents (for golden comparison)."""
        return list(self._words)

    def _check(self, address: int) -> None:
        if not 0 <= address < self.n_words:
            raise MemoryFaultError(
                f"access to word address {address:#x} outside the "
                f"{self.n_words}-word global memory")


class RegisterFile:
    """Per-thread general-purpose registers and 1-bit predicate registers.

    ECC-protected by default, matching the paper's assumption for GPUs in
    reliability-critical deployments: not an injection target, but an
    out-of-range index (produced by corrupted pipeline control registers)
    raises :class:`~repro.errors.RegisterFaultError`, which the campaign
    classifies as a DUE.

    With ``ecc=False`` and a fault plane, every register write is routed
    through the plane under the module name ``"register_file"`` — the
    experiment that *validates* the paper's premise (Fig. 1) that a
    memory-cell fault translates directly into a bit-flipped value with
    no further transformation: its output syndrome is exactly the
    single-bit-flip model software injectors traditionally use.
    """

    N_PREDICATES = 8
    MODULE = "register_file"

    def __init__(self, n_threads: int, n_registers: int = 64,
                 plane=None, ecc: bool = True) -> None:
        self.n_threads = n_threads
        self.n_registers = n_registers
        #: ``thread * n_registers + index`` -> value, and likewise
        #: ``thread * N_PREDICATES + index`` for the predicates, each
        #: with the launch value of every cell written since
        #: :meth:`seal_image`
        self._regs: List[int] = [0] * (n_threads * n_registers)
        self._reg_origin: Dict[int, int] = {}
        self._preds: List[int] = [0] * (n_threads * self.N_PREDICATES)
        self._pred_origin: Dict[int, int] = {}
        self._plane = None
        if plane is not None and not ecc:
            from .fault_plane import FlipFlop

            self._plane = plane
            for thread in range(n_threads):
                for index in range(n_registers):
                    plane.declare(FlipFlop(
                        self.MODULE, f"r{index}", 32, thread, "data"))

    def read(self, thread: int, index: int) -> int:
        self._check(thread, index)
        if self._plane is not None:
            self._resolve_fault(thread, index, erase=False)
        return self._regs[thread * self.n_registers + index]

    def write(self, thread: int, index: int, value: int) -> None:
        self._check(thread, index)
        if self._plane is not None:
            # a pending flip on this cell is overwritten before any read
            # could consume it: it fired, but left no trace (masked)
            self._resolve_fault(thread, index, erase=True)
        self._set(thread * self.n_registers + index, value & MASK32)

    def _set(self, cell: int, value: int) -> None:
        if cell not in self._reg_origin:
            self._reg_origin[cell] = self._regs[cell]
        self._regs[cell] = value

    def seal_image(self) -> None:
        """Take the current contents as the launch image."""
        self._reg_origin.clear()
        self._pred_origin.clear()

    def delta(self) -> Tuple[Delta, Delta]:
        """Register and predicate cells written since the launch image."""
        return (_delta(self._regs, self._reg_origin),
                _delta(self._preds, self._pred_origin))

    def restore(self, delta: Tuple[Delta, Delta]) -> None:
        """Set the contents to the launch image plus *delta*."""
        _restore(self._regs, self._reg_origin, delta[0])
        _restore(self._preds, self._pred_origin, delta[1])

    def _resolve_fault(self, thread: int, index: int, erase: bool) -> None:
        """SRAM semantics: flip the stored cell at the injection instant.

        The flip becomes visible at the first *read* of the cell after the
        fault cycle; a *write* landing first erases it.  Either way the
        transient is consumed exactly once.
        """
        armed = self._plane.armed_fault
        if armed is None or armed.fired_cycle is not None:
            return
        ff = armed.flipflop
        if (ff.module != self.MODULE or ff.lane != thread
                or ff.name != f"r{index}"):
            return
        if self._plane.cycle < armed.cycle:
            return
        armed.fired_cycle = self._plane.cycle
        if not erase:
            cell = thread * self.n_registers + index
            self._set(cell, self._regs[cell] ^ armed.mask)

    def read_predicate(self, thread: int, index: int) -> bool:
        self._check_pred(thread, index)
        return self._preds[thread * self.N_PREDICATES + index] == 1

    def write_predicate(self, thread: int, index: int, value: bool) -> None:
        self._check_pred(thread, index)
        cell = thread * self.N_PREDICATES + index
        if cell not in self._pred_origin:
            self._pred_origin[cell] = self._preds[cell]
        self._preds[cell] = 1 if value else 0

    def _check(self, thread: int, index: int) -> None:
        if not 0 <= thread < self.n_threads:
            raise RegisterFaultError(f"thread {thread} out of range")
        if not 0 <= index < self.n_registers:
            raise RegisterFaultError(
                f"register R{index} outside the {self.n_registers}-register "
                "file")

    def _check_pred(self, thread: int, index: int) -> None:
        if not 0 <= thread < self.n_threads:
            raise RegisterFaultError(f"thread {thread} out of range")
        if not 0 <= index < self.N_PREDICATES:
            raise RegisterFaultError(f"predicate P{index} out of range")
