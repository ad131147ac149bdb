"""Bit-level 32-bit integer functional unit (add / multiply / multiply-add).

Mirrors the INT execution path of the RTL model: operand registers, a
carry-save style partial-product pair for the multiplier, and a result
register, all declared on the fault plane.  Semantics follow SASS IADD /
IMUL / IMAD on ``s32`` operands: two's-complement, modulo 2^32 (the low 32
bits of products, as SASS IMUL returns by default).
"""

from __future__ import annotations

from .bits import MASK32
from .fault_plane import FaultPlane, FlipFlop, ModuleName

__all__ = ["IntUnit"]


class IntUnit:
    """Per-lane integer pipelines (one per SIMT lane)."""

    _REGISTERS = (
        ("opnd.a", 32, "data"),
        ("opnd.b", 32, "data"),
        ("opnd.c", 32, "data"),
        # adder: low/high halves latched with the inter-half carry
        ("add.sum_lo", 16, "data"),
        ("add.carry", 1, "data"),
        ("add.sum_hi", 16, "data"),
        # multiplier: two 48-bit partial products (a * b_lo16, a * b_hi16)
        ("mul.pp0", 48, "data"),
        ("mul.pp1", 48, "data"),
        # barrel shifter / logic unit (extended opcodes)
        ("shift.amount", 5, "data"),
        ("shift.stage", 32, "data"),
        ("logic.mask", 32, "data"),
        ("result", 32, "data"),
    )

    def __init__(self, plane: FaultPlane, n_lanes: int = 8,
                 module: str = ModuleName.INT) -> None:
        self.plane = plane
        self.n_lanes = n_lanes
        self.module = module
        plane.bind(self)
        for lane in range(n_lanes):
            for name, width, kind in self._REGISTERS:
                plane.declare(FlipFlop(module, name, width, lane, kind))

    def _latch(self, name: str, value: int, lane: int, width: int) -> int:
        mask = (1 << width) - 1
        if self.passive:  # hot path: nothing to intercept
            return value & mask
        return self.plane.latch(self.module, name, value & mask, lane) & mask

    # -- operations -----------------------------------------------------------
    def iadd(self, a: int, b: int, lane: int) -> int:
        """IADD: 32-bit two's-complement addition (modulo 2^32)."""
        a = self._latch("opnd.a", a, lane, 32)
        b = self._latch("opnd.b", b, lane, 32)
        return self._add_datapath(a, b, lane)

    def imul(self, a: int, b: int, lane: int) -> int:
        """IMUL: low 32 bits of the 32x32 product."""
        a = self._latch("opnd.a", a, lane, 32)
        b = self._latch("opnd.b", b, lane, 32)
        product = self._mul_datapath(a, b, lane)
        return self._latch("result", product, lane, 32)

    def imad(self, a: int, b: int, c: int, lane: int) -> int:
        """IMAD: ``a * b + c`` modulo 2^32."""
        a = self._latch("opnd.a", a, lane, 32)
        b = self._latch("opnd.b", b, lane, 32)
        c = self._latch("opnd.c", c, lane, 32)
        product = self._mul_datapath(a, b, lane)
        return self._add_datapath(product, c, lane)

    def shl(self, a: int, b: int, lane: int) -> int:
        """SHL: logical left shift by the low 5 bits of *b*."""
        return self._shift(a, b, lane, left=True)

    def shr(self, a: int, b: int, lane: int) -> int:
        """SHR: logical right shift by the low 5 bits of *b*."""
        return self._shift(a, b, lane, left=False)

    def lop(self, op: str, a: int, b: int, lane: int) -> int:
        """LOP.AND / LOP.OR / LOP.XOR bitwise logic."""
        a = self._latch("opnd.a", a, lane, 32)
        b = self._latch("logic.mask", b, lane, 32)
        if op == "AND":
            value = a & b
        elif op == "OR":
            value = a | b
        elif op == "XOR":
            value = a ^ b
        else:
            raise ValueError(f"unknown logic op {op!r}")
        return self._latch("result", value, lane, 32)

    def _shift(self, a: int, b: int, lane: int, left: bool) -> int:
        """Two-stage barrel shifter with a latched mid-stage."""
        a = self._latch("opnd.a", a, lane, 32)
        amount = self._latch("shift.amount", b & 0x1F, lane, 5)
        coarse, fine = amount & 0x1C, amount & 0x3
        stage = (a << coarse) if left else (a >> coarse)
        stage = self._latch("shift.stage", stage, lane, 32)
        value = (stage << fine) if left else (stage >> fine)
        return self._latch("result", value, lane, 32)

    # -- datapaths --------------------------------------------------------------
    def _add_datapath(self, a: int, b: int, lane: int) -> int:
        """Ripple the sum through low/high half registers with a carry FF."""
        lo = (a & 0xFFFF) + (b & 0xFFFF)
        carry = lo >> 16
        lo = self._latch("add.sum_lo", lo, lane, 16)
        carry = self._latch("add.carry", carry, lane, 1)
        hi = (a >> 16) + (b >> 16) + carry
        hi = self._latch("add.sum_hi", hi, lane, 16)
        return self._latch("result", (hi << 16) | lo, lane, 32)

    def _mul_datapath(self, a: int, b: int, lane: int) -> int:
        """Two-step partial-product multiplier, low 32 bits."""
        pp0 = a * (b & 0xFFFF)
        pp1 = a * (b >> 16)
        pp0 = self._latch("mul.pp0", pp0, lane, 48)
        pp1 = self._latch("mul.pp1", pp1, lane, 48)
        return (pp0 + (pp1 << 16)) & MASK32
