"""Instrumented SASS-level operation layer (the NVBitFI substitute).

NVBitFI instruments a real binary's SASS stream: it counts the dynamic
instructions a kernel executes, picks one at random, and corrupts that
instruction's destination register before execution continues.  Binary
instrumentation is not reproducible in pure Python, so applications in
this library are written against this explicit op layer instead: every
arithmetic/memory/control SASS-equivalent goes through a :class:`SassOps`
method, which

* in **profile** mode counts dynamic instructions per opcode (one per
  array element — Figure 3's profiles), and
* in **inject** mode corrupts the output of exactly one chosen dynamic
  instruction using a pluggable fault model, then lets execution continue
  — precisely NVBitFI's observable semantics.

Fault-free, every op computes the same float32/int32 result a GPU kernel
would (numpy single-precision semantics).  Reduced-precision apps
construct the layer with ``precision="fp16"`` or ``"bf16"``: float ops
then compute in that format (fp16 through ``np.float16``; bf16 as
binary32 arrays re-rounded to the top 16 bits after every op, the way
mixed-precision tensor kernels accumulate), while integer and control
ops are unchanged.

Corrupted values legitimately overflow or turn NaN downstream, and a GPU
does not trap on IEEE exceptions either.  The ops therefore compute under
one :func:`no_fp_traps` context that the caller enters once per app
execution (every injector, profiler and golden pass does), not one per
op: the per-op hot path costs only the arithmetic it models.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from ..gpu.isa import Opcode

__all__ = ["SassOps", "ArrayLike", "no_fp_traps"]

ArrayLike = Union[np.ndarray, float, int]

#: Opcodes the software injector can target (the characterised twelve).
INJECTABLE_OPCODES = (
    Opcode.FADD, Opcode.FMUL, Opcode.FFMA,
    Opcode.IADD, Opcode.IMUL, Opcode.IMAD,
    Opcode.FSIN, Opcode.FEXP,
    Opcode.GLD, Opcode.GST,
    Opcode.BRA, Opcode.ISET,
)

#: Opcode by counter position: the op counters are a list in this order,
#: so counting an op indexes a list instead of hashing an enum member.
_OPCODES = tuple(Opcode)
(_FADD, _FMUL, _FFMA, _IADD, _IMUL, _IMAD, _FSIN, _FEXP, _GLD, _GST, _BRA,
 _ISET, _RCP, _SHL, _SHR, _LOP_AND, _LOP_OR, _LOP_XOR, _F2I, _I2F) = (
    _OPCODES.index(op) for op in INJECTABLE_OPCODES + (
        Opcode.RCP, Opcode.SHL, Opcode.SHR, Opcode.LOP_AND, Opcode.LOP_OR,
        Opcode.LOP_XOR, Opcode.F2I, Opcode.I2F))


def no_fp_traps():
    """The FP environment of one app execution through :class:`SassOps`.

    IEEE exception flags are ignored for the whole run, whatever the
    caller's ``np.seterr`` settings: results and outcomes never depend on
    them.  Enter it once around everything that drives ops (the app run
    and its classification), never per op.
    """
    return np.errstate(all="ignore")


class SassOps:
    """Instrumented vectorised SASS operations.

    ``corruptor`` is ``None`` for plain/profile execution, or a callable
    ``(opcode, golden_value, operands, is_float) -> corrupted_value``
    applied to the single targeted dynamic instruction.  ``target`` is the
    global dynamic-instruction index (over injectable opcodes only) whose
    output gets corrupted.  ``precision`` selects the float format the
    arithmetic ops compute in; corruptors receive their precision at
    model-bind time (:meth:`repro.swfi.models.FaultModel.__call__`), so
    the corruptor protocol itself is unchanged.  All four are fixed at
    construction.
    """

    def __init__(self, target: Optional[int] = None,
                 corruptor: Optional[Callable] = None,
                 span: int = 1, precision: str = "fp32") -> None:
        if span < 1:
            raise ValueError("span must be at least 1")
        if precision not in ("fp32", "fp16", "bf16"):
            raise ValueError(f"unknown float precision {precision!r}")
        self.precision = precision
        self._bf16 = precision == "bf16"
        self._float_dtype = np.dtype(np.float16 if precision == "fp16"
                                     else np.float32)
        self._counts = [0] * len(_OPCODES)
        self.other_count = 0
        self.dynamic_index = 0  # position over injectable opcodes
        self.target = target
        self.corruptor = corruptor
        #: dynamic instructions corrupted starting at ``target``: adjacent
        #: dynamic instructions of one op are adjacent SIMT threads, so a
        #: span > 1 models the multi-thread corruption the RTL campaigns
        #: attribute to scheduler/pipeline control faults
        self.span = span
        # the corrupted window [lo, hi); empty unless targeted
        armed = target is not None and corruptor is not None
        self._hit_lo = target if armed else 0
        self._hit_hi = target + span if armed else 0
        #: opcode of the *targeted* instruction (the one at ``target``);
        #: a span crossing an op boundary corrupts later ops too, but the
        #: injection is attributed to the first
        self.injected: Optional[Opcode] = None
        #: every opcode that had at least one element corrupted, in
        #: execution order (len > 1 iff the span crossed an op boundary)
        self.corrupted_opcodes: List[Opcode] = []
        self.n_corrupted = 0

    # -- bookkeeping ------------------------------------------------------------
    @property
    def counts(self) -> Mapping[Opcode, int]:
        """Dynamic instructions executed so far per opcode (read-only)."""
        return MappingProxyType(dict(zip(_OPCODES, self._counts)))

    @property
    def injectable_total(self) -> int:
        return self.dynamic_index

    @property
    def total(self) -> int:
        return self.dynamic_index + self.other_count

    def profile(self) -> Dict[Opcode, int]:
        """Dynamic opcode histogram (the Figure 3 data for one app)."""
        return {op: n for op, n in zip(_OPCODES, self._counts) if n > 0}

    def other(self, count: int = 1) -> None:
        """Account for uncharacterised instructions (Fig. 3's "Others")."""
        self.other_count += int(count)

    # -- core instrumentation ------------------------------------------------------
    def _record(self, index: int, result: np.ndarray,
                operands: "tuple", is_float: bool) -> np.ndarray:
        """Count *n* dynamic instructions; corrupt any in the target span."""
        n = result.size
        self._counts[index] += n
        start = self.dynamic_index
        self.dynamic_index = start + n
        if not (start < self._hit_hi and start + n > self._hit_lo and n):
            return result
        opcode = _OPCODES[index]
        result = result.copy()
        flat = result.reshape(-1)
        lo = max(self._hit_lo, start)
        hi = min(self._hit_hi, start + n)
        for offset in range(lo - start, hi - start):
            element_operands = tuple(
                _element(op, offset) for op in operands)
            flat[offset] = self.corruptor(
                opcode, flat[offset].item(), element_operands, is_float)
            self.n_corrupted += 1
        self.corrupted_opcodes.append(opcode)
        if self.injected is None:
            self.injected = opcode
        return result

    # -- float coercion and rounding ------------------------------------------------
    def _fp(self, value: ArrayLike) -> np.ndarray:
        """Coerce an operand into the layer's float storage format."""
        if self._bf16:
            return _bf16_quantize(np.asarray(value, dtype=np.float32))
        if type(value) is np.ndarray and value.dtype is self._float_dtype:
            return value
        return np.asarray(value, dtype=self._float_dtype)

    def _fq(self, result: np.ndarray) -> np.ndarray:
        """Round a float op result to the storage format (bf16 only —
        fp16/fp32 results are already produced in their dtype)."""
        if self._bf16:
            return _bf16_quantize(result)
        return result

    # -- float arithmetic -----------------------------------------------------------
    def fadd(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = self._fp(a), self._fp(b)
        return self._record(_FADD, self._fq(a + b), (a, b), True)

    def fmul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = self._fp(a), self._fp(b)
        return self._record(_FMUL, self._fq(a * b), (a, b), True)

    def ffma(self, a: ArrayLike, b: ArrayLike, c: ArrayLike) -> np.ndarray:
        a, b, c = self._fp(a), self._fp(b), self._fp(c)
        if self.precision == "fp16":
            # fused: the binary32 product+sum is exact enough that
            # the final cast is the single rounding (2p+2 <= 24)
            result = (a.astype(np.float32) * b.astype(np.float32)
                      + c.astype(np.float32)).astype(np.float16)
        else:
            # bf16 FMA accumulates in binary32 and rounds once, the
            # way tensor-core mixed-precision kernels do
            result = self._fq(a * b + c)
        return self._record(_FFMA, result, (a, b, c), True)

    # -- int32 arithmetic ----------------------------------------------------------------
    def iadd(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = _i32(a), _i32(b)
        return self._record(_IADD, a + b, (a, b), False)

    def imul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = _i32(a), _i32(b)
        return self._record(_IMUL, a * b, (a, b), False)

    def imad(self, a: ArrayLike, b: ArrayLike, c: ArrayLike) -> np.ndarray:
        a, b, c = _i32(a), _i32(b), _i32(c)
        return self._record(_IMAD, a * b + c, (a, b, c), False)

    # -- special functions ------------------------------------------------------------------
    def fsin(self, a: ArrayLike) -> np.ndarray:
        a = self._fp(a)
        result = self._fq(np.sin(a, dtype=self._float_dtype))
        return self._record(_FSIN, result, (a,), True)

    def fexp(self, a: ArrayLike) -> np.ndarray:
        a = self._fp(a)
        result = self._fq(np.exp(a, dtype=self._float_dtype))
        return self._record(_FEXP, result, (a,), True)

    # -- memory movement -----------------------------------------------------------------------
    def gld(self, values: np.ndarray) -> np.ndarray:
        """Global load: one GLD per element read."""
        values = np.asarray(values)
        return self._record(_GLD, values.copy(), (values,),
                            values.dtype.kind == "f")

    def gst(self, values: np.ndarray) -> np.ndarray:
        """Global store: one GST per element written; returns store data."""
        values = np.asarray(values)
        return self._record(_GST, values.copy(), (values,),
                            values.dtype.kind == "f")

    # -- extended (profiled, not injectable) opcodes --------------------------------
    def _record_extended(self, index: int,
                         result: np.ndarray) -> np.ndarray:
        """Count dynamic instructions outside the characterised twelve.

        They appear in the Figure 3 profile (under "Others") but are not
        injection targets: the paper only injects the opcodes its RTL
        campaigns characterised.
        """
        self._counts[index] += result.size
        return result

    def rcp(self, a: ArrayLike) -> np.ndarray:
        """MUFU.RCP: reciprocal on the SFU path."""
        a = self._fp(a)
        result = (np.float32(1.0) / a.astype(np.float32)).astype(
            self._float_dtype)
        return self._record_extended(_RCP, self._fq(result))

    def shl(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = _i32(a), _i32(b)
        return self._record_extended(_SHL, np.left_shift(a, b & 31))

    def shr(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = _i32(a), _i32(b)
        unsigned = a.astype(np.uint32) >> (b & 31).astype(np.uint32)
        return self._record_extended(_SHR, unsigned.astype(np.int32))

    def lop_and(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        return self._record_extended(_LOP_AND, _i32(a) & _i32(b))

    def lop_or(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        return self._record_extended(_LOP_OR, _i32(a) | _i32(b))

    def lop_xor(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        return self._record_extended(_LOP_XOR, _i32(a) ^ _i32(b))

    def f2i(self, a: ArrayLike) -> np.ndarray:
        a = self._fp(a)
        return self._record_extended(
            _F2I, np.nan_to_num(a).astype(np.int32))

    def i2f(self, a: ArrayLike) -> np.ndarray:
        return self._record_extended(
            _I2F, self._fq(_i32(a).astype(self._float_dtype)))

    # -- control flow ------------------------------------------------------------------------------
    def iset(self, a: ArrayLike, b: ArrayLike, op: str = "lt") -> np.ndarray:
        """Integer set: elementwise comparison producing int32 0/1 flags."""
        a, b = _i32(a), _i32(b)
        compare = _COMPARATORS[op]
        flags = compare(a, b).astype(np.int32)
        return self._record(_ISET, flags, (a, b), False)

    def fset(self, a: ArrayLike, b: ArrayLike, op: str = "lt") -> np.ndarray:
        """Float comparison producing int32 flags (counted as ISET)."""
        a, b = self._fp(a), self._fp(b)
        compare = _COMPARATORS[op]
        flags = compare(a, b).astype(np.int32)
        return self._record(_ISET, flags, (a, b), False)

    def bra(self, condition: bool) -> bool:
        """Branch: one dynamic BRA; corruption flips the direction."""
        if self._hit_lo <= self.dynamic_index < self._hit_hi:
            flag = np.array([1 if condition else 0], dtype=np.int32)
            flag = self._record(_BRA, flag, (flag,), False)
            return bool(flag[0] & 1)
        self._counts[_BRA] += 1
        self.dynamic_index += 1
        return bool(condition)


_INT32 = np.dtype(np.int32)


def _i32(value: ArrayLike) -> np.ndarray:
    if type(value) is np.ndarray and value.dtype is _INT32:
        return value
    return np.asarray(value, dtype=np.int64).astype(np.int32)


def _bf16_quantize(values: np.ndarray) -> np.ndarray:
    """Round binary32 values to bfloat16, kept in a binary32 array.

    Nearest-even on the top 16 bits, the storage convention mixed-
    precision kernels use for bf16 tensors on hardware without a native
    numpy dtype.  NaNs map to the canonical quiet NaN.
    """
    values = np.ascontiguousarray(values, dtype=np.float32)
    bits = values.view(np.uint32)
    rounding = np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
    rounded = (bits + rounding) & np.uint32(0xFFFF0000)
    rounded = np.where(np.isnan(values), np.uint32(0x7FC00000), rounded)
    return rounded.view(np.float32).reshape(values.shape)


def _element(operand: np.ndarray, offset: int):
    arr = np.asarray(operand)
    if arr.size == 1:
        return arr.reshape(-1)[0].item()
    return arr.reshape(-1)[offset % arr.size].item()


_COMPARATORS = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}
