"""Special Function Unit (SFU) datapath and its shared-unit controller.

The G80 provides only two SFUs per streaming multiprocessor, shared by all
lanes; transcendental instructions are therefore serialised through a small
controller that routes one thread at a time onto a free unit.  The paper
found that *controller* corruption — not the polynomial datapath — is what
turns a single transient into multi-thread SDCs (Sec. V-B), and that the
extra control signals make the SFU's DUE AVF the highest among the
functional units.  This model reproduces both mechanisms:

* the datapath is an iterative fixed-point Horner evaluator whose
  accumulator/coefficient registers live on the fault plane (faults there
  corrupt a single thread's value), and
* the controller's pending-count / routing registers also live on the
  fault plane: a flipped ``group_base`` misroutes the results of the whole
  thread group, and a corrupted ``pending_count`` makes the serialisation
  loop run away, which the watchdog converts into a DUE.

Within the paper's operational range (inputs in ``[0, pi/2]``, chosen to
avoid range reduction) the fault-free datapath matches ``math.sin`` /
``math.exp`` to a few float32 ulps, comparable to a real SFU's accuracy.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..errors import GpuHangError
from .bits import bits_to_float, float_to_bits
from .fault_plane import FaultPlane, FlipFlop, ModuleName
from .isa import Opcode

__all__ = ["SfuDatapath", "SfuController", "SFU_INPUT_MAX"]

#: Operational input bound (paper Sec. V-A: inputs in [0, pi/2]).
SFU_INPUT_MAX = math.pi / 2

_FRAC_BITS = 29  # Q4.29 fixed point: range (-16, 16), resolution 2^-29
_FIXED_ONE = 1 << _FRAC_BITS
_ACC_MASK = (1 << 34) - 1

# Taylor coefficients (highest degree first) in Q4.29, for Horner evaluation.
_SIN_COEFFS = tuple(
    round(c * _FIXED_ONE)
    for c in (
        1.0 / math.factorial(13),
        0.0,
        -1.0 / math.factorial(11),
        0.0,
        1.0 / math.factorial(9),
        0.0,
        -1.0 / math.factorial(7),
        0.0,
        1.0 / math.factorial(5),
        0.0,
        -1.0 / math.factorial(3),
        0.0,
        1.0,
        0.0,
    )
)
_EXP_COEFFS = tuple(
    round(_FIXED_ONE / math.factorial(k)) for k in range(13, -1, -1)
)


def _to_fixed(x: float) -> int:
    """Convert a float to saturated signed Q4.29."""
    if x != x:  # NaN
        return 0
    scaled = int(round(x * _FIXED_ONE))
    limit = (1 << 33) - 1
    return max(-limit, min(limit, scaled))


def _from_fixed(v: int) -> float:
    return v / _FIXED_ONE


def _signed34(v: int) -> int:
    v &= _ACC_MASK
    if v & (1 << 33):
        v -= 1 << 34
    return v


class SfuDatapath:
    """One of the two iterative polynomial SFU pipelines."""

    _REGISTERS = (
        ("dp.x", 34, "data"),
        ("dp.coeff", 34, "data"),
        ("dp.acc", 34, "data"),
        ("dp.stage", 4, "control"),
        ("dp.result", 32, "data"),
    )

    def __init__(self, plane: FaultPlane, unit: int,
                 module: str = ModuleName.SFU) -> None:
        self.plane = plane
        self.unit = unit
        self.module = module
        plane.bind(self)
        for name, width, kind in self._REGISTERS:
            plane.declare(FlipFlop(module, name, width, unit, kind))

    def _latch(self, name: str, value: int, width: int) -> int:
        mask = (1 << width) - 1
        if self.passive:  # hot path
            return value & mask
        return self.plane.latch(self.module, name, value & mask, self.unit) & mask

    def compute(self, opcode: Opcode, input_bits: int) -> int:
        """Evaluate FSIN, FEXP or RCP on one FP32 input; FP32 bits out."""
        if opcode is Opcode.RCP:
            return self._reciprocal(input_bits)
        x = bits_to_float(input_bits)
        if opcode is Opcode.FSIN:
            coeffs = _SIN_COEFFS
            sign = -1.0 if x < 0 else 1.0
            x = min(abs(x), SFU_INPUT_MAX)
        elif opcode is Opcode.FEXP:
            coeffs = _EXP_COEFFS
            sign = 1.0
            x = min(max(x, 0.0), SFU_INPUT_MAX)
        else:
            raise ValueError(f"SFU cannot execute {opcode}")

        x_fixed = _signed34(self._latch("dp.x", _to_fixed(x), 34))
        acc = 0
        for stage in range(len(coeffs)):
            # the stage counter addresses the coefficient ROM, so a flipped
            # dp.stage selects the wrong coefficient (out-of-range -> zero)
            stage = self._latch("dp.stage", stage, 4)
            coeff = coeffs[stage] if stage < len(coeffs) else 0
            coeff = _signed34(self._latch("dp.coeff", coeff, 34))
            acc = coeff + ((acc * x_fixed) >> _FRAC_BITS)
            acc = _signed34(self._latch("dp.acc", acc, 34))
        # one tick per evaluation: the iterative unit is deeply pipelined,
        # sustaining one transcendental result per cycle per SFU
        self.plane.tick()
        value = sign * _from_fixed(acc)
        result = self._latch("dp.result", float_to_bits(value), 32)
        return result

    def _reciprocal(self, input_bits: int) -> int:
        """MUFU.RCP: Newton-Raphson on the normalised mantissa.

        ``rcp(s * m * 2^e) = s * rcp(m) * 2^-e`` with ``m`` in [1, 2);
        three latched iterations of ``y <- y * (2 - m*y)`` reach float32
        accuracy, like the quadratic-convergence hardware schemes.
        """
        x = bits_to_float(input_bits)
        if x != x:  # NaN
            return self._latch("dp.result", 0x7FC00000, 32)
        if x == 0.0:
            return self._latch("dp.result",
                               float_to_bits(math.copysign(
                                   float("inf"), x)), 32)
        if math.isinf(x):
            return self._latch("dp.result",
                               float_to_bits(math.copysign(0.0, x)), 32)
        mantissa, exponent = math.frexp(abs(x))  # mantissa in [0.5, 1)
        m_fixed = _signed34(self._latch("dp.x", _to_fixed(mantissa), 34))
        # y0 ~ 48/17 - 32/17 * m (optimal linear seed for m in [0.5, 1))
        acc = _to_fixed(48.0 / 17.0) - ((_to_fixed(32.0 / 17.0) * m_fixed)
                                        >> _FRAC_BITS)
        acc = _signed34(self._latch("dp.acc", acc, 34))
        two = _to_fixed(2.0)
        # the stage counter sequences the Newton iterations; a flipped
        # dp.stage cuts iterations short (inaccurate result) or repeats
        # converged ones (masked)
        stage = self._latch("dp.stage", 0, 4)
        while stage < 3:
            my = (m_fixed * acc) >> _FRAC_BITS
            acc = (acc * (two - my)) >> _FRAC_BITS
            acc = _signed34(self._latch("dp.acc", acc, 34))
            stage = self._latch("dp.stage", stage + 1, 4)
        self.plane.tick()
        value = math.copysign(
            math.ldexp(_from_fixed(acc), -exponent), x)
        return self._latch("dp.result", float_to_bits(value), 32)


class SfuController:
    """Serialises a thread group through the two shared SFU datapaths."""

    _REGISTERS = (
        ("ctrl.pending_count", 7, "control"),
        ("ctrl.current_index", 6, "control"),
        ("ctrl.unit_sel", 1, "control"),
        ("ctrl.group_base", 6, "control"),
        ("ctrl.dest_lane", 6, "control"),
        ("ctrl.opcode_sel", 2, "control"),
        ("ctrl.busy", 2, "control"),
    )

    #: Runaway slack: the controller legitimately needs exactly one
    #: iteration per queued thread; a corrupted pending count that exceeds
    #: this bound is a hang the watchdog turns into a DUE.
    _RUNAWAY_SLACK = 16

    def __init__(self, plane: FaultPlane, n_units: int = 2,
                 module: str = ModuleName.SFU_CONTROLLER) -> None:
        self.plane = plane
        self.module = module
        plane.bind(self)
        self.units = [SfuDatapath(plane, unit) for unit in range(n_units)]
        for name, width, kind in self._REGISTERS:
            plane.declare(FlipFlop(module, name, width, -1, kind))

    def _latch(self, name: str, value: int, width: int) -> int:
        mask = (1 << width) - 1
        if self.passive:  # hot path: nothing to intercept
            return value & mask
        return self.plane.latch(self.module, name, value & mask, -1) & mask

    def execute(self, opcode: Opcode, inputs: Sequence[Tuple[int, int]]
                ) -> Dict[int, int]:
        """Run FSIN/FEXP for ``(thread_id, input_bits)`` pairs.

        Returns ``{thread_id: result_bits}``.  Under controller corruption
        results may land on the wrong thread, threads may be skipped or
        recomputed, or the loop may run away (raising
        :class:`~repro.errors.GpuHangError`, classified as a DUE).
        """
        if not inputs:
            return {}
        queue: List[Tuple[int, int]] = list(inputs)
        opcode_sel = {Opcode.FSIN: 0, Opcode.FEXP: 1, Opcode.RCP: 2}
        self._latch("ctrl.opcode_sel", opcode_sel.get(opcode, 0), 2)
        base = self._latch("ctrl.group_base", queue[0][0], 6)
        pending = self._latch("ctrl.pending_count", len(queue), 7)
        results: Dict[int, int] = {}
        index = 0
        iterations = 0
        runaway_bound = len(queue) + self._RUNAWAY_SLACK
        while pending > 0:
            iterations += 1
            if iterations > runaway_bound:
                raise GpuHangError(
                    "SFU controller runaway: pending count never drained")
            cur = self._latch("ctrl.current_index", index, 6)
            thread_id, input_bits = queue[cur % len(queue)]
            unit_sel = self._latch("ctrl.unit_sel", iterations & 1, 1)
            self._latch("ctrl.busy", 1 << unit_sel, 2)
            value = self.units[unit_sel].compute(opcode, input_bits)
            # destination routing: group base + offset within the group
            offset = thread_id - queue[0][0]
            dest = self._latch("ctrl.dest_lane", base + offset, 6)
            results[dest % 64] = value
            index += 1
            pending = self._latch("ctrl.pending_count", pending - 1, 7)
            self.plane.tick()
        self._latch("ctrl.busy", 0, 2)
        return results
