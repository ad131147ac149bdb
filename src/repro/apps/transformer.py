"""Transformer-block workload for mixed-precision fault injection.

A single-head transformer encoder block — Q/K/V projections, scaled
dot-product attention, output projection, residual adds and a two-layer
feed-forward network — lowered entirely onto the instrumented tiled-MxM
kernel of :mod:`repro.apps.cnn.tensor_ops`, followed by a mean-pool +
linear classifier head.  Every GEMM carries a ``layer_id`` so the t-MxM
tile-corruption procedure (Sec. IV-B) can strike any of the block's
matrix products, exactly as it does for the CNN workloads.

The block runs at a selectable float precision ("fp32"/"fp16"/"bf16"):
the app only declares its :attr:`precision`, and the
:class:`~repro.swfi.ops.SassOps` layer quantises every operand and
result into that storage format, so golden and injected runs share
identical reduced-precision arithmetic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..rng import make_rng
from ..swfi.ops import SassOps
from .base import GPUApplication, application_name
from .cnn.metrics import is_misclassification
from .cnn.tensor_ops import TileHook, linear, relu, softmax, tiled_matmul

__all__ = ["TransformerBlockApp"]

#: the block's GEMMs, in execution order; each is one t-MxM layer
_MXM_LAYERS = (
    "q_proj", "k_proj", "v_proj",
    "attn_scores", "attn_values", "out_proj",
    "ffn_up", "ffn_down", "head",
)


class TransformerBlockApp(GPUApplication):
    """Sequence classification through one transformer encoder block."""

    name = "Transformer"
    domain = "Sequence classification"
    size_label = "1 block"

    N_CLASSES = 4

    def __init__(self, seed: int = 0, batch: int = 2, seq_len: int = 12,
                 d_model: int = 16, d_ff: int = 32,
                 precision: str = "fp32") -> None:
        if precision not in ("fp32", "fp16", "bf16"):
            raise ValueError(f"unknown float precision {precision!r}")
        self.precision = precision
        self.batch = batch
        self.seq_len = seq_len
        self.d_model = d_model
        self.name = application_name("Transformer", precision)
        rng = make_rng(seed + 2021)
        scale = 1.0 / np.sqrt(d_model)

        def _w(*shape):
            return (rng.normal(0.0, scale, shape)).astype(np.float32)

        self.w_q = _w(d_model, d_model)
        self.w_k = _w(d_model, d_model)
        self.w_v = _w(d_model, d_model)
        self.w_o = _w(d_model, d_model)
        self.w_up = _w(d_ff, d_model)
        self.b_up = np.zeros(d_ff, dtype=np.float32)
        self.w_down = _w(d_model, d_ff)
        self.b_down = np.zeros(d_model, dtype=np.float32)
        self.w_head = _w(self.N_CLASSES, d_model)
        self.b_head = np.zeros(self.N_CLASSES, dtype=np.float32)
        self.inputs = (rng.normal(0.0, 1.0, (batch, seq_len, d_model))
                       .astype(np.float32))
        #: 1/sqrt(d_model), the attention score scale
        self._score_scale = np.float32(1.0 / np.sqrt(d_model))

    # -- t-MxM interface -----------------------------------------------------
    @property
    def n_mxm_layers(self) -> int:
        return len(_MXM_LAYERS)

    @property
    def mxm_calls_per_layer(self) -> int:
        return self.batch

    # -- forward pass ----------------------------------------------------------
    def _attention(self, ops: SassOps, x: np.ndarray,
                   tile_hook: Optional[TileHook]) -> np.ndarray:
        """Single-head self-attention over one (seq, d_model) sequence."""
        q = tiled_matmul(ops, x, self.w_q.T, 0, tile_hook)
        k = tiled_matmul(ops, x, self.w_k.T, 1, tile_hook)
        v = tiled_matmul(ops, x, self.w_v.T, 2, tile_hook)
        scores = tiled_matmul(ops, q, k.T, 3, tile_hook)
        scores = ops.fmul(scores, self._score_scale)
        weights = np.stack([softmax(ops, row) for row in scores])
        attended = tiled_matmul(ops, weights, v, 4, tile_hook)
        return tiled_matmul(ops, attended, self.w_o.T, 5, tile_hook)

    def _block(self, ops: SassOps, x: np.ndarray,
               tile_hook: Optional[TileHook]) -> np.ndarray:
        """Attention and FFN sub-layers, each with a residual add."""
        x = ops.fadd(x, self._attention(ops, x, tile_hook))
        up = tiled_matmul(ops, x, self.w_up.T, 6, tile_hook)
        up = relu(ops, ops.fadd(up, self.b_up.reshape(1, -1)))
        down = tiled_matmul(ops, up, self.w_down.T, 7, tile_hook)
        return ops.fadd(x, ops.fadd(down, self.b_down.reshape(1, -1)))

    def _classify(self, ops: SassOps, x: np.ndarray,
                  tile_hook: Optional[TileHook]) -> np.ndarray:
        """Mean-pool over the sequence, then a linear softmax head."""
        pooled = x[0]
        for row in x[1:]:
            pooled = ops.fadd(pooled, row)
        pooled = ops.fmul(pooled, np.float32(1.0 / x.shape[0]))
        logits = linear(ops, pooled, self.w_head, self.b_head, 8, tile_hook)
        return softmax(ops, logits)

    def run(self, ops: SassOps,
            tile_hook: Optional[TileHook] = None) -> np.ndarray:
        """(batch, N_CLASSES) class probabilities at print precision."""
        probs = []
        for sequence in self.inputs:
            encoded = self._block(ops, sequence, tile_hook)
            probs.append(self._classify(ops, encoded, tile_hook))
        return np.round(np.stack(probs).astype(np.float32), 3)

    def is_critical(self, golden: np.ndarray, observed: np.ndarray) -> bool:
        """Misclassification: any sequence's predicted class changed."""
        return is_misclassification(golden, observed)
