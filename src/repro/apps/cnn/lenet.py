"""LeNet-style classifier on the synthetic digit dataset.

Stands in for the paper's LeNET/MNIST: two conv+pool stages lowered to
tiled MxM, a trained softmax head, ~2.6k parameters ("LeNET has a very
small number of network parameters per layer", Sec. VI — the reason a
corrupted 8x8 tile devastates it).  The conv weights are deterministic
random features; the head is trained to high accuracy on the digits.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ...rng import make_rng
from ...swfi.ops import SassOps, no_fp_traps
from .datasets import make_digit_dataset
from .tensor_ops import TileHook, conv2d, linear, maxpool2, relu, softmax
from .train import train_softmax_head

__all__ = ["LeNetMini"]


class LeNetMini:
    """conv(1->6) -> pool -> conv(6->12) -> pool -> fc(10) -> softmax."""

    #: MxM-bearing layers a t-MxM tile corruption can strike.
    N_MXM_LAYERS = 3
    N_CLASSES = 10

    def __init__(self, seed: int = 0, n_train: int = 400) -> None:
        rng = make_rng(seed + 101)
        self.conv1_w = (rng.normal(0.0, 0.5, (6, 1, 3, 3))
                        .astype(np.float32))
        self.conv1_b = np.zeros(6, dtype=np.float32)
        self.conv2_w = (rng.normal(0.0, 0.3, (12, 6, 3, 3))
                        .astype(np.float32))
        self.conv2_b = np.zeros(12, dtype=np.float32)
        images, labels = make_digit_dataset(n_train, seed=seed)
        features = np.stack([self._features(img) for img in images])
        result = train_softmax_head(features, labels, self.N_CLASSES,
                                    seed=seed)
        self.fc_w = result.weights
        self.fc_b = result.bias
        self.train_accuracy = result.train_accuracy

    @property
    def n_features(self) -> int:
        return self.fc_w.shape[1]

    # -- reference (uninstrumented) feature extractor ------------------------
    def _features(self, image: np.ndarray) -> np.ndarray:
        with no_fp_traps():
            return self._feature_pass(SassOps(), image).astype(np.float64)

    def _feature_pass(self, ops: SassOps, image: np.ndarray,
                      tile_hook: Optional[TileHook] = None) -> np.ndarray:
        x = conv2d(ops, image, self.conv1_w, self.conv1_b, pad=1,
                   layer_id=0, tile_hook=tile_hook)
        x = relu(ops, x)
        x = maxpool2(ops, x)
        x = conv2d(ops, x, self.conv2_w, self.conv2_b, pad=1,
                   layer_id=1, tile_hook=tile_hook)
        x = relu(ops, x)
        x = maxpool2(ops, x)
        return x.reshape(-1)

    # -- instrumented inference ------------------------------------------------
    def forward(self, ops: SassOps, image: np.ndarray,
                tile_hook: Optional[TileHook] = None) -> np.ndarray:
        """Class probabilities for one (1, 16, 16) image."""
        feats = self._feature_pass(ops, image, tile_hook)
        logits = linear(ops, feats, self.fc_w, self.fc_b,
                        layer_id=2, tile_hook=tile_hook)
        return softmax(ops, logits)

    def forward_batch(self, ops: SassOps, images: np.ndarray,
                      tile_hook: Optional[TileHook] = None) -> np.ndarray:
        return np.stack(
            [self.forward(ops, img, tile_hook) for img in images])

    def classify(self, probabilities: np.ndarray) -> np.ndarray:
        """Top-1 labels from (batch, 10) probabilities."""
        return np.argmax(probabilities, axis=-1)
