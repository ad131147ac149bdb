"""Transformer-block workload: numerics, t-MxM interface, precision."""

import numpy as np
import pytest

from repro.apps import make_application
from repro.apps.transformer import TransformerBlockApp
from repro.rng import make_rng
from repro.swfi.injector import SoftwareInjector
from repro.swfi.models import SingleBitFlip
from repro.swfi.ops import SassOps

PRECISIONS = ("fp32", "fp16", "bf16")


class TestForwardPass:
    def test_output_is_probability_batch(self):
        app = TransformerBlockApp(seed=3)
        out = app.run(SassOps())
        assert out.shape == (app.batch, app.N_CLASSES)
        assert out.dtype == np.float32
        # rows are softmax outputs at print precision
        assert np.all(out >= 0.0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=5e-3)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_golden_is_deterministic(self, precision):
        a = TransformerBlockApp(seed=3, precision=precision)
        b = TransformerBlockApp(seed=3, precision=precision)
        assert np.array_equal(a.golden(), b.golden())

    def test_precisions_produce_distinct_arithmetic(self):
        runs = {p: TransformerBlockApp(seed=3, precision=p).golden()
                for p in PRECISIONS}
        assert not np.array_equal(runs["fp32"], runs["fp16"])
        assert not np.array_equal(runs["fp32"], runs["bf16"])

    def test_run_must_use_matching_ops_precision(self):
        app = TransformerBlockApp(seed=3, precision="fp16")
        golden = app.golden()
        mismatched = app.run(SassOps())  # fp32 arithmetic
        assert not np.array_equal(golden, mismatched)


class TestTmxmInterface:
    def test_layer_ids_cover_every_gemm(self):
        app = TransformerBlockApp(seed=3)
        seen = {}

        def hook(layer_id, matrix):
            seen[layer_id] = seen.get(layer_id, 0) + 1
            return matrix

        app.run(SassOps(), tile_hook=hook)
        assert sorted(seen) == list(range(app.n_mxm_layers))
        assert all(count == app.mxm_calls_per_layer
                   for count in seen.values())

    def test_critical_criterion_is_top1_flip(self):
        app = TransformerBlockApp(seed=3)
        golden = app.golden()
        nudged = golden.copy()
        nudged[0, 0] += 1e-4  # numeric SDC, same argmax
        assert not app.is_critical(golden, nudged)
        flipped = golden.copy()
        flipped[0] = flipped[0, ::-1]
        assert app.is_critical(golden, flipped)


class TestPrecisionDispatch:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_injector_adopts_app_precision(self, precision):
        app = TransformerBlockApp(seed=3, precision=precision)
        injector = SoftwareInjector(app)
        assert injector.precision == precision
        result = injector.inject_one(SingleBitFlip(), make_rng(5))
        assert result.outcome.name in ("MASKED", "SDC", "DUE")

    def test_factory_forwards_precision(self):
        app = make_application("Transformer", seed=1, precision="bf16")
        assert app.precision == "bf16"
        assert app.name == "Transformer-bf16"

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_name_is_known_without_building(self, precision):
        from repro.apps import APP_FACTORIES, application_name

        app = make_application("Transformer", seed=1, precision=precision)
        assert application_name("Transformer", precision) == app.name
        # fp32 apps carry their factory key as a class-level name
        for name, factory in APP_FACTORIES.items():
            assert application_name(name) == factory.name == name

    def test_fp32_only_apps_reject_reduced_precision(self):
        with pytest.raises(ValueError, match="fp32 only"):
            make_application("MxM", seed=1, precision="fp16")

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            TransformerBlockApp(seed=1, precision="fp8")
