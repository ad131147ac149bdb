"""SWFI results must not depend on the caller's numpy FP environment.

Every context that drives an application through
:class:`~repro.swfi.ops.SassOps` enters one ``np.errstate(all="ignore")``
for the whole execution (a GPU does not trap on IEEE exceptions).  Under
``np.seterr(all="raise")`` each such context must therefore produce the
same bytes and outcomes as under numpy's defaults, and no
``FloatingPointError`` may escape or be classified as a DUE.  The CI
``swfi-golden`` job runs this module.
"""

import numpy as np
import pytest

from repro.apps import make_application
from repro.apps.cnn.datasets import make_digit_dataset
from repro.apps.cnn.lenet import LeNetMini
from repro.datafiles import load_database
from repro.rng import make_rng
from repro.swfi.campaign import run_pvf_campaign
from repro.swfi.injector import SoftwareInjector
from repro.swfi.models import DoubleBitFlip, RelativeErrorSyndrome
from repro.swfi.profiler import profile_application
from repro.swfi.tmxm_injector import TmxmInjector
from repro.syndrome.database import SyndromeDatabase
from repro.syndrome.records import TmxmEntry
from repro.syndrome.spatial import SpatialPattern

#: (application, precision): exp/softmax, transcendental and bf16 paths
APPS = (("Lava", "fp32"), ("Hotspot", "fp32"), ("Transformer", "bf16"))


def _both_environments(run):
    """``run()`` under numpy defaults, then under ``seterr(all="raise")``."""
    default = run()
    previous = np.seterr(all="raise")
    try:
        raising = run()
    finally:
        np.seterr(**previous)
    return default, raising


@pytest.mark.parametrize("app_name,precision", APPS)
def test_pvf_campaign_ignores_fp_environment(app_name, precision):
    for model in (DoubleBitFlip(),
                  RelativeErrorSyndrome(load_database(), multi_thread=True)):
        def run():
            app = make_application(app_name, seed=4, precision=precision)
            return run_pvf_campaign(app, model, 12, seed=4).to_dict()

        default, raising = _both_environments(run)
        assert raising == default, model.name


@pytest.mark.parametrize("app_name,precision", APPS)
def test_injection_outcomes_ignore_fp_environment(app_name, precision):
    model = RelativeErrorSyndrome(load_database(), multi_thread=True)

    def run():
        injector = SoftwareInjector(
            make_application(app_name, seed=8, precision=precision))
        rng = make_rng(8)
        return [injector.inject_one(model, rng) for _ in range(12)]

    default, raising = _both_environments(run)
    assert raising == default
    assert not any("FloatingPointError" in r.detail for r in raising)


@pytest.mark.parametrize("app_name,precision", APPS)
def test_golden_and_profile_ignore_fp_environment(app_name, precision):
    app = make_application(app_name, seed=2, precision=precision)

    def run():
        golden = app.golden()
        return golden.dtype, golden.tobytes(), profile_application(app)

    default, raising = _both_environments(run)
    assert raising == default


def test_lenet_features_ignore_fp_environment():
    net = LeNetMini(seed=0, n_train=4)
    images, _ = make_digit_dataset(3, seed=1)

    def run():
        return [net._features(image).tobytes() for image in images]

    default, raising = _both_environments(run)
    assert raising == default


def test_tmxm_campaign_ignores_fp_environment(lenet_app):
    # relative errors past the float32 range overflow the struck tile to
    # inf, so the rest of the network computes with inf/NaN operands
    database = SyndromeDatabase()
    entry = TmxmEntry("Random", "scheduler")
    for _ in range(10):
        entry.add_observation(SpatialPattern.ALL, [1e39] * 64)
        entry.add_observation(SpatialPattern.ROW, [1e39] * 8)
    entry.finalize()
    database.add_tmxm(entry)

    def run():
        injector = TmxmInjector(lenet_app, database)
        return vars(injector.run_campaign(6, seed=3))

    default, raising = _both_environments(run)
    assert raising == default
    assert default["n_sdc"] > 0
