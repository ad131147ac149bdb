"""Benchmark applications evaluated under software fault injection."""

from .base import GPUApplication, application_name
from .bfs import BreadthFirstSearch
from .gaussian import GaussianElimination
from .hotspot import Hotspot
from .lava import LavaMD
from .lenet_app import LeNetApp
from .lud import LUDecomposition
from .mxm import MatrixMultiply
from .nw import NeedlemanWunsch
from .pathfinder import Pathfinder
from .quicksort import Quicksort
from .transformer import TransformerBlockApp
from .yolo_app import YoloApp

__all__ = [
    "GPUApplication",
    "application_name",
    "BreadthFirstSearch",
    "NeedlemanWunsch",
    "Pathfinder",
    "GaussianElimination",
    "Hotspot",
    "LavaMD",
    "LeNetApp",
    "LUDecomposition",
    "MatrixMultiply",
    "Quicksort",
    "TransformerBlockApp",
    "YoloApp",
]


#: Canonical CLI/pipeline names for every application (paper Table III
#: plus the extension benchmarks).
APP_FACTORIES = {
    "MxM": MatrixMultiply,
    "LUD": LUDecomposition,
    "Quicksort": Quicksort,
    "Lava": LavaMD,
    "Gaussian": GaussianElimination,
    "Hotspot": Hotspot,
    "LeNET": LeNetApp,
    "YoloV3": YoloApp,
    "BFS": BreadthFirstSearch,
    "NW": NeedlemanWunsch,
    "Pathfinder": Pathfinder,
    "Transformer": TransformerBlockApp,
}


def make_application(name: str, seed: int = 0,
                     precision: str = "fp32") -> GPUApplication:
    """Instantiate a registered application by its canonical name.

    ``precision`` selects the float storage format for applications that
    support mixed precision (currently the transformer block); asking a
    fixed-fp32 workload for a reduced format is an error rather than a
    silent fallback.
    """
    try:
        factory = APP_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; "
            f"choose from {sorted(APP_FACTORIES)}")
    if precision != "fp32":
        import inspect
        if "precision" not in inspect.signature(factory).parameters:
            raise ValueError(
                f"application {name!r} runs fp32 only; "
                f"precision={precision!r} is not supported")
        return factory(seed=seed, precision=precision)
    return factory(seed=seed)


def all_applications(seed: int = 0):
    """The Table III application set, default-sized."""
    return [
        MatrixMultiply(seed=seed),
        LavaMD(seed=seed),
        Quicksort(seed=seed),
        Hotspot(seed=seed),
        LUDecomposition(seed=seed),
        GaussianElimination(seed=seed),
        LeNetApp(seed=seed),
        YoloApp(seed=seed),
    ]


__all__ += ["APP_FACTORIES", "all_applications", "make_application"]
