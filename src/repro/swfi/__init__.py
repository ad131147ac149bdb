"""Software fault injection (the adapted-NVBitFI level of the framework)."""

from .campaign import (
    CampaignCheckpoint,
    PVFReport,
    plan_batches,
    run_pvf_batch,
    run_pvf_campaign,
    run_pvf_until,
)
from .injector import AppHangError, InjectionResult, SoftwareInjector
from .models import (
    DoubleBitFlip,
    FaultModel,
    ModuleWeightedSyndrome,
    RelativeErrorSyndrome,
    SingleBitFlip,
)
from .ops import SassOps, no_fp_traps
from .profiler import GROUPS, InstructionProfile, profile_application
from .tmxm_injector import TmxmInjector, TmxmReport

__all__ = [
    "CampaignCheckpoint",
    "PVFReport",
    "plan_batches",
    "run_pvf_batch",
    "run_pvf_campaign",
    "run_pvf_until",
    "AppHangError",
    "InjectionResult",
    "SoftwareInjector",
    "DoubleBitFlip",
    "FaultModel",
    "ModuleWeightedSyndrome",
    "RelativeErrorSyndrome",
    "SingleBitFlip",
    "SassOps",
    "no_fp_traps",
    "GROUPS",
    "InstructionProfile",
    "profile_application",
    "TmxmInjector",
    "TmxmReport",
]
