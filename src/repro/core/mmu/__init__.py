"""Memory Management Unit (paper Section 4.2): explicit data orchestration."""

from .cache import (
    CacheConfig,
    CacheStats,
    InputFeatureCache,
    group_miss_bound,
    simulate_conv_cache,
)
from .dataflow import FlowCost, fetch_on_demand_cost, gather_matmul_scatter_cost
from .dram import DRAMStats, DRAMTiming, DRAMTimingModel, TIMINGS
from .fusion import (
    FusionGroup,
    FusionPlan,
    FusionPlanner,
    find_fusible_chains,
    simulate_fusion_stack,
)
from .mir import MIR, MIRContainer
from .unit import CANDIDATE_BLOCK_POINTS, MemCost, MemoryManagementUnit

__all__ = [
    "CacheConfig",
    "CacheStats",
    "InputFeatureCache",
    "group_miss_bound",
    "simulate_conv_cache",
    "FlowCost",
    "fetch_on_demand_cost",
    "gather_matmul_scatter_cost",
    "DRAMStats",
    "DRAMTiming",
    "DRAMTimingModel",
    "TIMINGS",
    "FusionGroup",
    "FusionPlan",
    "FusionPlanner",
    "find_fusible_chains",
    "simulate_fusion_stack",
    "MIR",
    "MIRContainer",
    "CANDIDATE_BLOCK_POINTS",
    "MemCost",
    "MemoryManagementUnit",
]
