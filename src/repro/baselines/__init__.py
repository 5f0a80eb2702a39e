"""Comparison platforms for the Table 3 cross-platform evaluation.

The paper compares its accelerator against PyTorch on a Xeon E5-2698V4,
PyTorch+cuSPARSE on a Tesla P100, an EIE-like reference design, and the
no-rebalancing baseline. Offline substitutions (documented in
docs/architecture.md, "Offline substitutions and presets"):

* CPU — a calibrated analytic model (default) plus an optional
  *measured* mode that times scipy SPMM on the host;
* GPU — an analytic throughput+overhead model calibrated against the
  paper's published P100 numbers (no GPU in this environment);
* EIE — the baseline engine clocked at 285 MHz (the paper itself calls
  its EIE reference "similar to our baseline design with TDQ-1");
* energy — constant platform power times latency, with powers
  back-derived from the paper's own latency/energy pairs.
"""

from repro.baselines.platforms import PlatformResult
from repro.baselines.cpu import CpuModel, measure_cpu_latency_ms
from repro.baselines.gpu import GpuModel
from repro.baselines.eie import EieLikeModel
from repro.baselines.energy import (
    PLATFORM_POWER_WATTS,
    energy_joules,
    inferences_per_kilojoule,
)

__all__ = [
    "PlatformResult",
    "CpuModel",
    "measure_cpu_latency_ms",
    "GpuModel",
    "EieLikeModel",
    "PLATFORM_POWER_WATTS",
    "energy_joules",
    "inferences_per_kilojoule",
]
