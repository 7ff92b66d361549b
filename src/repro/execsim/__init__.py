"""Execution simulation: per-operation timing and a discrete-event engine.

This subpackage plays the role of the KNL node + MKL-DNN kernels in the
paper: it answers "how long does operation X take with p threads under
affinity a?" (:mod:`repro.execsim.op_runtime`) and "what happens when a
scheduler co-runs several operations on the chip?"
(:mod:`repro.execsim.simulator`, with contention from
:mod:`repro.execsim.contention`).
"""

from repro.execsim.contention import ContentionState, RunningOpView
from repro.execsim.op_runtime import (
    OpTimeBreakdown,
    execution_time,
    execution_time_cached,
    optimal_configuration,
    sweep_thread_counts,
)
from repro.execsim.standalone import StandaloneRunner
from repro.execsim.events import EventKind, SimulationEvent
from repro.execsim.trace import ExecutionTrace, OpExecutionRecord
from repro.execsim.simulator import (
    LaunchRequest,
    PlacementKind,
    SchedulingContext,
    SchedulingPolicy,
    StepSimulator,
    StepResult,
)
from repro.execsim.gpu import GpuKernelModel, GpuLaunchConfig

__all__ = [
    "ContentionState",
    "RunningOpView",
    "OpTimeBreakdown",
    "execution_time",
    "execution_time_cached",
    "optimal_configuration",
    "sweep_thread_counts",
    "StandaloneRunner",
    "EventKind",
    "SimulationEvent",
    "ExecutionTrace",
    "OpExecutionRecord",
    "LaunchRequest",
    "PlacementKind",
    "SchedulingContext",
    "SchedulingPolicy",
    "StepSimulator",
    "StepResult",
    "GpuKernelModel",
    "GpuLaunchConfig",
]
