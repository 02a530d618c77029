"""The sweep layer: run the scenario matrix as one gated grid.

:mod:`repro.sweep.driver` compiles a manifest's cells × kernels × scales
× seeds into executor jobs and runs them through a
:class:`~repro.serve.BenchService` (a running one, or a transient one
via ``execute_jobs``); :mod:`repro.sweep.gates` holds the paper-shape assertions
applied to every ``fidelity = "paper"`` cell.  The companion
:mod:`repro.analysis.aggregate` turns a :class:`SweepResult` into
summary tables and cross-kernel leaderboards; ``repro sweep`` is the
CLI over all of it.
"""

from repro.sweep.driver import (
    SWEEP_FILE,
    CellResult,
    SweepPlan,
    SweepResult,
    compile_sweep,
    load_sweep,
    run_sweep,
    save_sweep,
)
from repro.sweep.gates import (
    COMPLETION_GATE,
    GATES,
    Gate,
    check_paper_gates,
    gate_studies,
    kernel_gates,
)

__all__ = [
    "SWEEP_FILE", "CellResult", "SweepPlan", "SweepResult",
    "compile_sweep", "load_sweep", "run_sweep", "save_sweep",
    "COMPLETION_GATE", "GATES", "Gate", "check_paper_gates",
    "gate_studies", "kernel_gates",
]
