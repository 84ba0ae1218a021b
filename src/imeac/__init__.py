"""Individual-machine energy / equal-area transient stability toolkit.

Simulates multi-machine post-fault rotor dynamics and assesses
stability machine by machine: per-machine DSP/DLP detection, stability
margins, critical clearing time, critical transient energy, and
individual-machine potential-energy surfaces.
"""

from .assess import (
    MachineAssessment,
    SystemAssessment,
    assess_machines,
    assess_system,
    machine_margin,
    margin_from_areas,
    pe_at_time,
)
from .case import (
    EquilibriumPoint,
    MachineParams,
    ReducedNetwork,
    StabilityCase,
    coi_forces,
    solve_postfault_sep,
)
from .caseio import case_from_dict, load_bundled, load_case
from .cct import (
    CctResult,
    ProbeResult,
    find_cct,
    identify_mdm,
    probe_clearing_time,
    scan_clearing_times,
)
from .dynamics import SimulationConfig, Trajectory, simulate
from .energy import (
    EnergyChannels,
    compute_energy,
    critical_machines,
    pe_line_integral,
)
from .errors import (
    BracketError,
    CaseFormatError,
    CaseValidationError,
    HorizonError,
    ImeacError,
    NetworkReductionError,
)
from .events import DLP, DSP, SwingEvent, detect_events
from .network import build_bus_admittance, kron_reduce
from .surface import (
    SurfaceGrid,
    SurfaceSpec,
    grid_node_angles,
    pe_line_to_nodes,
    surface_from_trajectories,
    surface_grid,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CaseFormatError",
    "CaseValidationError",
    "CctResult",
    "DLP",
    "DSP",
    "EnergyChannels",
    "EquilibriumPoint",
    "HorizonError",
    "ImeacError",
    "MachineAssessment",
    "MachineParams",
    "NetworkReductionError",
    "ProbeResult",
    "ReducedNetwork",
    "SimulationConfig",
    "StabilityCase",
    "SurfaceGrid",
    "SurfaceSpec",
    "SwingEvent",
    "SystemAssessment",
    "Trajectory",
    "assess_machines",
    "assess_system",
    "build_bus_admittance",
    "case_from_dict",
    "coi_forces",
    "compute_energy",
    "critical_machines",
    "detect_events",
    "find_cct",
    "grid_node_angles",
    "identify_mdm",
    "kron_reduce",
    "load_bundled",
    "load_case",
    "machine_margin",
    "margin_from_areas",
    "pe_at_time",
    "pe_line_integral",
    "pe_line_to_nodes",
    "probe_clearing_time",
    "scan_clearing_times",
    "simulate",
    "solve_postfault_sep",
    "surface_from_trajectories",
    "surface_grid",
    "__version__",
]
