"""Numerical toolkit for a crop-pest-awareness dynamics model.

Simulation of the uncontrolled and controlled systems, equilibrium and
stability analysis with a Hopf-bifurcation scan, bifurcation sweeps,
and a forward-backward-sweep optimal-control solver, all behind a CSV
command-line interface.
"""

from .errors import (
    BlowUpError,
    CropguardError,
    DegenerateParameterError,
    DomainError,
    GridMismatchError,
    NonFiniteError,
)
from .model import (
    ControlValue,
    Costate,
    ModelParams,
    ObjectiveWeights,
    RegionBounds,
    State,
    attracting_region,
    costate_rhs,
    jacobian,
    rhs_controlled,
    rhs_uncontrolled,
    running_cost,
)
from .integrate import (TimeGrid, Trajectory, default_step, integrate_cost, rk4_adjoint,
                        rk4_forward, rk4_model)
from .equilibria import (
    Equilibrium,
    EquilibriumKind,
    Nonexistent,
    all_equilibria,
    axial,
    coexistence,
    pest_free,
    susceptible_free,
)
from .stability import (
    CharPoly4,
    HopfCandidate,
    StabilityReport,
    Verdict,
    char_poly,
    classify,
    hopf_scan,
    psi,
    r0,
    routh_hurwitz,
)
from .bifurcation import SweepRow, SweepSpec, run_sweep
from .optimal_control import StopReason, SweepOptions, SweepSolution, solve

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CharPoly4",
    "ControlValue",
    "Costate",
    "CropguardError",
    "DegenerateParameterError",
    "DomainError",
    "Equilibrium",
    "EquilibriumKind",
    "GridMismatchError",
    "HopfCandidate",
    "ModelParams",
    "NonFiniteError",
    "Nonexistent",
    "ObjectiveWeights",
    "RegionBounds",
    "StabilityReport",
    "State",
    "StopReason",
    "SweepOptions",
    "SweepRow",
    "SweepSolution",
    "SweepSpec",
    "TimeGrid",
    "Trajectory",
    "Verdict",
    "all_equilibria",
    "attracting_region",
    "axial",
    "char_poly",
    "classify",
    "coexistence",
    "costate_rhs",
    "default_step",
    "hopf_scan",
    "integrate_cost",
    "jacobian",
    "pest_free",
    "psi",
    "r0",
    "rhs_controlled",
    "rhs_uncontrolled",
    "rk4_adjoint",
    "rk4_forward",
    "rk4_model",
    "routh_hurwitz",
    "run_sweep",
    "running_cost",
    "solve",
    "susceptible_free",
    "__version__",
]
