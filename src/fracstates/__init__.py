"""fracstates: pseudospectral ground states and multi-well localized states
of semiclassical fractional Schrodinger equations with asymptotically linear
(saturable) nonlinearity, computed by Nehari-manifold constrained descent."""

__version__ = "0.1.0"

from ._kernels import backend as kernel_backend
from .grid import (
    Field,
    Grid,
    apply_frac_laplacian,
    gagliardo_sq,
    helmholtz_inverse,
    inner_l2,
    make_grid,
    resample_field,
)
from .models import (
    NonlinearitySpec,
    PotentialSpec,
    Well,
    sample_potential,
    validate_nonlinearity,
    validate_potential,
)
from .variational import (
    EnergyReport,
    Problem,
    energy,
    gradient,
    project_to_nehari,
)
from .solver import (
    SolveOptions,
    SolveResult,
    energy_curve,
    solve_constrained,
    solve_limit,
    sweep_epsilon,
)
from .localization import (
    BoxFamily,
    BranchLabel,
    barycenter_h,
    build_boxes,
    classify,
    seed_field,
    solve_branch,
    solve_branches,
    truncated_coordinate,
)
from .diagnostics import (
    SweepRecord,
    concentration_table,
    decay_fit,
    locate_max,
    profile_error,
    select_ground_state,
    sigma_membership,
)
