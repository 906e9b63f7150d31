"""Cayley graphs on F_q^n built from random unions of lines that meet the
coordinate hyperplane x[n-1] = 0 only at the origin, with exact verification
of their chromatic, automorphism, and distinguishing properties."""

from .autgroup import (
    AutResult,
    automorphism_group,
    dichotomy_check,
    group_equals_scalar_affine,
    is_automorphism,
)
from .bounds import (
    aut_union_bound,
    chernoff_report,
    exact_binomial_tail,
    binomial_tail_log2,
    monte_carlo_pipeline,
    sweep_all_line_subsets,
    theorem_qn_params,
)
from .cayley import (
    CayleyGraph,
    ConnectionSet,
    build_graph,
    sample_connection_set,
)
from .coloring import (
    ChromaticResult,
    Coloring,
    coloring_from_classes,
    coset_coloring,
    enumerate_proper_partitions,
    exact_chromatic_number,
    is_proper,
    line_clique,
    plus_zero_recolor,
)
from .distinguishing import (
    DistinguishingReport,
    chi_D_exceeds_q_small,
    chi_D_upper_certificate,
    is_distinguishing,
)
from .errors import BudgetExceeded, EnumerationLimitExceeded, InvariantViolation
from .field import decode, encode, primitive_root
from .geometry import (
    LineUniverse,
    line_points,
    line_universe,
    proj_rep,
)
from .permgroup import (
    PermGroup,
    fixing_subgroup_of_partition,
    scalar_affine_group,
)

__version__ = "0.1.0"
