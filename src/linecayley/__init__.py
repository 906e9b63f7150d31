"""Cayley graphs on F_q^n built from random unions of lines that meet the
coordinate hyperplane x[n-1] = 0 only at the origin, with exact verification
of their chromatic, automorphism, and distinguishing properties."""

from .autgroup import automorphism_group, dichotomy_check, is_automorphism
from .cayley import build_graph, sample_connection_set
from .coloring import coset_coloring, exact_chromatic_number, is_proper, plus_zero_recolor
from .distinguishing import chi_D_upper_certificate, is_distinguishing
from .errors import BudgetExceeded

__version__ = "0.1.0"
