"""Distinguishing-coloring verdicts for the line Cayley graphs.

A coloring is distinguishing when no non-trivial automorphism fixes every
color class.  The question "does the distinguishing chromatic number exceed
q" is decided by listing every proper partition into at most q classes, so
only at tiny scale, except for one line, where it needs no listing.  The
upper side is the (q+1) certificate, checked against the full automorphism
group wherever the search for that group completes.  Only is_distinguishing,
which reports the class-fixing subgroup's order, builds that subgroup; the
certificate and the exhaustive verdict ask permgroup.first_fixing_element,
which stops at the first class-fixing automorphism, translations included.
"""

from dataclasses import dataclass
from math import factorial

from .coloring import ENUM_LIMIT, coset_coloring, enumerate_proper_partitions, plus_zero_recolor
from .permgroup import first_fixing_element, fixing_subgroup_of_partition


@dataclass
class DistinguishingReport:
    distinguishing: bool
    fixing_order: int
    witness: tuple | None

    def to_json_dict(self):
        d = {
            "distinguishing": self.distinguishing,
            "fixing_order": str(self.fixing_order),
        }
        if self.witness is not None:
            d["witness"] = list(self.witness)
        return d


def is_distinguishing(coloring, aut):
    """Report whether only the identity fixes every color class.

    The witness, if any, is the first generator of the class-fixing subgroup.
    """
    fixing = fixing_subgroup_of_partition(aut.complete_group(), coloring.class_of)
    witness = fixing.generators[0] if fixing.generators else None
    return DistinguishingReport(witness is None, fixing.order(), witness)


@dataclass
class ExceedsVerdict:
    exceeds: bool
    partitions: int
    failing: object


def chi_D_exceeds_q_small(graph, aut, limit=ENUM_LIMIT):
    """Exhaustive verdict: does every proper partition into at most q classes
    admit a non-trivial class-fixing automorphism?

    True exactly when no proper q-coloring is distinguishing.  Feasible only
    when the partition enumeration is tiny, or with one line: G is then
    q^(n-1) disjoint q-cliques, so every proper partition has q classes,
    (q!)^(q^(n-1) - 1) of them up to colour names, and matching the colours
    of two cliques swaps them and fixes every class.
    """
    if not graph.connection.lines:
        raise ValueError("not applicable: the empty graph is properly 1-colorable")
    group = aut.complete_group()
    if len(graph.connection.lines) == 1:
        return ExceedsVerdict(True, factorial(graph.q) ** (graph.q ** (graph.n - 1) - 1), None)
    count = 0
    for coloring in enumerate_proper_partitions(graph, limit=limit):
        count += 1
        if first_fixing_element(group, coloring.class_of) is None:
            return ExceedsVerdict(False, count, coloring)
    return ExceedsVerdict(True, count, None)


def chi_D_upper_certificate(graph, aut):
    """The q+1 coloring that splits 0 off its coset class, when it certifies.

    Returns the coloring if it is distinguishing for the given automorphism
    group, else None.  It is always proper: each line of S meets the
    hyperplane x[n-1] = 0 only at 0, so no edge joins two vertices of one
    coset class, and the singleton {0} cannot hold an edge.  `ConnectionSet`
    checks this when S is built, so no edge is scanned here.  The search for
    a class-fixing automorphism stops at the first one, so the subgroup
    that is_distinguishing measures is not built.  An empty S has none: two
    of its q^n >= q + 2 points share a colour, and Sym(V) swaps them.
    """
    if not graph.connection.members:
        return None
    cert = plus_zero_recolor(coset_coloring(graph))
    return cert if first_fixing_element(aut.complete_group(), cert.class_of) is None else None
