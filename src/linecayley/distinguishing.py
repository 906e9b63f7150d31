"""Distinguishing-coloring verdicts for the line Cayley graphs.

A coloring is distinguishing when no non-trivial automorphism fixes every
color class.  The question "does the distinguishing chromatic number exceed
q" is decided by listing every proper partition into at most q classes, so
only up to SWEEP_MAX_VERTICES vertices, and refused past them, except for
one line, where it needs no listing.  The upper side is the (q+1)
certificate, checked against the full automorphism group wherever the
search for that group completes.  Only is_distinguishing, which reports
the class-fixing subgroup's order, builds that subgroup; the certificate
and the exhaustive verdict ask permgroup.first_fixing_element, which stops
at the first class-fixing automorphism, translations included.
"""

from dataclasses import dataclass
from math import factorial

from .coloring import coset_coloring, enumerate_proper_partitions, plus_zero_recolor
from .permgroup import first_fixing_element, fixing_subgroup_of_partition

# The most vertices, q^n, of a size the census takes on: (3,2), (5,2) and
# (3,3), whose censuses take 0.15 s, 0.78 s and 18.3 s on a 2-core Xeon.
# The next sizes up, (7,2), (5,3) and (3,4), are refused: (7,2)'s census of
# 127 subsets ran past 60 s, listing proper partitions into up to 7 classes.
SWEEP_MAX_VERTICES = 27


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


def chi_D_exceeds_q_small(graph, aut):
    """Exhaustive verdict: does every proper partition into at most q classes
    admit a non-trivial class-fixing automorphism?

    True exactly when no proper q-coloring is distinguishing.  Two lines or
    more are decided by listing, so only at the census's sizes: a graph of
    more than SWEEP_MAX_VERTICES vertices is refused with ValueError before
    anything is listed, as past them the walk meets almost only dead ends
    (3 partitions in 20 s at (5,3) with two lines).  One line needs no listing, at
    any size: G is then q^(n-1) disjoint q-cliques, so every proper
    partition has q classes, (q!)^(q^(n-1) - 1) of them up to colour names,
    and matching the colours of two cliques swaps them and fixes every class.
    """
    if not graph.connection.lines:
        raise ValueError("not applicable: the empty graph is properly 1-colorable")
    group = aut.complete_group()
    if len(graph.connection.lines) == 1:
        return ExceedsVerdict(True, factorial(graph.q) ** (graph.q ** (graph.n - 1) - 1), None)
    if graph.num_vertices > SWEEP_MAX_VERTICES:
        raise ValueError(
            f"listing the proper partitions of {graph.num_vertices} vertices passes"
            f" SWEEP_MAX_VERTICES = {SWEEP_MAX_VERTICES}"
        )
    count = 0
    for coloring in enumerate_proper_partitions(graph):
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
