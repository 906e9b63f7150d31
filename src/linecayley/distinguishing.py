"""Distinguishing-coloring verdicts for the line Cayley graphs.

A coloring is distinguishing when no non-trivial automorphism fixes every
color class.  The question "does the distinguishing chromatic number exceed
q" is decided exhaustively at tiny scale and structurally (hyperplane-coset
partitions always admit a translation witness) at larger ones.
"""

from dataclasses import dataclass

from .cayley import build_graph
from .coloring import coset_coloring, enumerate_proper_partitions, is_proper, plus_zero_recolor
from .field import affine_ids, decode
from .geometry import (
    affine_hyperplane_form,
    affine_lines_spanned,
    common_hyperplane_normal,
    direction_count_threshold,
    directions_determined,
)
from .permgroup import fixes_labels, fixing_subgroup_of_partition


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


def _as_group(aut):
    if not aut.complete:
        raise ValueError("automorphism group is incomplete; raise the node budget")
    return aut.group


def is_distinguishing(coloring, aut):
    """Report whether only the identity fixes every color class.

    The witness, if any, is the first generator of the class-fixing subgroup.
    """
    fixing = fixing_subgroup_of_partition(_as_group(aut), coloring.class_of)
    witness = fixing.generators[0] if fixing.generators else None
    return DistinguishingReport(witness is None, fixing.order(), witness)


def _fixing_translations(labels, q, n):
    """Yield, in id order, the id table of each nonzero translation that
    fixes every class.

    Such a translation maps 0 to its own vector w, so only the ids in the
    class of 0 are tried.
    """
    for w in range(1, q**n):
        if labels[w] == labels[0]:
            table = affine_ids(q, n, 1, decode(w, q, n))
            if fixes_labels(table, labels):
                yield table


def _class_fixing_witness(graph, aut, coloring):
    """A non-trivial automorphism fixing every class, if any: a translation
    when one fixes them all, else the first class-fixing generator."""
    translation = next(_fixing_translations(coloring.class_of, graph.q, graph.n), None)
    return translation or is_distinguishing(coloring, aut).witness


@dataclass
class ExceedsVerdict:
    exceeds: bool
    partitions: int
    pairs: list
    failing: object


def chi_D_exceeds_q_small(graph, aut, limit=10**6):
    """Exhaustive verdict: does every proper partition into at most q classes
    admit a non-trivial class-fixing automorphism?

    True exactly when no proper q-coloring is distinguishing.  Feasible only
    when the partition enumeration is tiny.
    """
    if not graph.connection.lines:
        raise ValueError("not applicable: the empty graph is properly 1-colorable")
    _as_group(aut)
    pairs = []
    count = 0
    for coloring in enumerate_proper_partitions(graph, limit=limit):
        count += 1
        witness = _class_fixing_witness(graph, aut, coloring)
        if witness is None:
            return ExceedsVerdict(False, count, pairs, coloring)
        pairs.append((coloring, witness))
    return ExceedsVerdict(True, count, pairs, None)


def chi_D_upper_certificate(graph, aut):
    """The q+1 coloring that splits 0 off its coset class, when it certifies.

    Returns the coloring if it is proper and distinguishing for the given
    automorphism group, else None.
    """
    if not graph.connection.lines:
        raise ValueError("empty connection set has no coset coloring")
    _as_group(aut)
    cert = plus_zero_recolor(coset_coloring(graph))
    if not is_proper(graph, cert):
        return None
    return cert if is_distinguishing(cert, aut).distinguishing else None


def translation_fixing_witnesses(coloring, q, n):
    """Nonzero translations fixing every class of a hyperplane-coset partition.

    Empty when the classes are not the cosets of a single linear hyperplane.
    Each returned vector is checked constructively against the labels.
    """
    classes = coloring.classes()
    normal = common_hyperplane_normal(classes, q, n)
    if normal is None:
        return []
    return [decode(t[0], q, n) for t in _fixing_translations(coloring.class_of, q, n)]


def hyperplane_class_analysis(coloring, connection):
    """Per-class geometry of a proper q-coloring.

    For each class: its size, whether it is an affine hyperplane, how many
    directions it determines versus the cone threshold, and the independence
    identity (determined directions never meet the projected connection set).
    Also reports the literal count lines_spanned + |S| against the geometric
    series 1 + q + ... + q^(n-1), both sides stated without interpretation.
    """
    q, n = connection.q, connection.n
    graph = build_graph(connection)
    if coloring.num_colors != q:
        raise ValueError(f"coloring must use exactly {q} colors")
    if len(coloring.class_of) != graph.num_vertices:
        raise ValueError("coloring does not cover the vertex set")
    if not is_proper(graph, coloring):
        raise ValueError("coloring is not proper")
    proj_s = set(connection.lines)
    series = (q**n - 1) // (q - 1)
    threshold = direction_count_threshold(q, n) if n >= 3 else None
    classes = coloring.classes()
    out = []
    for cls in classes:
        points = [decode(i, q, n) for i in cls]
        form = affine_hyperplane_form(points, q, n)
        dirs = directions_determined(points, q) if len(points) >= 2 else set()
        spanned = affine_lines_spanned(points, q)
        entry = {
            "size": len(points),
            "is_affine_hyperplane": form is not None,
            "normal": list(form[0]) if form else None,
            "offset": form[1] if form else None,
            "directions": len(dirs),
            "direction_threshold": threshold,
            "within_threshold": (len(dirs) <= threshold) if threshold is not None else None,
            "independent_directions": not (dirs & proj_s),
            "lines_spanned": spanned,
            "literal_lhs": spanned + len(connection.members),
            "literal_rhs": series,
        }
        out.append(entry)
    report = {"q": q, "n": n, "classes": out}
    normal = common_hyperplane_normal(classes, q, n)
    if normal is not None:
        scalar_fixes = all(
            fixes_labels(affine_ids(q, n, lam, (0,) * n), coloring.class_of)
            for lam in range(2, q)
        )
        report["common_normal"] = list(normal)
        report["scalar_fixes_all_classes"] = scalar_fixes
        if not scalar_fixes:
            report["note"] = (
                "scaling maps fix only the class containing 0; "
                "translations inside the common hyperplane fix every class"
            )
    return report
