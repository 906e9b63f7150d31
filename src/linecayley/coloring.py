"""Proper colorings of the line Cayley graphs.

The layered coloring (one class per level of the last coordinate) always
uses exactly q colors, and any chosen line gives a q-clique, so the
chromatic number of a nonempty instance is q without search.  Exhaustive
partition enumeration serves the distinguishing verdicts at small sizes.
"""

from dataclasses import dataclass

from .errors import EnumerationLimitExceeded
from .geometry import proj_rep
from .permgroup import classes_to_labels, leaves

ENUM_LIMIT = 10 ** 6  # the most partitions enumerate_proper_partitions lists by default


@dataclass(frozen=True)
class Coloring:
    num_colors: int
    class_of: tuple

    def classes(self):
        """Color classes as sorted id lists, ordered by smallest member."""
        groups = {}
        for v, c in enumerate(self.class_of):
            groups.setdefault(c, []).append(v)
        return sorted(groups.values(), key=lambda g: g[0])

    def to_json_dict(self):
        return {"num_colors": self.num_colors, "classes": self.classes()}

    @classmethod
    def from_json_dict(cls, d):
        try:
            classes = [list(c) for c in d["classes"]]
            num_colors = d["num_colors"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"a coloring needs num_colors and a list of id lists ({exc!r})") from None
        if type(num_colors) is not int:
            raise ValueError(f"num_colors {num_colors!r} is not an integer")
        if num_colors < len(classes):
            raise ValueError(f"num_colors {num_colors} is below the {len(classes)} classes given")
        return coloring_from_classes(classes, sum(map(len, classes)), num_colors)


def coloring_from_classes(classes, num_vertices, num_colors=None):
    class_of = tuple(classes_to_labels(classes, num_vertices))
    return Coloring(len(classes) if num_colors is None else num_colors, class_of)


def coset_coloring(g):
    """Color x by its last coordinate x[n-1].

    The classes are the translates of the hyperplane {x[n-1] = 0}, each
    independent because the connection set avoids that hyperplane:
    `ConnectionSet` rejects a line inside it and checks v[n-1] != 0 for
    every member v, so the coloring is proper without an edge scan.
    """
    if not g.connection.members:
        raise ValueError("empty connection set has no coset coloring")
    return Coloring(g.q, g.space.coset_labels)


def is_proper(g, coloring):
    """True when no edge joins two vertices of one class.

    Streams the neighbour masks and stops at the first vertex whose
    neighbourhood meets its own class; the masks are not kept.
    """
    if len(coloring.class_of) != g.num_vertices or None in coloring.class_of:
        raise ValueError("coloring does not cover every vertex")
    class_of = coloring.class_of
    class_masks = {}
    for v, c in enumerate(class_of):
        class_masks[c] = class_masks.get(c, 0) | 1 << v
    return not any(m & class_masks[c] for m, c in zip(g.neighbor_masks(), class_of))


def line_clique(g, line):
    """The q-clique {lam * line : lam in F_q} for a chosen line, given by
    any nonzero vector on it.

    Its translates by the vectors of the hyperplane x[n-1] = 0 partition the
    vertex set into q^(n-1) cliques.
    """
    line = proj_rep(tuple(int(a) % g.q for a in line), g.q)
    if line not in g.connection.lines:
        raise ValueError("line was not chosen in the connection set")
    return tuple(sorted((0, *g.multiples(g.space.universe[line][1]))))


@dataclass(frozen=True)
class ChromaticResult:
    value: int
    coloring: Coloring
    clique: tuple


def exact_chromatic_number(g):
    """Chromatic number with witnesses.

    The chosen-line clique (lower bound q) and the layered coloring (upper
    bound q) settle every nonempty instance without search.
    """
    if not g.connection.lines:
        coloring = Coloring(1, (0,) * g.num_vertices)
        return ChromaticResult(1, coloring, ())
    clique = line_clique(g, g.connection.lines[0])
    return ChromaticResult(g.q, coset_coloring(g), clique)


def enumerate_proper_partitions(g, limit=ENUM_LIMIT):
    """Yield every proper partition into at most q classes once.

    Partitions are canonical: vertex 0 opens class 0 and new classes appear
    in first-use order, so relabelings of the same partition are not
    repeated.  Raises when more than limit partitions would be yielded.
    The partial assignments are walked by permgroup.leaves, whose stack is
    explicit, so the vertex count is not bounded by the recursion limit.
    """
    adj = g.adjacency_masks()

    def children(v, node):
        # v joins each open class that holds none of its neighbours, in
        # class order, then opens the next class while fewer than q are open
        class_of, class_masks = node
        for c, m in enumerate(class_masks):
            if not m & adj[v]:
                yield class_of + (c,), class_masks[:c] + (m | 1 << v,) + class_masks[c + 1 :]
        if len(class_masks) < g.q:
            yield class_of + (len(class_masks),), class_masks + (1 << v,)

    partitions = leaves(((), ()), 0, g.num_vertices, children)
    for yielded, (class_of, class_masks) in enumerate(partitions, 1):
        if yielded > limit:
            raise EnumerationLimitExceeded(f"more than {limit} proper partitions")
        yield Coloring(len(class_masks), class_of)


def plus_zero_recolor(coloring):
    """Move vertex 0 into a fresh singleton class.

    Properness is preserved; the class count grows by one.
    """
    class_of = list(coloring.class_of)
    class_of[0] = coloring.num_colors
    return Coloring(coloring.num_colors + 1, tuple(class_of))
