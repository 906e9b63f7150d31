"""Permutations of the vertex set and stabilizer-chain groups.

Permutations are image tuples; compose(p, r) applies r first.  A PermGroup
is built from a base and a strong generating set relative to it, which every
group here comes with: K's is written down (scalar_affine_group, built once
per (q, n)), and so are that of a graph with twins, from its twin quotient's
(twin_group), and Sym(b) x C on a grid of b rows, C a given group on its
columns (product_group), the group of a graph whose S is a cone (see
autgroup.automorphism_group), both by the one lift of a group on classes of
points (lift); the automorphism and class-fixing searches find theirs as the
PermGroup constructor completes each level of the chain, deepest first.
Whether any element but the identity preserves a labelling needs no chain:
first_fixing_element runs the class-fixing search in the same order and
stops at its first element.
Each level's orbit is a BFS in generator order (schreier_vector) that
keeps each point's parent, a Schreier tree (Seress, 2003): transversal
elements are read up it, with no generator inverted, and it gives exact
order and membership tests without a Schreier-Sims closure.
Every backtrack in the package runs on the one explicit stack of leaves:
each group search is depth_first over a tree of images, and the listing of
proper partitions in coloring walks a tree of partial class assignments.
"""

import math
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .field import affine_ids, primitive_root


def compose(p, r):
    """The permutation applying r first, then p."""
    return tuple(p[x] for x in r)


def inverse_perm(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def fixes_labels(p, labels):
    """True when p maps every point to a point with the same label."""
    return all(labels[y] == a for y, a in zip(p, labels))


class PermGroup:
    """The group spanned by a strong generating set relative to a known base.

    For every k, the generators fixing base[:k] must generate the pointwise
    stabilizer of base[:k].  Without candidates and find, the constructor
    trusts this and only computes each level's Schreier vector.  With them,
    it first completes each level, deepest first (Leon, 1991): each point x
    of candidates(k) outside the orbit of base[k] so far goes to find(k, x),
    which returns an element fixing base[:k] and mapping base[k] to x, or
    None.  Each element found is appended to the generators and to the
    caller's list, so an exception raised by find leaves the caller the
    elements found before it.
    """

    def __init__(self, degree, base, generators, candidates=None, find=None):
        self.degree = degree
        self._identity = tuple(range(degree))
        self._base = tuple(base)
        self.generators = []
        levels = []  # per generator: the first base level it moves
        seen = set()
        for g in generators:
            g = tuple(g)
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
            if g == self._identity or g in seen:
                continue
            level = next((k for k, b in enumerate(self._base) if g[b] != b), None)
            if level is None:
                raise ValueError("a non-identity generator fixes every base point")
            seen.add(g)
            self.generators.append(g)
            levels.append(level)

        def vector(k):
            gens = enumerate(self.generators)
            return schreier_vector(self._base[k], [(i, g) for i, g in gens if levels[i] >= k])

        # per level: the Schreier tree of the orbit, point -> (index of the
        # generator reaching it, its parent), in BFS order
        self._svs = [None] * len(self._base)
        for k in reversed(range(len(self._base))):
            self._svs[k] = vector(k)
            for x in candidates(k) if candidates else ():
                if x not in self._svs[k] and (g := find(k, x)) is not None:
                    generators.append(g)
                    self.generators.append(g)
                    levels.append(k)
                    self._svs[k] = vector(k)
        # level k -> each point's orbit under the stabilizer of base[:k], as
        # an index, where the maker of the group knows it; the label search
        # prunes by it (see _label_search)
        self.orbits = {}

    def _rep(self, k, x):
        """Transversal element mapping base[k] to x: the generators on the
        tree's path from base[k] down to x, applied in that order."""
        sv = self._svs[k]
        rep = self._identity
        while (step := sv[x]) is not None:
            i, x = step
            rep = compose(rep, self.generators[i])
        return rep

    def contains(self, p):
        """Whether p sifts through the chain to the identity."""
        p = tuple(p)
        for k, b in enumerate(self._base):
            if p[b] != b:
                if p[b] not in self._svs[k]:
                    return False
                p = compose(inverse_perm(self._rep(k, p[b])), p)
        return p == self._identity

    def walk(self, k, depth, prefix, images, leaf):
        """First result of leaf over the products prefix * u_k * ... * u_{depth-1}.

        Each u_j is the transversal element mapping base[j] to a point x of
        its orbit, taken depth first in the order images(j, g) yields them,
        g being the product so far; points outside the orbit are skipped.
        The later factors fix base[j], so the finished element maps base[j]
        to g[x].  leaf(g) sees each product of depth factors and returns the
        result, or None to go on.
        """

        def children(j, g):
            return (compose(g, self._rep(j, x)) for x in images(j, g) if x in self._svs[j])

        return depth_first(prefix, k, depth, children, leaf)

    # -- queries -------------------------------------------------------------

    def orbit(self, k):
        """base[k]'s orbit under the stabilizer of base[:k], in BFS order."""
        return self._svs[k].keys()

    def order(self):
        return math.prod(map(len, self._svs))

    def base(self):
        return self._base


@lru_cache(maxsize=4)
def scalar_affine_group(q, n):
    """The group K of maps x -> lam * x + b, of order exactly q^n * (q - 1).

    Its generators are one translation per coordinate, then scaling by the
    smallest primitive root.  They are strong on the base (0, q^(n-1)): the
    translations move 0 anywhere, the scaling alone fixes 0 and moves
    vertex q^(n-1) = e_(n-1) (coordinate n - 1 is the most significant
    digit) through its q - 1 multiples, one in each coset class
    x[n-1] = lam, and only the identity fixes both.  Cached, as a process
    works on few sizes: the automorphism search returns this one object in
    case (i), so no caller may mutate it.
    """
    gens = [affine_ids(q, n, 1, tuple(int(j == i) for j in range(n))) for i in range(n)]
    gens.append(affine_ids(q, n, primitive_root(q), (0,) * n))
    return PermGroup(q ** n, (0, q ** (n - 1)), gens)


def transpositions(degree, pairs):
    """The permutations of range(degree) swapping x and y, for each (x, y) of pairs."""
    identity, swaps = tuple(range(degree)), []
    for x, y in pairs:
        swap = list(identity)
        swap[x], swap[y] = y, x
        swaps.append(tuple(swap))
    return swaps


def lift(generators, classes):
    """Each g of generators, on range(len(classes)), lifted to map
    classes[c][i] to classes[g[c]][i], the classes being of one size and a
    partition of the points: read class by class, in the classes' order,
    and put in the points' order by the inverse of that order."""
    place = itemgetter(*inverse_perm([*chain.from_iterable(classes)]))
    return [place([*chain.from_iterable(map(classes.__getitem__, g))]) for g in generators]


def twin_generators(generators, cosets):
    """generators, which act on the classes of twins cosets[c], lifted to
    move twin i of class c to twin i of its image (lift); then the
    transpositions of twins i and i + 1 of each class, in order."""
    pairs = [pair for twins in cosets for pair in zip(twins, twins[1:])]
    return [*lift(generators, cosets), *transpositions(sum(map(len, cosets)), pairs)]


def twin_group(generators, base, cosets):
    """The group of a graph whose twin classes are cosets[c], the points of
    a graph without twins whose group Q has the strong generating set
    generators on base: Sym(|W|) wr Q, |W| the size of a class, of order
    |W|!^(classes) |Q|.

    Twins have the same neighbours, so every permutation of each class is
    an automorphism, and every automorphism permutes the classes as one of
    Q.  The generators (twin_generators) are strong on the base of twin 0
    of each base point of Q, then twins 0..|W|-2 of every class, those
    already in it skipped: fixing the first part leaves the elements that
    fix each class, and there twins 0..i-1 of a class fixed leave the
    permutations of twins i.. of it, spanned by the transpositions of twins
    i and i+1 onward.  The group contains K when the twins are those of a
    graph of the package, but its generators are not K's.
    """
    fixed = [cosets[b][0] for b in base]
    first = set(fixed)
    base = fixed + [x for twins in cosets for x in twins[:-1] if x not in first]
    group = PermGroup(sum(map(len, cosets)), base, twin_generators(generators, cosets))
    # the stabilizer of the first part fixes every class: its orbits are
    # the points of that part, each alone, and the rest of each class
    index = group.orbits[len(fixed)] = classes_to_labels(cosets, group.degree)
    for i, x in enumerate(fixed, len(cosets)):
        index[x] = i
    return group


def star_swaps(k):
    """Sym(k)'s star transpositions on range(k): of i and k - 1, i < k - 1."""
    return transpositions(k, [(i, k - 1) for i in range(k - 1)])


def grid_generators(rows, known, generators):
    """known, then generators, permutations of range(a), lifted onto the
    columns of the grid rows, of b rows of a > 1 points each, then Sym(b)'s
    star transpositions lifted onto the rows."""
    return [*known, *lift(generators, [*zip(*rows)]), *lift(star_swaps(len(rows)), rows)]


def product_group(rows, known, generators, base):
    """Sym(b) x C on the grid rows[t][h] of b > 1 rows of a points each: C
    != 1, the group on range(a) of the strong generating set generators on
    base, permutes the columns h alike in every row, and Sym(b) the rows;
    of order b! |C|.

    Its generators are grid_generators, known being elements of the group.
    They are strong on the base rows[0][base], then rows[j][0] for 0 < j <
    b - 1: fixing rows[0][h] means fixing row 0 and column h, so fixing the
    first k points of that leaves C's stabilizer of base[:k] times Sym of
    rows 1.. (of every row, for k = 0), spanned by the lifted generators
    that fix base[:k] and the row swaps (row_j row_(b-1)), j > 0; with all
    of it fixed, every column is, and fixing rows[j][0] for 0 < j < k
    leaves Sym of rows k.. likewise.  Added elements of the group keep a
    set strong.  The rows' Schreier trees have depth at most 2, through the
    star centre.
    """
    base = [*(rows[0][h] for h in base), *(row[0] for row in rows[1:-1])]
    return PermGroup(sum(map(len, rows)), base, grid_generators(rows, known, generators))


def classes_to_labels(classes, degree):
    """Class index of every point; the classes must partition range(degree)."""
    labels = [None] * degree
    for i, cl in enumerate(classes):
        for v in cl:
            if type(v) is not int or not 0 <= v < degree:
                raise ValueError(f"class member {v!r} is not an id in [0, {degree})")
            if labels[v] is not None:
                raise ValueError(f"id {v} appears in more than one class")
            labels[v] = i
    if None in labels:
        raise ValueError("classes do not cover every id")
    return labels


def _label_search(group, labels):
    """(candidates, find) of the search for label-preserving elements over
    the chain of group, as the PermGroup constructor takes them.

    At level k, a point x of base[k]'s orbit with base[k]'s label names
    the coset of elements mapping base[k] to x; find(k, x) returns the
    first label-preserving one found by the walk, or None.  The walk prunes
    base images that change their label, and, at a level k whose orbits
    the group knows (PermGroup.orbits), every product g whose elements
    g h, h fixing base[:k], cannot keep the labels: h maps each of those
    orbits onto itself, so g must map each to points carrying the same
    labels, counted.  A twin group knows them where its classes of twins
    start, and without that prune it would try every arrangement of one
    class's twins before finding that a later class cannot be matched.
    """
    if len(labels) != group.degree:
        raise ValueError(f"{len(labels)} labels for a group of degree {group.degree}")
    base = group.base()
    # per level k of group.orbits: each point's orbit there, and the
    # (orbit, label) pairs of every point, sorted
    counted = {k: (index, sorted(zip(index, labels))) for k, index in group.orbits.items()}

    def images(k, prefix):
        if k in counted:
            index, want = counted[k]
            if sorted(zip(index, map(labels.__getitem__, prefix))) != want:
                return ()
        want = labels[base[k]]
        return (x for x in group.orbit(k) if labels[prefix[x]] == want)

    def leaf(g):
        return g if fixes_labels(g, labels) else None

    def candidates(k):
        return (x for x in group.orbit(k) if labels[x] == labels[base[k]])

    def find(k, x):
        return group.walk(k + 1, len(base), group._rep(k, x), images, leaf)

    return candidates, find


def fixing_subgroup_of_partition(group, labels):
    """Subgroup of elements preserving every point's label, that is, fixing
    every class of the partition setwise.

    Its generators are found over the chain of `group` as the returned
    group's levels are completed, deepest first: each becomes a generator
    at its level (see _label_search).  They are strong on the same base.
    """
    return PermGroup(group.degree, group.base(), [], *_label_search(group, labels))


def first_fixing_element(group, labels):
    """The first non-identity element of group preserving every point's
    label, or None when only the identity does; the search stops there.

    It walks the levels deepest first, as fixing_subgroup_of_partition
    does, so it returns that subgroup's first generator: until one is
    found, base[k]'s orbit in the subgroup is base[k] alone, and every
    other candidate is tried.
    """
    candidates, find = _label_search(group, labels)
    base = group.base()
    for k in reversed(range(len(base))):
        for x in candidates(k):
            if x != base[k] and (g := find(k, x)) is not None:
                return g
    return None


def schreier_vector(point, gens):
    """{y: (label of the generator g that first reached y, the x with
    g[x] == y)}, the Schreier tree of the orbit of point for (label,
    generator) pairs gens, point itself mapping to None.  Its keys are the
    orbit in BFS order, the generators taken in the order given."""
    sv = {point: None}
    orbit = [point]
    for x in orbit:
        for i, g in gens:
            y = g[x]
            if y not in sv:
                sv[y] = i, x
                orbit.append(y)
    return sv


def orbit_count(generators, degree):
    """The number of orbits of the group the generators span on
    range(degree), one schreier_vector per orbit."""
    generators = list(enumerate(generators))
    seen = set()
    count = 0
    for x in range(degree):
        if x not in seen:
            count += 1
            seen.update(schreier_vector(x, generators))
    return count


def leaves(root, start, end, children):
    """Yield the nodes at depth end below root, at depth start, in depth
    first order; start == end yields root alone.  children(depth, node)
    yields a node's children, never None.  The stack is explicit, so no
    recursion limit."""
    if start == end:
        yield root
        return
    stack = [(start, iter(children(start, root)))]
    while stack:
        depth, nodes = stack[-1]
        node = next(nodes, None)
        if node is None:
            stack.pop()
        elif depth + 1 < end:
            stack.append((depth + 1, iter(children(depth + 1, node))))
        else:
            yield node


def depth_first(root, start, end, children, leaf):
    """First result of leaf that is not None over leaves(root, start, end,
    children); the search stops there."""
    for node in leaves(root, start, end, children):
        if (found := leaf(node)) is not None:
            return found
    return None
