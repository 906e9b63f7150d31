"""Permutations of the vertex set and stabilizer-chain groups.

Permutations are image tuples; compose(p, r) applies r first.  A PermGroup
is built from a base and a strong generating set relative to it, which every
group here comes with: K's is written down, the automorphism search finds
one on its individualization path, and the class-fixing search one on its
input group's base.  Each level's orbit is a BFS in generator order, which
gives exact order and membership tests without a Schreier-Sims closure.
Every backtrack in the package runs on the one explicit stack of leaves:
each group search is depth_first over a tree of images, and the listing of
proper partitions in coloring walks a tree of partial class assignments.
Every generator search is complete_levels over a base.
"""

import math

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
    stabilizer of base[:k].  The constructor trusts this and only computes
    each level's Schreier vector.
    """

    def __init__(self, degree, base, generators):
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
        self._invs = [inverse_perm(g) for g in self.generators]
        # per level: point -> index of the generator reaching it (None at
        # the base point), in the BFS order of the orbit
        self._svs = []
        for k, b in enumerate(self._base):
            idxs = [i for i, level in enumerate(levels) if level >= k]
            sv = {b: None}
            orbit = [b]
            for x in orbit:
                for i in idxs:
                    y = self.generators[i][x]
                    if y not in sv:
                        sv[y] = i
                        orbit.append(y)
            self._svs.append(sv)

    def _rep(self, k, x):
        """Transversal element mapping base[k] to x."""
        b = self._base[k]
        sv = self._svs[k]
        word = []
        while x != b:
            i = sv[x]
            word.append(i)
            x = self._invs[i][x]
        rep = self._identity
        for i in reversed(word):
            rep = compose(self.generators[i], rep)
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

    def to_json_dict(self):
        return {
            "generators": [list(g) for g in self.generators],
            "order": str(self.order()),
        }


def scalar_affine_generators(q, n):
    """The generators of the group K of maps x -> lam * x + b, as a new
    list of permutations: one translation per coordinate, then scaling by
    the smallest primitive root.

    They are strong on the base (0, 1): the translations move 0 anywhere,
    the scaling alone fixes 0 and moves vertex 1 = e_0 (coordinate 0 is the
    least significant digit) through its q - 1 multiples, and only the
    identity fixes both.
    """
    gens = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        gens.append(tuple(affine_ids(q, n, 1, e)))
    gens.append(tuple(affine_ids(q, n, primitive_root(q), (0,) * n)))
    return gens


def scalar_affine_group(q, n):
    """The group K, of order exactly q^n * (q - 1), on its base (0, 1)."""
    return PermGroup(q ** n, (0, 1), scalar_affine_generators(q, n))


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


def fixing_subgroup_of_partition(group, labels):
    """Subgroup of elements preserving every point's label, that is, fixing
    every class of the partition setwise.

    Its generators are found over the chain of `group` by complete_levels.
    At level k, a point x of base[k]'s orbit with base[k]'s label names the
    coset of elements mapping base[k] to x; the first label-preserving one
    found by the walk, which prunes base images that change their label,
    becomes a generator.  They are strong on the same base.
    """
    if len(labels) != group.degree:
        raise ValueError(f"{len(labels)} labels for a group of degree {group.degree}")
    base = group.base()

    def images(k, prefix):
        want = labels[base[k]]
        return (x for x in group.orbit(k) if labels[prefix[x]] == want)

    def leaf(g):
        return g if fixes_labels(g, labels) else None

    def candidates(k):
        return (x for x in group.orbit(k) if labels[x] == labels[base[k]])

    def find(k, x):
        return group.walk(k + 1, len(base), group._rep(k, x), images, leaf)

    return PermGroup(group.degree, base, complete_levels(base, [], candidates, find))


def point_orbit(point, gens):
    """The set of images of point under the group the generators span."""
    orbit = {point}
    frontier = [point]
    for x in frontier:
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                frontier.append(g[x])
    return orbit


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


def complete_levels(base, gens, candidates, find):
    """Grow gens into a strong generating set on base, deepest level first
    (Leon, 1991), and return it.  At level k, each point of candidates(k)
    outside the orbit of base[k] under the generators fixing base[:k] goes
    to find(k, x), which returns an element fixing base[:k] and mapping
    base[k] to x, or None; each element found joins gens."""
    given = len(gens)  # the elements found later fix base[:k] by construction
    for k in reversed(range(len(base))):
        fixed = [g for g in gens[:given] if all(g[b] == b for b in base[:k])] + gens[given:]
        reached = point_orbit(base[k], fixed)
        for x in candidates(k):
            if x not in reached and (g := find(k, x)) is not None:
                gens.append(g)
                fixed.append(g)
                reached = point_orbit(base[k], fixed)
    return gens
