"""Permutations of the vertex set and stabilizer-chain groups.

Permutations are image tuples; compose(p, r) applies r first.  PermGroup
builds a base and strong generating set deterministically (base points are
the first points moved, orbits are BFS in generator order), which gives exact
order and membership tests.  A known group order short-circuits the closure
verification as soon as the transversal product reaches it.
"""

from .field import affine_ids, decode, encode, mat_apply, primitive_root


def identity_perm(degree):
    return tuple(range(degree))


def compose(p, r):
    """The permutation applying r first, then p."""
    return tuple(p[x] for x in r)


def inverse_perm(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def translation_perm(q, n, b):
    return tuple(affine_ids(q, n, 1, b))


def scalar_perm(q, n, lam):
    return tuple(affine_ids(q, n, lam, (0,) * n))


def affine_perm(q, n, lam, b):
    """The map x -> lam * x + b as a vertex permutation."""
    return tuple(affine_ids(q, n, lam, b))


def linear_perm(q, n, m):
    return tuple(
        encode(mat_apply(m, decode(i, q, n), q), q) for i in range(q ** n)
    )


class PermGroup:
    def __init__(self, degree, generators=(), known_order=None):
        self.degree = degree
        self._identity = tuple(range(degree))
        self.generators = []
        seen = set()
        for g in generators:
            g = tuple(g)
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
            if g != self._identity and g not in seen:
                seen.add(g)
                self.generators.append(g)
        self._known_order = known_order
        self._base = []
        self._sgens = []
        self._sinvs = []
        self._glevels = []
        self._orbits = []  # per level: BFS order list
        self._svs = []  # per level: point -> index of sgen reaching it (None at base)
        self._build()

    # -- chain construction -------------------------------------------------

    def _first_moved(self, p):
        for i in range(self.degree):
            if p[i] != i:
                return i
        raise ValueError("identity has no moved point")

    def _level_gen_indices(self, k):
        return [i for i, lev in enumerate(self._glevels) if lev >= k]

    def _rebuild_orbit(self, k):
        b = self._base[k]
        idxs = self._level_gen_indices(k)
        sv = {b: None}
        order = [b]
        head = 0
        while head < len(order):
            x = order[head]
            head += 1
            for i in idxs:
                y = self._sgens[i][x]
                if y not in sv:
                    sv[y] = i
                    order.append(y)
        self._orbits[k] = order
        self._svs[k] = sv

    def _install(self, p):
        lev = None
        for k, b in enumerate(self._base):
            if p[b] != b:
                lev = k
                break
        if lev is None:
            self._base.append(self._first_moved(p))
            self._orbits.append([])
            self._svs.append({})
            lev = len(self._base) - 1
        self._sgens.append(p)
        self._sinvs.append(inverse_perm(p))
        self._glevels.append(lev)
        for k in range(lev + 1):
            self._rebuild_orbit(k)
        return lev

    def _rep(self, k, x):
        """Transversal element mapping base[k] to x."""
        b = self._base[k]
        sv = self._svs[k]
        word = []
        while x != b:
            i = sv[x]
            word.append(i)
            x = self._sinvs[i][x]
        rep = self._identity
        for i in reversed(word):
            rep = compose(self._sgens[i], rep)
        return rep

    def sift(self, p, start=0):
        """Factor p through the chain; returns (residue, level reached)."""
        p = tuple(p)
        for k in range(start, len(self._base)):
            x = p[self._base[k]]
            if x == self._base[k]:
                continue
            if x not in self._svs[k]:
                return p, k
            p = compose(inverse_perm(self._rep(k, x)), p)
        return p, len(self._base)

    def contains(self, p):
        residue, _ = self.sift(p)
        return residue == self._identity

    def _product(self):
        prod = 1
        for orbit in self._orbits:
            prod *= len(orbit)
        return prod

    def _build(self):
        for g in self.generators:
            if self._known_order is not None and self._product() == self._known_order:
                return
            if not self.contains(g):
                self._install(g)
        if self._known_order is not None and self._product() == self._known_order:
            return
        self._verify_closure()
        if self._known_order is not None and self._product() != self._known_order:
            raise ValueError(
                f"group order {self._product()} does not match expected {self._known_order}"
            )

    def _verify_closure(self):
        k = len(self._base) - 1
        while k >= 0:
            if self._known_order is not None and self._product() == self._known_order:
                return
            restart = self._check_level(k)
            if restart is None:
                k -= 1
            else:
                k = restart

    def _check_level(self, k):
        b = self._base[k]
        for x in list(self._orbits[k]):
            ux = self._rep(k, x)
            for i in self._level_gen_indices(k):
                g = self._sgens[i]
                y = g[x]
                s = compose(inverse_perm(self._rep(k, y)), compose(g, ux))
                if s == self._identity:
                    continue
                residue, _ = self.sift(s, k + 1)
                if residue != self._identity:
                    return self._install(residue)
        return None

    # -- queries -------------------------------------------------------------

    def order(self):
        return self._product()

    def base(self):
        return tuple(self._base)

    def to_json_dict(self):
        return {
            "generators": [list(g) for g in self.generators],
            "order": str(self.order()),
        }


def scalar_affine_group(q, n):
    """The group of maps x -> lam * x + b, built from explicit generators.

    Generators: one translation per coordinate and scaling by the smallest
    primitive root; the order is exactly q^n * (q - 1).
    """
    gens = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        gens.append(translation_perm(q, n, e))
    gens.append(scalar_perm(q, n, primitive_root(q)))
    return PermGroup(q ** n, gens, known_order=q ** n * (q - 1))


def classes_to_labels(classes, degree):
    """Class index of every point; the classes must partition range(degree)."""
    labels = [None] * degree
    for i, cl in enumerate(classes):
        for v in cl:
            if not isinstance(v, int) or not 0 <= v < degree:
                raise ValueError(f"class member {v!r} is not an id in [0, {degree})")
            if labels[v] is not None:
                raise ValueError(f"id {v} appears in more than one class")
            labels[v] = i
    if None in labels:
        raise ValueError("classes do not cover every id")
    return labels


def fixing_subgroup_of_partition(group, classes):
    """Subgroup of elements mapping every class onto itself.

    An element fixes each class setwise iff it preserves every point's class
    label.  The subgroup is found by generators over the chain of `group`,
    deepest level first (Leon, 1991).  At level k, each point x of base[k]'s
    orbit that has base[k]'s label but is not yet reached by the generators
    found so far names the coset of elements mapping base[k] to x; the
    first label-preserving element in it becomes a generator.  Branches
    whose base image changes its label are pruned.  The generators found at
    levels >= k span the part of the subgroup fixing base[:k], so the
    product of their orbit sizes is the order.
    """
    labels = classes_to_labels(classes, group.degree)
    base = group.base()
    points = range(group.degree)

    def search(k, prefix):
        if k == len(base):
            return prefix if all(labels[prefix[x]] == labels[x] for x in points) else None
        want = labels[base[k]]
        for x in group._orbits[k]:
            if labels[prefix[x]] == want:
                found = search(k + 1, compose(prefix, group._rep(k, x)))
                if found is not None:
                    return found
        return None

    gens = []
    order = 1
    for k in reversed(range(len(base))):
        reached = point_orbit(base[k], gens)
        for x in group._orbits[k]:
            if x not in reached and labels[x] == labels[base[k]]:
                g = search(k + 1, group._rep(k, x))
                if g is not None:
                    gens.append(g)
                    reached = point_orbit(base[k], gens)
        order *= len(reached)
    return PermGroup(group.degree, gens, known_order=order)


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
