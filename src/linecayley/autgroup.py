"""Automorphism groups of the line Cayley graphs.

The solver is a partition-refinement backtracker: it keeps a pair of ordered
partitions refined in lockstep (splits ordered only by cell position and
neighbor-count value, so refinement commutes with any automorphism), recurses
on the first smallest non-singleton cell, and verifies every candidate at the
leaves against the adjacency masks.  The scalar-affine group is seeded into
the generator pool, whose orbits prune sibling branches; a node budget turns
long searches into an explicitly incomplete result instead of a wrong one.
The points individualized on the leftmost path form a base, and the pool is
a strong generating set on it, so the group is built without a closure.
"""

import sys
from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceeded
from .field import (
    decode,
    encode,
    gaussian_binomial_1,
    is_scalar_matrix,
    kernel,
    mat_apply,
    mat_inverse,
    mat_mul,
    mat_sub_scalar,
    rank,
    vec_add,
    vec_scale,
)
from .geometry import all_projective_points, proj_rep
from .permgroup import PermGroup, point_orbit, scalar_affine_group


@dataclass
class AutResult:
    group: PermGroup | None
    complete: bool
    nodes: int
    pool: tuple


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _preserves_masks(masks, p):
    """Whether p maps every neighbor mask onto the mask of the image vertex."""
    for u, mask in enumerate(masks):
        image = 0
        for v in _iter_bits(mask):
            image |= 1 << p[v]
        if image != masks[p[u]]:
            return False
    return True


def _cell_mask(cell):
    m = 0
    for v in cell:
        m |= 1 << v
    return m


class _Search:
    def __init__(self, masks, pool, budget):
        self.masks = masks
        self.degree = len(masks)
        self.pool = pool
        self.budget = budget
        self.nodes = 0
        self.base = None  # the prefix at the leftmost leaf, set by stabilize

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"automorphism search exceeded {self.budget} nodes")

    def _refine(self, cells, queue):
        """Lockstep equitable refinement; None when the two sides diverge."""
        masks = self.masks
        while queue:
            splitl, splitr = queue.popleft()
            newcells = []
            for cl, cr in cells:
                if len(cl) == 1:
                    newcells.append((cl, cr))
                    continue
                bucketl = {}
                for v in cl:
                    bucketl.setdefault((masks[v] & splitl).bit_count(), []).append(v)
                bucketr = {}
                for v in cr:
                    bucketr.setdefault((masks[v] & splitr).bit_count(), []).append(v)
                keys = sorted(bucketl)
                if keys != sorted(bucketr):
                    return None
                if any(len(bucketl[k]) != len(bucketr[k]) for k in keys):
                    return None
                if len(keys) == 1:
                    newcells.append((cl, cr))
                    continue
                for k in keys:
                    fl, fr = tuple(bucketl[k]), tuple(bucketr[k])
                    newcells.append((fl, fr))
                    queue.append((_cell_mask(fl), _cell_mask(fr)))
            cells = newcells
        return cells

    def initial(self):
        self._tick()
        full = tuple(range(self.degree))
        fullmask = (1 << self.degree) - 1
        return self._refine([(full, full)], deque([(fullmask, fullmask)]))

    def _individualize(self, cells, k, u, w):
        self._tick()
        cl, cr = cells[k]
        restl = tuple(x for x in cl if x != u)
        restr = tuple(x for x in cr if x != w)
        newcells = (
            cells[:k] + [((u,), (w,)), (restl, restr)] + cells[k + 1 :]
        )
        queue = deque(
            [(1 << u, 1 << w), (_cell_mask(restl), _cell_mask(restr))]
        )
        return self._refine(newcells, queue)

    @staticmethod
    def _target_cell(cells):
        best = None
        for i, (cl, _) in enumerate(cells):
            if len(cl) >= 2 and (best is None or len(cl) < len(cells[best][0])):
                best = i
        return best

    def _leaf(self, cells):
        p = [0] * self.degree
        for cl, cr in cells:
            p[cl[0]] = cr[0]
        p = tuple(p)
        return p if _preserves_masks(self.masks, p) else None

    def _find_iso(self, cells):
        k = self._target_cell(cells)
        if k is None:
            return self._leaf(cells)
        u = cells[k][0][0]
        for w in cells[k][1]:
            child = self._individualize(cells, k, u, w)
            if child is not None:
                result = self._find_iso(child)
                if result is not None:
                    return result
        return None

    def stabilize(self, cells, prefix):
        """Grow the pool until it generates all automorphisms fixing prefix.

        For each prefix on the leftmost path, the pool elements fixing it
        then generate its stabilizer, and at the leaf only the identity
        fixes the prefix: the pool is a strong generating set on it.
        """
        k = self._target_cell(cells)
        if k is None:
            self.base = tuple(prefix)
            return
        targets = cells[k][0]
        t1 = targets[0]
        child = self._individualize(cells, k, t1, t1)
        self.stabilize(child, prefix + [t1])
        fixed = [g for g in self.pool if all(g[v] == v for v in prefix)]
        orbit = point_orbit(t1, fixed)
        for tj in targets[1:]:
            if tj in orbit:
                continue
            pair = self._individualize(cells, k, t1, tj)
            found = self._find_iso(pair) if pair is not None else None
            if found is not None:
                self.pool.append(found)
                fixed.append(found)
                orbit = point_orbit(t1, fixed)


def automorphism_group(graph, node_budget=200000):
    """Full automorphism group, or the subgroup found when the budget runs out.

    The scalar-affine group's generators seed the pool, so it is always
    contained in the result.
    """
    degree = graph.num_vertices
    k_gens = scalar_affine_group(graph.q, graph.n).generators
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 3 * degree + 500))
    search = _Search(graph.adjacency_masks(), list(k_gens), node_budget)
    try:
        cells = search.initial()
        search.stabilize(cells, [])
    except BudgetExceeded:
        # report what was found; the span of a truncated pool has no
        # trustworthy order, so no group is materialized
        return AutResult(None, False, search.nodes, tuple(search.pool))
    gens = tuple(search.pool)
    return AutResult(PermGroup(degree, search.base, gens), True, search.nodes, gens)


def is_automorphism(graph, p):
    return _preserves_masks(graph.adjacency_masks(), p)


def group_equals_scalar_affine(group, q, n):
    if group.order() != q ** n * (q - 1):
        return False
    k_group = scalar_affine_group(q, n)
    return all(group.contains(g) for g in k_group.generators)


def equals_scalar_affine(aut, q, n):
    """Whether a completed search returned exactly the scalar-affine group."""
    if not aut.complete:
        raise ValueError("automorphism search was incomplete; raise the node budget")
    return group_equals_scalar_affine(aut.group, q, n)


def _require_invertible(m, q):
    if rank(m, q) != len(m):
        raise ValueError("matrix is singular")


def fixed_line_count_scan(m, universe):
    """Fixed lines of the universe, counted by direct scan."""
    q = universe.q
    _require_invertible(m, q)
    return sum(
        1 for rep in universe if proj_rep(mat_apply(m, rep, q), q) == rep
    )


def fixed_line_count_eigen(m, q, n):
    """Fixed lines of the universe, counted from eigenspace dimensions.

    A fixed line is spanned by an eigenvector; for each eigenvalue the
    admissible lines are those of the eigenspace minus those falling inside
    the excluded hyperplane.
    """
    _require_invertible(m, q)
    total = 0
    for lam in range(1, q):
        basis = kernel(mat_sub_scalar(m, lam, q), q)
        d = len(basis)
        if d == 0:
            continue
        d0 = d if all(b[-1] == 0 for b in basis) else d - 1
        total += gaussian_binomial_1(d, q) - gaussian_binomial_1(d0, q)
    return total


def preserves_line_universe(m, q, n):
    """True when the map fixes the hyperplane x[n-1] = 0, hence permutes the universe."""
    for i in range(n - 1):
        e = tuple(1 if j == i else 0 for j in range(n))
        if mat_apply(m, e, q)[-1] != 0:
            return False
    return True


def _cycle_count(reps, image):
    index = {rep: i for i, rep in enumerate(reps)}
    perm = [index[image(rep)] for rep in reps]
    seen = [False] * len(reps)
    cycles = 0
    for i in range(len(reps)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def line_orbit_count(m, universe):
    """Orbits of the map on the line universe; requires that it be preserved."""
    q = universe.q
    _require_invertible(m, q)
    if not preserves_line_universe(m, q, universe.n):
        raise ValueError("map does not preserve the line universe")
    return _cycle_count(
        list(universe), lambda rep: proj_rep(mat_apply(m, rep, q), q)
    )


def orbit_count_all_lines(m, q, n):
    """Orbits of the map on all lines through the origin (always defined)."""
    _require_invertible(m, q)
    return _cycle_count(
        all_projective_points(q, n), lambda rep: proj_rep(mat_apply(m, rep, q), q)
    )


def _linear_witness(graph, group):
    """The first non-scalar invertible matrix fixing the connection set S met
    on the stabilizer chain of the graph's automorphism group, or None.

    Such a matrix M is an automorphism fixing vertex 0, so it is the one
    element of the group with its images of the base, and the walk over the
    chain only has to go where a linear map can.  A base point outside the
    span of the earlier free ones is free and may go anywhere in its orbit.
    Every other base point, the zero vector among them, is a combination of
    earlier free points and is forced to the same combination of their
    images.  Once the free points span F_q^n, their images C determine
    M = C B^-1 and the walk stops there; if they never do, the basis B is
    completed with unit vectors and C read from the finished element.  The
    walk is complete: no matrix it skips fixes S.
    """
    q, n = graph.q, graph.n
    members = graph.connection.members
    base = group.base()
    free = []
    for b in base:
        if rank([decode(v, q, n) for v in free + [b]], q) > len(free):
            free.append(b)
    depth = base.index(free[-1]) + 1 if len(free) == n else len(base)
    basis = list(free)  # vertex ids, completed with unit vectors
    for j in range(n):
        if rank([decode(v, q, n) for v in basis + [q ** j]], q) > len(basis):
            basis.append(q ** j)  # q ** j is the id of the unit vector e_j
    b_inv = mat_inverse(tuple(zip(*(decode(v, q, n) for v in basis))), q)
    # a forced point's coordinates over the basis, nonzero only on earlier free points
    coords = [mat_apply(b_inv, decode(b, q, n), q) for b in base]

    def images(k, g):
        if base[k] in free:
            return group.orbit(k)
        y = (0,) * n
        for c, v in zip(coords[k], basis):
            y = vec_add(y, vec_scale(c, decode(g[v], q, n), q), q)
        return (g.index(encode(y, q)),)

    def leaf(g):
        c = tuple(zip(*(decode(g[v], q, n) for v in basis)))
        if rank(c, q) < n:
            return None
        m = mat_mul(c, b_inv, q)
        if is_scalar_matrix(m) or any(mat_apply(m, v, q) not in members for v in members):
            return None
        return m

    return group.walk(0, depth, tuple(range(group.degree)), images, leaf)


def dichotomy_check(graph, aut):
    """Classify the instance: group equals the scalar-affine group, or a
    non-scalar linear map fixes the connection set and extends it.

    "violated" would mean neither holds, which indicates a solver bug rather
    than a counterexample.
    """
    if not aut.complete:
        raise ValueError("automorphism search was incomplete; raise the node budget")
    group = aut.group
    q, n = graph.q, graph.n
    report = {
        "order": str(group.order()),
        "generators": [list(g) for g in group.generators],
        "complete": True,
        "nodes": aut.nodes,
    }
    if group_equals_scalar_affine(group, q, n):
        report["equals_K"] = True
        report["dichotomy"] = "i"
        report["witness"] = None
        return report
    report["equals_K"] = False
    witness = _linear_witness(graph, group)
    report["dichotomy"] = "ii" if witness is not None else "violated"
    report["witness"] = [list(row) for row in witness] if witness else None
    return report
