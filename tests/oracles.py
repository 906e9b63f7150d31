"""Independent brute-force oracles used to cross-check the library.

Everything here is implemented from first principles with different
algorithms than the package: flat enumeration instead of canonical
representatives, plain DFS instead of the clique-plus-layers certificate,
per-vertex decode and encode instead of digit tables, edge-set comparison
instead of adjacency masks, closure under products instead of a stabilizer
chain, a scan of every matrix and a walk over the automorphism group's
chain instead of a backtrack over basis images cell by cell, a lockstep
refinement over adjacency bitmasks instead of the one-sided refinement over
neighbour ids, a sort of every split cell by its counts instead of a
two-way partition of each cell of two fragments, one shift table per member
of S instead of translates of N(0), an edge scan instead of streamed class
masks.

The point-set geometry and the fixed-line counts at the end are not second
copies of library code: the library computes neither.  They check the
paper's lemmas (the direction bound, the fixed-line cap, the orbit bound),
and translation_fixing_witnesses lists the class-fixing translations of
hyperplane-coset partitions, which the paper's χ_D > q argument uses.
planted_homology_connection builds case-(ii) instances, whose Aut is known
to exceed K.
"""

import itertools
import random
from collections import Counter, deque
from itertools import groupby, repeat

from linecayley.cayley import ConnectionSet
from linecayley.errors import BudgetExceeded
from linecayley.field import (
    affine_ids, decode, encode, is_scalar_matrix, mat_apply, require_odd_prime, rref, vec_scale,
)
from linecayley.geometry import line_universe, proj_rep
from linecayley.permgroup import PermGroup

DEFAULT_GL_BUDGET = 10 ** 5


def brute_line_census(q, n):
    """(lines avoiding the last-coordinate hyperplane, all lines) by
    enumerating every 1-dimensional subspace as a frozen point set."""
    lines = set()
    for v in itertools.product(range(q), repeat=n):
        if not any(v):
            continue
        pts = frozenset(
            tuple(a * lam % q for a in v) for lam in range(1, q)
        )
        lines.add(pts)
    good = sum(1 for pts in lines if all(p[-1] != 0 for p in pts))
    return good, len(lines)


def vec_add(u, v, q):
    return tuple([(a + b) % q for a, b in zip(u, v)])


def brute_affine_ids(q, n, lam, b):
    """Image id of every vertex under x -> lam * x + b, by decode and encode."""
    return [encode(vec_add(vec_scale(lam, decode(i, q, n), q), b, q), q) for i in range(q**n)]


def linear_perm(q, n, m):
    """The map x -> m x as a vertex permutation, by decode and encode."""
    return tuple(encode(mat_apply(m, decode(i, q, n), q), q) for i in range(q**n))


def hyperplane_points(normal, offset, q, n):
    """All points x of F_q^n with normal . x = offset, by scanning the space."""
    return {
        v
        for v in itertools.product(range(q), repeat=n)
        if vec_dot(normal, v, q) == offset % q
    }


def brute_chromatic_number(neighbors, max_k):
    """Smallest k admitting a proper coloring, by plain DFS in id order."""
    n = len(neighbors)
    color = [None] * n

    def dfs(v, k):
        if v == n:
            return True
        for c in range(k):
            if all(color[u] != c for u in neighbors[v]):
                color[v] = c
                if dfs(v + 1, k):
                    return True
                color[v] = None
        return False

    for k in range(1, max_k + 1):
        if dfs(0, k):
            return k
    return None


def brute_partition_count(neighbors, max_classes):
    """Number of proper partitions into at most max_classes classes,
    counted once each via first-use label order."""
    n = len(neighbors)
    label = [None] * n
    count = 0

    def dfs(v, used):
        nonlocal count
        if v == n:
            count += 1
            return
        for c in range(used):
            if all(label[u] != c for u in neighbors[v]):
                label[v] = c
                dfs(v + 1, used)
                label[v] = None
        if used < max_classes:
            label[v] = used
            dfs(v + 1, used + 1)
            label[v] = None

    dfs(0, 0)
    return count


def is_edge(graph, u, v):
    """Adjacency by definition: u - v is a member of the connection set."""
    q, n = graph.q, graph.n
    return vec_sub(decode(u, q, n), decode(v, q, n), q) in graph.connection.members


def masks_by_shift_tables(graph):
    """Per-vertex neighbour bitmasks, one bit at a time: for each s in S,
    set bit id(u + s) of vertex u's mask, reading ids off a shift table."""
    masks = [0] * graph.num_vertices
    for s in sorted(graph.connection.members):
        table = affine_ids(graph.q, graph.n, 1, s)
        for u in range(graph.num_vertices):
            masks[u] |= 1 << table[u]
    return masks


def fixing_translations_by_scan(labels, q, n):
    """Id tables of the nonzero translations keeping every label, in id
    order, trying every nonzero vector with one shift table each."""
    for v in itertools.islice(itertools.product(range(q), repeat=n), 1, None):
        table = affine_ids(q, n, 1, v[::-1])
        if all(labels[table[x]] == labels[x] for x in range(q**n)):
            yield table


def proper_by_edge_scan(graph, class_of):
    """Properness by checking both ends of every edge u ~ u + s."""
    return all(
        class_of[u] != class_of[w]
        for u in range(graph.num_vertices)
        for w in graph.neighbor_ids(u)
    )


def _cell_mask(cell):
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def lockstep_refine(masks, cells, queue):
    """Equitable refinement of a pair of ordered partitions in lockstep.

    cells holds (left, right) pairs of vertex tuples and queue a deque of
    (left, right) splitter bitmasks.  Every cell is split by its vertices'
    neighbour counts into each splitter, popcounts of adjacency-mask
    intersections; returns the refined pairs, or None when the two sides
    diverge.
    """
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


def reference_individualized_cells(graph, v):
    """The cells, as sets, of the equitable partition reached by
    individualizing v in the unit partition, by the lockstep refinement."""
    masks = graph.adjacency_masks()
    full = tuple(range(graph.num_vertices))
    (root, _), = lockstep_refine(masks, [(full, full)], deque([(_cell_mask(full),) * 2]))
    rest = tuple(x for x in root if x != v)
    queue = deque([(1 << v,) * 2, (_cell_mask(rest),) * 2])
    return {frozenset(cl) for cl, _ in lockstep_refine(masks, [((v,), (v,)), (rest, rest)], queue)}


def sorting_refine(points, part, queue, stop, expected=None):
    """autgroup.refine as it was when every split cell was sorted
    by its points' counts and grouped into fragments, one key list, sort
    and groupby per cell, whatever the number of distinct counts.  Each
    splitter is counted as the multiset of its points' neighbours, on
    every point, whatever route points would take.

    Same arguments, same in-place effect on part and queue, same return:
    the trace of splits, or None once it departs from expected; with
    expected, it stops once it has made every split of expected.
    """
    lab, cell, size = part.lab, part.cell, part.size
    cell_of = cell.__getitem__
    queued = set(queue)
    trace = []
    while queue and part.count < stop and (expected is None or len(trace) < len(expected)):
        w = queue.popleft()
        queued.discard(w)
        counts = {}
        for x in lab[w : w + size[w]]:
            for v in points.neighbors(x):
                counts[v] = counts.get(v, 0) + 1
        pairs = Counter(zip(map(cell_of, counts), counts.values()))
        for s in sorted({s for (s, _), k in pairs.items() if k != size[s]}):
            if expected is not None and len(trace) == len(expected):
                break
            n = size[s]
            members = lab[s : s + n]
            keys = list(map(counts.get, members, repeat(0)))
            order = sorted(range(n), key=keys.__getitem__)
            lab[s : s + n] = map(members.__getitem__, order)
            frags = tuple((c, len(list(f))) for c, f in groupby(map(keys.__getitem__, order)))
            event = (s, frags)
            if expected is not None and expected[len(trace)] != event:
                return None
            trace.append(event)
            sizes = [k for _, k in frags]
            largest = None if s in queued else sizes.index(max(sizes))
            t = s
            for j, k in enumerate(sizes):
                size[t] = k
                if t != s:
                    for v in lab[t : t + k]:
                        cell[v] = t
                if j != largest and t not in queued:
                    queue.append(t)
                    queued.add(t)
                t += k
            part.count += len(frags) - 1
    if expected is not None and len(trace) != len(expected):
        return None
    return trace


def planted_homology_connection(q, n, seed):
    """A connection set fixed by the homology x -> diag(-1, 1, ..., 1) x: a
    union of orbits of admissible lines under it, each orbit kept with
    probability 1/2 by random.Random(seed), in the order of the orbits'
    first lines.  Aut holds K and the homology, so |Aut| >= 2|K| and the
    dichotomy is in case (ii)."""
    rng = random.Random(seed)
    lines = []
    for rep in line_universe(q, n):
        image = (-rep[0] % q, *rep[1:])
        if rep <= image and rng.random() < 0.5:
            lines += {rep, image}
    return ConnectionSet(q, n, lines)


def edge_set(graph):
    return {
        frozenset((u, v))
        for u in range(graph.num_vertices)
        for v in graph.neighbor_ids(u)
    }


def brute_preserves_edges(graph, p, edges=None):
    """Whether p maps the edge set onto itself; edges, when given, is the
    graph's edge_set, built once for many calls."""
    edges = edge_set(graph) if edges is None else edges
    return {frozenset((p[u], p[v])) for u, v in map(tuple, edges)} == edges


def brute_force_automorphisms(graph):
    """Filter all vertex permutations for edge preservation (at most 9 vertices)."""
    if graph.num_vertices > 9:
        raise ValueError("domain too large for brute force")
    edges = [tuple(e) for e in edge_set(graph)]
    arcs = set(edges) | {(v, u) for u, v in edges}
    found = [
        p for p in itertools.permutations(range(graph.num_vertices))
        if all((p[u], p[v]) in arcs for u, v in edges)
    ]
    # the whole group is a strong generating set on any base
    return PermGroup(graph.num_vertices, range(graph.num_vertices), found)


def group_elements(degree, generators):
    """Every element of the group the generators span, in first-reached
    order, by closing {identity} under right multiplication by generators
    (use only on small groups)."""
    identity = tuple(range(degree))
    found = {identity}
    order = [identity]
    for p in order:
        for g in generators:
            r = tuple(p[x] for x in g)
            if r not in found:
                found.add(r)
                order.append(r)
    return order


def brute_fix_count(group_elements, labels):
    """How many elements fix every label class, by direct filtering."""
    return sum(
        1
        for p in group_elements
        if all(labels[p[x]] == labels[x] for x in range(len(labels)))
    )


def brute_row_span_size(rows, q):
    """Size of the row span, counted by closing under addition and scaling."""
    span = {tuple([0] * len(rows[0]))} if rows else {()}
    frontier = list(span)
    while frontier:
        base = frontier.pop()
        for r in rows:
            for lam in range(1, q):
                new = tuple((b + lam * a) % q for b, a in zip(base, r))
                if new not in span:
                    span.add(new)
                    frontier.append(new)
    return len(span)


def mat_mul(a, b, q):
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % q for col in cols) for row in a
    )


def rank(rows, q):
    """Rank of a matrix given as an iterable of rows (need not be square)."""
    return len(rref(rows, q)[1])


def mat_inverse(m, q):
    """Inverse of a square matrix, read off the reduced form of [m | I]."""
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    reduced, pivots = rref(aug, q)
    if any(c >= n for c in pivots):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def enumerate_gl(q, n, budget=DEFAULT_GL_BUDGET):
    """Yield every invertible n x n matrix over F_q exactly once.

    The full q**(n*n) candidate space is scanned, so a budget guards against
    accidentally huge enumerations.
    """
    total = q ** (n * n)
    if total > budget:
        raise BudgetExceeded(
            f"GL({n},{q}) enumeration scans {total} matrices, budget is {budget}"
        )
    for flat in itertools.product(range(q), repeat=n * n):
        m = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if rank(m, q) == n:
            yield m


def linear_maps_fixing_connection(connection, budget=DEFAULT_GL_BUDGET):
    """All invertible matrices mapping the connection set onto itself, in
    lexicographic order."""
    members = connection.members
    q = connection.q
    return [
        m
        for m in enumerate_gl(q, connection.n, budget)
        if all(mat_apply(m, v, q) in members for v in members)
    ]


def linear_witness(graph, group):
    """The first non-scalar invertible matrix fixing the connection set S met
    on the stabilizer chain of the graph's automorphism group, or None: the
    reference of dichotomy_check, which reads its witness off G_0.

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
    # columns: the base points' vectors, then the unit vectors e_j, of id
    # q ** j; a column is a pivot exactly when it is outside the span of
    # the columns before it
    units = [q ** j for j in range(n)]
    pivots = rref(zip(*(decode(v, q, n) for v in [*base, *units])), q)[1]
    free = [base[c] for c in pivots if c < len(base)]
    depth = base.index(free[-1]) + 1 if len(free) == n else len(base)
    # vertex ids, completed with unit vectors
    basis = free + [units[c - len(base)] for c in pivots if c >= len(base)]
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


# ---------------------------------------------------------------------------
# point-set geometry


def vec_sub(u, v, q):
    return tuple((a - b) % q for a, b in zip(u, v))


def vec_dot(u, v, q):
    return sum(a * b for a, b in zip(u, v)) % q


def kernel(m, q):
    """Basis of the right kernel {x : m x = 0}, as vectors of length ncols."""
    rows = [tuple(r) for r in m]
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows, q)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f] % q
        basis.append(tuple(v))
    return basis


def direction(u, v, q):
    """Projective class of u - v."""
    if u == v:
        raise ValueError("equal points determine no direction")
    return proj_rep(vec_sub(u, v, q), q)


def directions_determined(points, q):
    """All directions determined by pairs of distinct points of the set."""
    pts = sorted(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    return {direction(u, v, q) for u, v in itertools.combinations(pts, 2)}


def direction_count_threshold(q, n):
    """Direction count separating affine hyperplanes from everything else.

    A set of q^(n-1) points that is not an affine hyperplane determines more
    than this many directions: (q+3)/2 * q^(n-2) + q^(n-3) + ... + q.
    """
    require_odd_prime(q)
    if n < 3:
        raise ValueError("threshold is defined for dimension at least 3")
    return (q + 3) // 2 * q ** (n - 2) + sum(q ** i for i in range(1, n - 2))


def affine_hyperplane_form(points, q, n):
    """Return (normal, offset) with points = {x : normal . x = offset}, or None.

    A candidate must have exactly q^(n-1) members whose difference set has
    rank n-1; the set then fills the whole coset, so the test is exact.
    """
    pts = set(points)
    if len(pts) != q ** (n - 1):
        return None
    base = min(pts)
    diffs = [vec_sub(p, base, q) for p in sorted(pts) if p != base]
    if rank(diffs, q) != n - 1:
        return None
    normal = proj_rep(kernel(diffs, q)[0], q)
    return normal, vec_dot(normal, base, q)


def common_hyperplane_normal(classes, q, n):
    """Shared normal if every class is an affine hyperplane with the same one.

    The classes must partition F_q^n; returns None when some class is not a
    hyperplane or the normals disagree.
    """
    total = sum(len(c) for c in classes)
    seen = set()
    for c in classes:
        seen.update(c)
    if total != q ** n or len(seen) != q ** n:
        raise ValueError("classes do not partition the space")
    normals = set()
    for c in classes:
        form = affine_hyperplane_form([decode(i, q, n) for i in c], q, n)
        if form is None:
            return None
        normals.add(form[0])
    return normals.pop() if len(normals) == 1 else None


def translation_fixing_witnesses(coloring, q, n):
    """Nonzero translations fixing every class of a hyperplane-coset
    partition, by fixing_translations_by_scan.

    Empty when the classes are not the cosets of a single linear hyperplane.
    """
    if common_hyperplane_normal(coloring.classes(), q, n) is None:
        return []
    return [decode(t[0], q, n) for t in fixing_translations_by_scan(coloring.class_of, q, n)]


# ---------------------------------------------------------------------------
# fixed lines and line orbits of linear maps


def mat_sub_scalar(m, lam, q):
    """m - lam * identity, reduced mod q."""
    n = len(m)
    return tuple(
        tuple((m[i][j] - (lam if i == j else 0)) % q for j in range(n))
        for i in range(n)
    )


def gaussian_binomial_1(d, q):
    """Number of 1-dimensional subspaces of a d-dimensional space over F_q."""
    if d < 0:
        raise ValueError("dimension must be non-negative")
    return (q ** d - 1) // (q - 1)


def _require_invertible(m, q):
    if rank(m, q) != len(m):
        raise ValueError("matrix is singular")


def fixed_line_count_scan(m, universe):
    """Fixed lines of the universe, counted by direct scan."""
    q = universe.q
    _require_invertible(m, q)
    return sum(1 for rep in universe if proj_rep(mat_apply(m, rep, q), q) == rep)


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


def line_orbit_count(m, universe):
    """Orbits of the map on the line universe, counted as the cycles of the
    permutation it induces; requires that it be preserved."""
    q = universe.q
    _require_invertible(m, q)
    if not preserves_line_universe(m, q, universe.n):
        raise ValueError("map does not preserve the line universe")
    reps = list(universe)
    index = {rep: i for i, rep in enumerate(reps)}
    perm = [index[proj_rep(mat_apply(m, rep, q), q)] for rep in reps]
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
