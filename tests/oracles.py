"""Independent brute-force oracles used to cross-check the library.

Everything here is implemented from first principles with different
algorithms than the package: flat enumeration instead of canonical
representatives, plain DFS instead of the clique-plus-layers certificate,
per-vertex decode and encode instead of digit tables, edge-set comparison
instead of adjacency masks, closure under products instead of a stabilizer
chain, a scan of every matrix instead of a walk over the automorphism group,
a lockstep refinement over adjacency bitmasks instead of the one-sided
refinement over neighbour ids, one shift table per member of S instead of
translates of N(0), an edge scan instead of streamed class masks, every
nonzero translation instead of those into the class of 0.
"""

import itertools
from collections import deque

from linecayley.errors import BudgetExceeded
from linecayley.field import affine_ids, decode, encode, mat_apply, rank, vec_add, vec_dot, vec_scale, vec_sub
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


def first_fixing_translation_by_scan(labels, q, n):
    """The first table fixing_translations_by_scan yields, or None."""
    return next(fixing_translations_by_scan(labels, q, n), None)


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


def edge_set(graph):
    return {
        frozenset((u, v))
        for u in range(graph.num_vertices)
        for v in graph.neighbor_ids(u)
    }


def brute_preserves_edges(graph, p):
    edges = edge_set(graph)
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
