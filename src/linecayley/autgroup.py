"""Automorphism groups of the line Cayley graphs.

The solver is an individualization-refinement backtracker.  A node is an
ordered partition whose cells are contiguous ranges of one point array
(the layout of McKay & Piperno, *Practical Graph Isomorphism II*, 2014),
a _Cells.  refine is the one refinement: it refines a partition of
whichever points it is given, vertices (_Vertices) or scalar orbits
(_ScalarOrbits), with no search around it.  _Search holds the tree: the
leftmost path, the generator pool, the node budget and the leaf, and its
_individualize is the one step from a node to a child at every level,
splitting a point off the end of its cell (_Cells.individualized) and
refining.  A cell is split by its points' neighbour counts into a
splitter cell; the fragments take the cell's range in order of count, and
the largest is not queued unless the cell was (Hopcroft's smaller-half
rule, 1971).  One stable sort puts each split cell's points in order: by
whether each is touched, where the touched points share one count and
some are untouched, and by count otherwise; a cell of two points is put in
that order by one comparison, in place.  The fragments' counts and
sizes are those of the splitter's counts grouped by cell, read off before
any cell is split.  The count of v against a splitter W is |(v + S) ∩
W|, and each kind of point reads it its own way (splitter_counts).  On
the vertices, W is read as the multiset W + S from the graph's
neighbour-id primitive, about |W|*|S| dict updates, and a one-vertex
W = {w} touches the row w + S, once each, with no multiset.
Every row v + S the search reads, for these counts and for the leaf
check, comes from its one _Vertices, which is also its neighbourhood table
and lives as long as the search: each row is built once when all the rows
fit in ROW_TABLE_ENTRIES ids, and at every read otherwise.  Its counts are
the search's counters, which AutResult.counts reports.

The search individualizes the first point of the first smallest
non-singleton cell down to a discrete partition; these points form the base.
The first is always 0, and when the scalars x -> λx are known automorphisms
(they are in K, which seeds the pool) every cell after 0 is a union of
their orbits.  That refinement then runs on the (V - 1)/(q - 1) nonzero
orbits and {0}, one point each, q - 1 times fewer points to count and split
(McKay & Piperno also prune with known automorphisms): each orbit's count is
that of any of its vertices, and every other cell's size is q - 1 times its
number of orbits, so it makes the same splits in the same order.  It works
on its live points alone, the orbits in non-singleton cells, as McKay &
Piperno refine only non-singleton cells: a singleton never splits, so a
point leaves the live set when a split leaves it alone, and a splitter's
counts are grouped by cell over its live touched points only.  A
splitter W is counted there by the cheapest of three routes, by a measured
cost model (splitter_counts): as the multiset of its orbits' rows, about
|W|*|S| dict updates; directly, by a membership test in S for each live
orbit and each vertex of W (counts_direct), live * |W| * (q - 1) tests; or
from the neighbour masks, one AND and popcount on V bits per live orbit,
whatever |W| is (counts_from_masks).  Every route gives the same counts on
the live points, so every choice still depends only on cell positions and
counts, and refinement commutes with any automorphism.  If it ends with
one cell per orbit, Aut is K (see _Search.stabilize), and the search ends
there, at its second node, with no deeper level and no leaf: case (i),
where the sampled instances of the paper's regime fall.  It returns
permgroup.scalar_affine_group, the one K of its size.  Otherwise the vertex
arrays and trace are rebuilt from it, and G_0, the group of the linear
maps M with M·S = S, is found by a backtrack over basis images
(_linear_group); AutResult.linear holds it, the dichotomy's witness is
read off it, and its generators join the pool after K's.  The next level,
the first on the vertices, stops at the orbit count of G_0's stabilizer of
its base point, known automorphisms; every deeper level, and every right
node, refines to V cells.  Each node of
the leftmost path is refined once, and its split trace (position, (count,
size) pairs) is kept.  Any other node is refined alone and compared with
the trace of the path node at its depth, and it is dropped at the first
difference.  Its refinement ends as soon as it has made every split of that
trace, as McKay & Piperno's trace comparison allows: the node then has the
path node's cells, so the search below it takes the same shape.  That is
sound, because a right node leads only to leaves, and a leaf is kept only
when the leaf check proves it an automorphism.  It finds the same
automorphisms: where an automorphism σ maps the path node onto the right
node, refinement commutes with σ, so the right node's first splits already
give σ's image of the refined path node.  Only a right node that no
automorphism reaches, which repeats the path's splits and would split
further, is searched below.  A leaf p maps the leftmost leaf onto itself.
It is kept with no comparison when x -> p(x) - p(0) is in G_0, as p is
then in T ⋊ G_0, inside Aut; any other leaf is kept when it maps v + S
onto p(v) + S at every v.  The scalar-affine group, and G_0 where it is
built, seed the generator pool, whose orbits prune sibling branches (see
_Search.stabilize); a node budget turns long searches into an explicitly
incomplete result instead of a wrong one.  The PermGroup constructor
completes the levels deepest first, growing the pool into a strong
generating set on the base, so the group is built without a closure.

Two kinds of S take a route around the search (automorphism_group), each
lifting a group on classes of ids that CayleyGraph lists (permgroup.lift).
When S has a period W, automorphism_group(G/W) is lifted to the twins, the
cosets of W (permgroup.twin_group).  When S is a cone, mapped onto itself by
the homologies of axis H = {x[n-1] = 0} and a centre u on a line of S or on
the one admissible line S lacks (CayleyGraph.centre), G is K_q x R, R a graph
one dimension down, and Aut is Sym(q) x Aut(R), written down from
automorphism_group(R) on the rows c u + H (permgroup.product_group); where S
lacks u's line alone, R is K_(q^(n-1)), and nothing is searched.
"""

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, filterfalse, islice, repeat
from operator import itemgetter

from .errors import BudgetExceeded
from .field import homology, is_scalar_matrix, transvection
from .permgroup import (
    PermGroup, depth_first, grid_generators, inverse_perm, orbit_count, product_group,
    scalar_affine_group, star_swaps, transpositions, twin_generators, twin_group,
)

NODE_BUDGET = 200000  # the most nodes a search visits, unless its caller gives a budget


@dataclass
class AutResult:
    group: PermGroup | None  # None where the node budget ran out
    nodes: int
    pool: tuple
    # each name in COUNTERS: the search's counters (see _Vertices), period,
    # |W|, and product and cone, 1 on the cone route, of G or of G/W, where R
    # is K_a and where it is not, and 0 elsewhere (see automorphism_group)
    counts: dict = field(default_factory=dict)
    # G_0, the linear maps fixing S (see _linear_group), where the search
    # went past the refinement after 0; None where that refinement proved
    # Aut = K, and on the twin and cone routes
    linear: PermGroup | None = None

    @property
    def complete(self):
        return self.group is not None

    def complete_group(self):
        """The group, or a ValueError where the node budget ran out."""
        if self.group is None:
            raise ValueError("automorphism search was incomplete; raise the node budget")
        return self.group


def _preserves_neighbors(neighbors, p):
    """Whether the permutation p maps every v + S onto p(v) + S, and how
    many v were compared, in id order up to the first that fails; p is
    one-to-one, so p(v + S) has |S| points and is p(v) + S when it holds
    every point of it."""
    image = p.__getitem__
    for v in range(len(p)):
        if not set(map(image, neighbors(v))).issuperset(neighbors(p[v])):
            return False, v + 1
    return True, len(p)


class _Cells:
    """An ordered partition of range(degree).

    Each cell is the range lab[s : s + size[s]] for its start s; cell[v] is
    the start of v's cell, and count is the number of cells.
    """

    __slots__ = ("lab", "cell", "size", "count")

    def __init__(self, lab, cell, size, count):
        self.lab = lab
        self.cell = cell
        self.size = size
        self.count = count

    @classmethod
    def unit(cls, degree):
        return cls(list(range(degree)), [0] * degree, [degree] + [0] * (degree - 1), 1)

    def individualized(self, s, v):
        """A copy with v split off the end of the cell at s, as a singleton
        cell at s + size[s] - 1."""
        lab = self.lab[:]
        size = self.size[:]
        cell = self.cell[:]
        last = s + size[s] - 1
        i = lab.index(v, s, last + 1)
        lab[i], lab[last] = lab[last], v
        size[s] -= 1
        size[last] = 1
        cell[v] = last
        return _Cells(lab, cell, size, self.count + 1)

    def target(self):
        """Start of the first smallest non-singleton cell, or None if discrete."""
        best = None
        s = 0
        lab, size = self.lab, self.size
        while s < len(lab):
            n = size[s]
            if n > 1 and (best is None or n < size[best]):
                best = s
            s += n
        return best


# On the scalar orbits, the mask route's cost, in the id route's dict
# updates (|W|*|S| of them), is V // MASK_BUILD_IDS for W's mask, then
# MASK_STEP_FIXED + V // MASK_STEP_BITS per point counted, an AND and a
# popcount on V bits: one per live orbit with the kept masks, and one per
# orbit and per streamed mask without them.  Fitted to timings of every
# route on the splitters of real searches, from (3,3) to (13,4) and (29,3),
# on a 2-core Xeon under Python 3.11: a point costs about 2 updates plus 1
# per 2,600 bits, W's mask 1 per 5-7 ids, and a direct test about 1.
MASK_STEP_FIXED = 2
MASK_STEP_BITS = 2560
MASK_BUILD_IDS = 6


def _counts_from_ids(neighbors, members):
    """{v: |(v + S) ∩ W|} over the v it is positive for, W being members,
    as the multiset W + S."""
    return Counter(chain.from_iterable(map(neighbors, members)))


# The search keeps every neighbourhood row it builds when all of them fit
# in V*|S| <= ROW_TABLE_ENTRIES ids, as at (3,3), (3,4) and (5,3): each row
# is then built once, not at every node that reads it.  Larger graphs build
# each row at every read.  Kept whole at planted (5,4), V*|S| = 165k, the
# table saved no time and raised the peak RSS from 20 to 24 MB; at planted
# (5,5), V*|S| = 4.0M, the search took 1.40-1.48 s against 1.13-1.37 s, at
# 208 MB against 24 (2-core Xeon, Python 3.11).
ROW_TABLE_ENTRIES = 1 << 15

# The scalar orbits keep the low neighbour masks N(u), u < q^(n-1), when
# their q^(n-1)*V bits fit in MASK_TABLE_BITS, 16 MiB: 6.1 MB at (5,6), 7.8
# MB at (13,4) and 2.6 MB at (29,3).  At (5,7) they would take 153 MB:
# kept there, they took aut --q 5 --n 7 from 100 to 252 MB peak RSS.
MASK_TABLE_BITS = 1 << 27


COUNTERS = (
    "leaves", "leaf_vertices", "linear_leaves", "rows", "splitters", "splitters_direct",
    "splitters_masks", "period", "product", "cone",
)


class _Vertices(dict):
    """The points a refinement splits, when each is one vertex, and the
    neighbourhood table of one search.

    Row v, read as neighbors(v), is the ids of v + S as neighbor_ids(v)
    lists them, built on its first read.  When all the rows fit in
    ROW_TABLE_ENTRIES ids, each row is kept once built, so none is built
    twice; otherwise each read builds its row again.  refine counts a
    splitter of one vertex, in single, with no multiset, and any other is
    counted by ids, with no live points.  counts holds the search's
    counters: rows, the rows built; splitters, the splitters its
    refinements pop, on these points or on _ScalarOrbits, and
    splitters_direct and splitters_masks, those the scalar orbits count
    directly and from the neighbour masks, kept or streamed, with no row
    read (see _ScalarOrbits.splitter_counts); leaves, the leaf checks made;
    leaf_vertices, the neighbourhoods they compare, none for a leaf G_0
    keeps (see _Search._leaf); and period, product and cone, at 1, 0 and 0
    until a route around the search sets them (see automorphism_group).
    """

    keeps_live = False

    def __init__(self, neighbor_ids, degree, valency):
        self.neighbor_ids = neighbor_ids
        self.neighbors = self.__getitem__
        self.keep = degree * valency <= ROW_TABLE_ENTRIES
        self.degree = degree
        self.single = range(degree)
        self.counts = {**dict.fromkeys(COUNTERS, 0), "period": 1}

    def __missing__(self, v):
        self.counts["rows"] += 1
        row = self.neighbor_ids(v)
        if self.keep:
            self[v] = row
        return row

    def splitter_counts(self, members, live):
        return _counts_from_ids(self.neighbors, members)


class _ScalarOrbits:
    """The points a refinement splits after 0 is individualized, when the
    scalars x -> λx are known automorphisms: every cell is then a union of
    their orbits, and every count is constant on each.

    Point i < D is the orbit of reps[i] (see cayley._Space.scalar_orbits),
    q - 1 vertices, and point D is {0}.  A point's count against a splitter
    is that of any vertex in it, so the refinement makes the vertex route's
    splits at positions and sizes q - 1 times smaller; lift turns its cells
    and trace into the vertex route's.  The vertices' rows are read from
    vertices, the search's _Vertices, whose counts this shares.  graph is
    the graph itself, whose translate, multiples and spanned add ids for the
    direct counts, _linear_group and the leaf check, and whose neighbour
    masks the mask route reads.  No point is single: {0}, the one splitter
    of one point, is popped once per search and counted like any other
    splitter, and refine keeps the live points for the direct and the mask
    route (see splitter_counts).
    """

    keeps_live = True
    single = ()

    def __init__(self, graph, vertices):
        self.graph = graph
        self.reps, self.orbit_of = graph.space.scalar_orbits
        self._vertex_neighbors = vertices.neighbors
        self.counts = vertices.counts
        self.zero = len(self.reps) - 1
        # 0 has one neighbour in each orbit of S, its line's, read by the line's id
        universe = graph.space.universe
        self._zero_neighbors = sorted(self.orbit_of[universe[rep][1]] for rep in graph.connection.lines)
        self.members = frozenset(vertices[0])
        degree = graph.num_vertices
        self.mask_build = degree // MASK_BUILD_IDS
        self.mask_step = MASK_STEP_FIXED + degree // MASK_STEP_BITS
        low_masks = len(graph.space.orbit_masks[2])
        self.keep_masks = low_masks * degree <= MASK_TABLE_BITS
        self.streamed = self.zero + low_masks  # the points and masks a stream steps
        self._masks = None  # the low mask each point reads, once read (see counts_from_masks)

    def neighbors(self, i):
        """The orbits of r + S, one per member of S, r being reps[i]; for
        {0}, the orbits of S, once each.  So the multiset of a splitter's
        neighbours counts each nonzero orbit as often as each of its
        vertices; {0} is a cell of its own, whose count no split reads."""
        if i == self.zero:
            return self._zero_neighbors
        return list(map(self.orbit_of.__getitem__, self._vertex_neighbors(self.reps[i])))

    def splitter_counts(self, members, live):
        """The same counts as _counts_from_ids, by the cheapest route:
        directly, in live * |W| * (q - 1) tests; by ids, in |W|*|S| dict
        updates; or from the masks (see MASK_STEP_FIXED).  With live None,
        every point is live and none goes direct."""
        cost = len(members) * self.graph.degree  # of the id route
        points = self.zero if live is None else len(live)
        masks = self.mask_build + (points if self.keep_masks else self.streamed) * self.mask_step
        if live is not None and points * len(members) * (self.graph.q - 1) < min(cost, masks):
            self.counts["splitters_direct"] += 1
            return self.counts_direct(members, live)
        if cost > masks:
            self.counts["splitters_masks"] += 1
            return self.counts_from_masks(members, live)
        return _counts_from_ids(self.neighbors, members)

    def counts_from_masks(self, members, live=None):
        """The same counts as _counts_from_ids, each point's from the low
        mask it reads (cayley._Space.orbit_masks).  With keep_masks, the
        low masks are read at the first call and kept, and the points of
        live, or all, are counted; otherwise each call streams them once and
        counts every point, in point order.  A member may be {0}, whose
        vertex 0 is in W; {0} itself is not counted."""
        graph = self.graph
        low, digit, readers = graph.space.orbit_masks
        marks = bytearray(b"0") * len(self.reps)
        for i in members:
            marks[i] = 49  # b"1"
        w = int(bytes(graph.space.orbit_bits(marks)), 2)
        # digit k of each id goes down by 1, and 0 wraps to q - 1
        shifted = [((w >> up) & keep) | ((w << down) & wrap) for keep, wrap, up, down in graph.steps]
        if self.keep_masks:
            if self._masks is None:
                masks = list(islice(graph.neighbor_masks(), len(readers)))
                self._masks = list(map(masks.__getitem__, low))
            points = range(self.zero) if live is None else list(live)
            masks = self._masks
            counts = [(masks[i] & shifted[digit[i]]).bit_count() for i in points]
            return dict(compress(zip(points, counts), counts))
        counts = [0] * self.zero
        for orbits, m in zip(readers, graph.neighbor_masks()):
            for i in orbits:
                counts[i] = (m & shifted[digit[i]]).bit_count()
        return dict(compress(enumerate(counts), counts))

    def counts_direct(self, members, live):
        """The same counts as _counts_from_ids on the points of live alone,
        each that of its representative r_j = reps[j]: #{x in W : x + r_j
        in S}, W being the vertices of the members, as W = -W and S = -S.
        The vertices c r of an orbit are the graph's multiples of r, and the
        ids of x + r_j its translate of the live reps by x."""
        reps, translate = self.reps, self.graph.translate
        live = list(live)
        live_reps = list(map(reps.__getitem__, live))
        vertices = chain.from_iterable(
            self.graph.multiples(r) if r else (0,) for r in map(reps.__getitem__, members)
        )
        contains = self.members.__contains__
        hits = (compress(live, map(contains, translate(x, live_reps))) for x in vertices)
        return Counter(chain.from_iterable(hits))

    def lift(self, part, trace):
        """The vertex route's node and trace for this refined node and its
        trace.  Each cell keeps the order the vertices have after 0 is
        individualized in the unit partition, [V - 1, 1, 2, ..., V - 2, 0],
        as every split is stable."""
        scale = self.graph.q - 1
        degree = self.graph.num_vertices
        cell = [scale * s for s in map(part.cell.__getitem__, self.orbit_of)]
        size = [0] * degree
        size[::scale] = [scale * k for k in part.size]
        size[-1] = 1
        # cell[v] is where v's cell starts, so a stable sort puts each cell in place
        lab = sorted(chain((degree - 1,), range(1, degree - 1), (0,)), key=cell.__getitem__)
        trace = [(scale * s, tuple((c, scale * k) for c, k in frags)) for s, frags in trace]
        return _Cells(lab, cell, size, part.count), trace


def refine(points, part, queue, stop, expected=None):
    """Refine part, a partition of points, in place until it is
    equitable, or has stop cells and so is the orbit partition of known
    automorphisms (see _Search.stabilize).

    While points.keeps_live, it keeps the live points (see the module
    docstring).  A one-point splitter in points.single is counted here,
    and any other by points.splitter_counts.

    Returns the trace of splits.  With expected, the trace of the path
    node a right node is compared with, it returns None as soon as a split
    departs from expected or the queue empties short of it, and returns the
    trace as soon as it has made every split of expected, with no further
    pop.  The node then has the path node's cells, though it may not be
    equitable; that is sound because a right node leads only to leaves,
    and the leaf check keeps only those it proves automorphisms (see the
    module docstring).
    """
    lab, cell, size = part.lab, part.cell, part.size
    cell_of = cell.__getitem__
    queued = set(queue)
    trace = []
    done = -1 if expected is None else len(expected)  # the trace's length at the stop
    # the live points, those in non-singleton cells; size[i] is 1 at a
    # singleton's start, and 0 inside any cell
    live = None
    if points.keeps_live:
        live = set(lab).difference(compress(lab, map((1).__eq__, size)))
    while queue and part.count < stop and len(trace) != done:
        w = queue.popleft()
        queued.discard(w)
        points.counts["splitters"] += 1
        # the start of every cell to split -> the (count, number) pairs of
        # its touched points; a cell is kept when its first pair covers it,
        # all its points touched with one count
        if size[w] == 1 and lab[w] in points.single:
            # one vertex touches its neighbours, each once
            touched = points.neighbors(lab[w])
            hit = set(touched).__contains__
            hits = Counter(map(cell_of, touched))
            split = {s: [(1, m)] for s, m in hits.items() if m != size[s]}
        else:
            counts = points.splitter_counts(lab[w : w + size[w]], live)
            if live is None:
                touched = zip(map(cell_of, counts), counts.values())
            else:
                touched = live.intersection(counts)
                touched = zip(map(cell_of, touched), map(counts.__getitem__, touched))
            hit = counts.__contains__
            split = {}
            for (s, c), m in Counter(touched).items():
                if s in split:
                    split[s].append((c, m))
                else:
                    split[s] = [(c, m)]
            split = {s: f for s, f in split.items() if f[0][1] != size[s]}
        for s in sorted(split):
            if len(trace) == done:
                break
            n = size[s]
            frags = split[s]
            one = len(frags) == 1
            if one:
                # untouched points, then touched ones, each in lab order
                frags = ((0, n - frags[0][1]), frags[0])
            else:
                # the fragments in order of count, the untouched points'
                # first, at count 0, and the points stably sorted by count
                frags.sort()
                untouched = n - sum(map(itemgetter(1), frags))
                if untouched:
                    frags.insert(0, (0, untouched))
                frags = tuple(frags)
            event = (s, frags)
            if expected is not None and expected[len(trace)] != event:
                return None
            trace.append(event)
            if n == 2:
                # two singletons, in that order by one comparison, in place,
                # and the second queued, as Hopcroft's rule does below
                a, b = lab[s], lab[s + 1]
                if (hit(a) if one else counts[a] > counts[b]):
                    a, b = b, a
                    lab[s], lab[s + 1] = a, b
                size[s] = size[s + 1] = 1
                cell[b] = s + 1
                part.count += 1
                if live is not None:
                    live.discard(a)
                    live.discard(b)
                queue.append(s + 1)
                queued.add(s + 1)
                continue
            members = lab[s : s + n]
            if one:
                members.sort(key=hit)
            else:
                keys = list(map(counts.get, members, repeat(0)))
                members = list(map(members.__getitem__, sorted(range(n), key=keys.__getitem__)))
            lab[s : s + n] = members
            part.count += len(frags) - 1
            if len(frags) == 2:
                # Hopcroft's rule for two fragments: the second is new,
                # so not queued, and is queued unless the cell was not
                # and it is the larger
                m = frags[1][1]
                t = s + n - m
                size[s], size[t] = n - m, m
                for v in members[n - m :]:
                    cell[v] = t
                if live is not None:
                    if n - m == 1:
                        live.discard(members[0])
                    if m == 1:
                        live.discard(members[-1])
                if s not in queued and m > n - m:
                    t = s
                queue.append(t)
                queued.add(t)
                continue
            sizes = [k for _, k in frags]
            largest = None if s in queued else sizes.index(max(sizes))
            t = s
            for j, k in enumerate(sizes):
                size[t] = k
                if t != s:
                    for v in lab[t : t + k]:
                        cell[v] = t
                if k == 1 and live is not None:
                    live.discard(lab[t])
                if j != largest and t not in queued:
                    queue.append(t)
                    queued.add(t)
                t += k
    if expected is not None and len(trace) != len(expected):
        return None
    return trace


def _linear_group(scalars, node):
    """G_0, the group of the linear maps M with M·S = S, as vertex
    permutations, node being the lifted node after 0.

    Such an M is an automorphism fixing 0, so it keeps each cell of node, a
    union of scalar orbits.  The basis is points of the smallest cells
    outside the span so far, cells of one size in order, so its first point
    b1 is the first point of node's target cell.  Each b_j goes to a point
    x of its own cell, and y + b_j, for each y in the span of the earlier
    ones, to M y + x, which must lie in y + b_j's cell; that covers the
    span of b_1..b_j, as M(y + c b_j) = c M(y / c + b_j), and makes M
    one-to-one, {0} being a cell.  The span and the images are listed by
    the graph's spanned.  A leaf is kept when it maps S into S, all a
    linear map needs; S being a union of cells, every leaf passes, and the
    check only guards the cells given.  The PermGroup constructor completes
    one level per b_j, deepest first, so the generators fixing b1 span
    G_0's stabilizer of b1.
    """
    translate, spanned = scalars.graph.translate, scalars.graph.spanned
    lab, cell, size = node.lab, node.cell, node.size

    # the span, built once, in the order of the images: those of the span
    # of basis[:j] are its first q^j
    span = [0]
    basis = []
    want = []  # want[j], the cells of y + basis[j], y in the span of basis[:j]
    inside = {0}
    by_size = sorted(compress(range(len(lab)), size), key=size.__getitem__)
    for x in chain.from_iterable(lab[s : s + size[s]] for s in by_size):
        if len(basis) == scalars.graph.n:
            break
        if x not in inside:
            known, span = len(span), spanned(span, x)
            want.append(list(map(cell.__getitem__, span[known : 2 * known])))
            basis.append(x)
            inside.update(span)
    order = inverse_perm(span)
    cells = [lab[cell[b] : cell[b] + size[cell[b]]] for b in basis]

    def extend(images, j, x):
        """The images of the span of basis[: j + 1] when M maps basis[j] to
        x, or None when a point leaves its cell."""
        if list(map(cell.__getitem__, translate(x, images))) != want[j]:
            return None
        return spanned(images, x)

    def children(j, images):
        return filter(None, map(partial(extend, images, j + 1), cells[j + 1]))

    def leaf(images):
        scalars.counts["linear_leaves"] += 1
        p = tuple(map(images.__getitem__, order))
        return p if scalars.members.issuperset(map(p.__getitem__, scalars.members)) else None

    def find(k, x):
        root = extend(span[: len(want[k])], k, x)
        return None if root is None else depth_first(root, k, len(basis) - 1, children, leaf)

    return PermGroup(len(lab), basis, [], cells.__getitem__, find)


class _Search:
    def __init__(self, vertices, pool, budget, scalars=None):
        self.vertices = vertices
        # the scalar orbits, when the pool holds the scalars and vertex ids
        # are vectors' ids, else None
        self.scalars = scalars
        self.pool = pool
        self.budget = budget
        self.nodes = 0
        self.base = None  # the points individualized on the leftmost path to its leaf
        self.linear = None  # G_0, when the refinement after 0 stops short of the scalar orbits

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"automorphism search exceeded {self.budget} nodes")

    def _individualize(self, points, part, s, v, stop, expected=None):
        """(child, trace) for v individualized in the cell at s of part, a
        partition of points (the scalar orbits for 0, else the vertices),
        and refined, or None when the trace departs from expected."""
        self._tick()
        child = part.individualized(s, v)
        trace = refine(points, child, deque([s + part.size[s] - 1]), stop, expected)
        return None if trace is None else (child, trace)

    def _leaf(self, lab):
        """The map p taking the leftmost leaf onto the discrete partition
        lab, if it is an automorphism.  G_0, where built, holds every linear
        M with M·S = S, so when x -> p(x) - p(0) is in it, p is that M
        followed by the translation by p(0), both automorphisms, and p is
        kept with no neighbourhood compared.  Any other leaf, and every
        leaf of a search without G_0, is compared at every vertex."""
        p = tuple(map(lab.__getitem__, self._leaf_pos))
        counts = self.vertices.counts
        counts["leaves"] += 1
        if self.linear is not None:
            # x -> p(x) - p(0), -p(0) being (q - 1) p(0)
            graph = self.scalars.graph
            if self.linear.contains(graph.translate(graph.multiples(p[0])[-1], p)):
                return p
        kept, compared = _preserves_neighbors(self.vertices.neighbors, p)
        counts["leaf_vertices"] += compared
        return p if kept else None

    def _find_iso(self, path, level, w):
        """An automorphism fixing base[:level] and mapping base[level] to w,
        or None.  The leftmost path is followed from level on: each right
        node is refined to V cells against the trace of the path node at
        its depth, and only until it has made that trace's splits."""

        def children(depth, node):
            _, s, trace = path[depth]
            for v in (w,) if depth == level else node.lab[s : s + node.size[s]]:
                found = self._individualize(self.vertices, node, s, v, self.vertices.degree, trace)
                if found is not None:
                    yield found[0]

        return depth_first(path[level][0], level, len(path), children, lambda p: self._leaf(p.lab))

    def stabilize(self):
        """Find the base, then return the group whose constructor grows the
        pool into a strong generating set on it.

        The unit partition is equitable, because a Cayley graph is regular,
        so it is the root without refinement.  Refinement never splits an
        orbit of the pool elements fixing the individualized points, and
        that orbit partition is equitable, so a node's refinement may stop
        once it has as many cells as they have orbits: every splitter left
        would split nothing, so its cells, lab order and trace are those of
        a refinement that empties its queue.  The first base point is 0,
        the first point of the unit partition.  With the scalar orbits
        given, the pool is K's generators, of which only the scaling fixes
        0, so the refinement after 0 runs on those orbits and stops at
        1 + (V - 1)/(q - 1) cells.  No element of K but the identity fixes
        two points, so when it stops short of that, the next level, with
        base point b1, stops at the orbit count of another known group,
        automorphisms that fix 0 and b1: G_0's stabilizer of b1, spanned by
        the generators of G_0 (_linear_group, built once here) that fix b1,
        its first base point.  At every deeper level, and at every level
        without the scalar orbits, it stops at V cells.  G_0's generators
        join the pool after K's, those it holds skipped.  The PermGroup
        constructor then completes the levels deepest first: one
        automorphism for each point of a level's target cell outside the
        orbit of its base point, if there is one, joins the pool.  So a
        point that a linear automorphism reaches costs no right node and
        no leaf check (McKay & Piperno's pruning by known automorphisms).
        That completion is all the seeded pool prunes: the leftmost path
        reads no generator, so the base, every trace, the group and the
        witness are those of an unseeded pool, and only the generators
        found, the nodes and the leaf counters move.

        When the refinement after 0 reaches its stop, Aut = K, and the
        search returns scalar_affine_group, with no further level.
        This is the classical fact that every dilatation of AG(n, q) is
        x -> λx + b (Artin, *Geometric Algebra*, ch. II).  Let σ in Aut fix 0.
        Refinement commutes with σ, which fixes the unit partition with 0
        individualized, so σ fixes each of its refined cells, and these are
        the scalar orbits: σ(x) = λ_x x for every x ≠ 0, λ_x in F_q^*.  The
        translations are automorphisms, so x -> σ(u + x) - σ(u) also fixes 0
        and is in Aut: σ(u + x) - σ(u) lies in F_q^* x for all u, x.  Take
        x, y independent (a ConnectionSet has n ≥ 2).  Then
        λ_(x+y)(x + y) - λ_x x lies in F_q^* y, so λ_(x+y) = λ_x, and
        likewise λ_(x+y) = λ_y.  Two dependent nonzero points are both
        independent of some third, so λ_x is one λ for every x: σ is a
        scalar.  So the stabilizer of 0 is F_q^*, and Aut = K.  K's
        base (0, q^(n-1)) need not be the one the search would find, but no
        output reads it: K's generators are strong on (0, v) for every
        v ≠ 0, and the elements fixing 0, the powers of the scaling, meet
        v's orbit in the same order for every v, so a class-fixing subgroup
        gets the same generators on each such base.
        """
        self._tick()
        degree = self.vertices.degree
        path = []  # per level: (node, target cell start, trace of its child)
        base = []
        if self.scalars is None:
            node = _Cells.unit(degree)
            stop = degree
        else:
            # 0, the unit partition's first point, individualized on the
            # scalar orbits, of which it is the last
            stop = len(self.scalars.reps)
            part, trace = self._individualize(self.scalars, _Cells.unit(stop), 0, stop - 1, stop)
            if part.count == stop:
                # the cells are the scalar orbits, so Aut = K
                return scalar_affine_group(self.scalars.graph.q, self.scalars.graph.n)
            node, trace = self.scalars.lift(part, trace)
            path.append((_Cells.unit(degree), 0, trace))
            base.append(0)
            self.linear = _linear_group(self.scalars, node)
            # G_0's generators follow K's in the pool, those it holds skipped
            self.pool += [g for g in self.linear.generators if g not in self.pool]
            # the level after 0 stops at the orbits of G_0's stabilizer of
            # its base point, b1, the first base point of G_0
            b1 = self.linear.base()[0]
            stop = orbit_count([g for g in self.linear.generators if g[b1] == b1], degree)
        while (s := node.target()) is not None:
            base.append(node.lab[s])
            child, trace = self._individualize(self.vertices, node, s, base[-1], stop)
            path.append((node, s, trace))
            node = child
            stop = degree
        self.base = tuple(base)
        self._leaf_pos = inverse_perm(node.lab)

        def candidates(level):
            part, s, _ = path[level]
            return part.lab[s + 1 : s + part.size[s]]

        return PermGroup(degree, self.base, self.pool, candidates, partial(self._find_iso, path))


def automorphism_group(graph, node_budget=NODE_BUDGET):
    """Full automorphism group, or the subgroup found when the budget runs out.

    The scalar-affine group's generators seed the pool, so it is always
    contained in the result; where the search goes past the refinement
    after 0, G_0's generators (AutResult.linear) follow them, so an
    incomplete search's pool holds both before whatever was found.  When S
    has a period W, G is G/W with |W| twins per point, and G/W is solved by
    automorphism_group, or is K_q, of group Sym(q) (see CayleyGraph.quotient
    and permgroup.twin_group); nodes and counts are G/W's, so product or
    cone can be 1, and counts["period"] is |W|.

    Where S is a cone of centre u (CayleyGraph.centre and .cone), G is K_q
    x R, and Aut is Sym(q) x Aut(R), written down on the grid of the rows
    c u + H, H = {x[n-1] = 0}, and the columns h + <u>, h in H
    (permgroup.product_group), with K's generators first.  Where S lacks
    u's line alone, R is K_a, a = q^(n-1), Aut(R) is Sym(a), and there is
    no search: 0 nodes and counts["product"] 1.  Where u is in S, Aut(R)
    is automorphism_group(R), by whatever route fits R, and nodes and
    counts are R's, with counts["cone"] 1.  If R's search runs out of
    budget, the pool is R's lifted, between K's generators and the row
    swaps.  Each x is h + c u in one way, and x ~ h' + c' u exactly when c
    != c' and h - h' is in D', the affine points of S's representatives
    less u's (see CayleyGraph.cone).

    Proof, u not in S.  D' is H ∖ 0, so the nonzero points outside S are
    (H ∖ 0) ∪ (<u> ∖ 0), and two points are non-adjacent exactly when they
    share c (a row) or h (a column): G's complement is K_a □ K_q, the line
    graph of K_(a,q).  A clique of it lies in one row or one column, so its
    maximal cliques are the q rows, of a points, and the a columns, of q
    points.  An automorphism maps them onto maximal cliques of the same
    size, and a > q, so it permutes the rows and the columns, and as each
    point is the meet of its row and its column, the two permutations
    determine it; every pair of them is one.  So Aut(G) = Sym(a) x Sym(q)
    (Whitney, 1932; Imrich & Klavžar, *Product Graphs*, 2000).  At n = 2,
    a = q and rows and columns may be swapped: Aut is Sym(q) wr Sym(2), and
    the search runs.

    Proof, u in S.  D' holds 0, and the columns, which partition V, are
    q-cliques, as u is in S.  (1) The rows are the only independent sets of
    a points.  Such a set meets each column once, and where columns h and
    h' are adjacent in R it picks them in one row; R is connected, as S
    spans F_q^n.  (2) Two points in different rows lie in one column
    exactly when their neighbourhoods agree on a third row, which exists as
    q >= 3: in row c'', (c, h) has the neighbours h + D', and h + D' = h' +
    D' puts h - h' in the period of D', that of S, which is 0, as q does not
    divide S's line count.  (3) So an automorphism permutes the rows and,
    by (2), the columns, and is the pair of the two: a permutation of the
    rows, and one of the columns, which keeps adjacency exactly when it is
    in Aut(R), loops aside.  Every such pair is an automorphism, so Aut(G)
    = Sym(q) x Aut(R).  The direct product is the general setting
    (Hammack, Imrich & Klavžar, *Handbook of Product Graphs*, 2nd ed.,
    2011).  The cones with u not in S and R != K_a are searched: at the 54
    four-line cones of (3,3), G = K_3 x K_3 x K_3, and |Aut| is 1,296, not
    3! |Aut(R)| = 432, as Aut also swaps factors.  The period and the cone
    never meet: a period needs q to divide the line count, a centre not.
    """
    if (cone := graph.cone()) is not None:
        factor, rows = cone
        known = scalar_affine_group(graph.q, graph.n).generators
        if factor is None:
            a = len(rows[0])
            group = product_group(rows, known, star_swaps(a), range(a - 1))
            counts = {**dict.fromkeys(COUNTERS, 0), "period": 1, "product": 1}
            return AutResult(group, 0, tuple(group.generators), counts)
        inner = automorphism_group(factor, node_budget)
        group = inner.group and product_group(rows, known, inner.group.generators, inner.group.base())
        pool = group.generators if group else grid_generators(rows, known, inner.pool)
        counts = {**inner.counts, "period": 1, "product": 0, "cone": 1}
        return AutResult(group, inner.nodes, tuple(pool), counts)
    if len(graph.period) == 1:
        return _search_group(graph, node_budget)
    quotient, cosets = graph.quotient()
    if quotient is None:
        # G/W is K_q: Sym(q), strong on range(q - 1) by its transpositions i, i + 1
        swaps = transpositions(graph.q, [(i, i + 1) for i in range(graph.q - 1)])
        group = twin_group(swaps, range(graph.q - 1), cosets)
        counts = {**dict.fromkeys(COUNTERS, 0), "period": len(graph.period)}
        return AutResult(group, 0, tuple(group.generators), counts)
    inner = automorphism_group(quotient, node_budget)
    group = inner.group and twin_group(inner.group.generators, inner.group.base(), cosets)
    pool = group.generators if group else twin_generators(inner.pool, cosets)
    counts = {**inner.counts, "period": len(graph.period)}
    return AutResult(group, inner.nodes, tuple(pool), counts)


def _search_group(graph, node_budget):
    """automorphism_group by the search, on any graph."""
    vertices = _Vertices(graph.neighbor_ids, graph.num_vertices, graph.degree)
    scalars = _ScalarOrbits(graph, vertices)
    search = _Search(
        vertices, list(scalar_affine_group(graph.q, graph.n).generators), node_budget, scalars
    )
    try:
        group = search.stabilize()
    except BudgetExceeded:
        # report what was found; the span of a truncated pool has no
        # trustworthy order, so no group is materialized
        group = None
    return AutResult(group, search.nodes, tuple(search.pool), vertices.counts, search.linear)


def is_automorphism(graph, p):
    """Whether p is a permutation of the vertex ids that preserves adjacency,
    by the definition alone, v + S onto p(v) + S at every v: it reads no
    group the search built, so it checks the search's results on its own."""
    permutation = sorted(p) == list(range(graph.num_vertices))
    return permutation and _preserves_neighbors(graph.neighbor_ids, p)[0]


def group_equals_scalar_affine(group, q, n):
    """Whether group, a complete result of automorphism_group, is K.  The
    search's pool starts with K's generators and every group it returns
    keeps them among its own (case (i) returns K itself), and so does the
    cone route's group.  The twin group of a graph with a period does
    not list K's generators, but contains K, as every Aut(G) does.  So the
    group contains K and is K exactly when it has K's order, q^n (q - 1)."""
    return group.order() == q ** n * (q - 1)


def dichotomy_check(graph, aut):
    """The dichotomy verdict of a complete search, as equals_K, dichotomy
    and witness: case "i" when Aut is K; case "ii" when a non-scalar linear
    map fixes the connection set, the witness being its matrix as rows,
    looked for only when Aut is not K.  "violated" would mean neither
    holds, which indicates a solver bug rather than a counterexample.

    Where the search ran past the refinement after 0, every linear map
    fixing S is in G_0, aut.linear, so some such map is not scalar exactly
    when a generator of G_0 is not: the witness is the first such
    generator's matrix (CayleyGraph.matrix).  Where S has a period, it is a
    transvection.  On the cone route, it is the homology x -> x - 2 x[n-1] u
    of S's centre u (see CayleyGraph.centre), which maps S onto S, fixes H =
    {x[n-1] = 0} pointwise and negates u.
    """
    equals_k = group_equals_scalar_affine(aut.complete_group(), graph.q, graph.n)
    if equals_k:
        witness = None
    elif aut.linear is not None:
        witness = next(filterfalse(is_scalar_matrix, map(graph.matrix, aut.linear.generators)), None)
    elif len(graph.period) > 1:
        # s -> s + s[n-1] w, in S + W = S, for the first w != 0 of the period
        witness = transvection(graph.vector(graph.period[1]))
    else:
        witness = homology(graph.vector(graph.centre), graph.q)
    return {
        "equals_K": equals_k,
        "dichotomy": "i" if equals_k else "ii" if witness is not None else "violated",
        "witness": None if witness is None else [list(row) for row in witness],
    }
