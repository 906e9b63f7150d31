"""Connection sets sampled from unions of lines, and their Cayley graphs."""

import random
from functools import cached_property, lru_cache, reduce
from itertools import chain, compress
from operator import itemgetter, mul

from .errors import InvariantViolation
from .field import (
    affine_ids, decode, encode, inv_mod, primitive_root, require_space, rref, vec_scale,
)
from .geometry import all_projective_points, line_points, line_universe, proj_rep


class ConnectionSet:
    """The symmetric set S = union of chosen punctured lines, as a set of vectors."""

    def __init__(self, q, n, lines):
        require_space(q, n)
        self.q = q
        self.n = n
        seen = {}  # a dict keeps the order met, so sampled lines sort in one pass
        space = _space(q, n)
        universe = space.universe
        for line in lines:
            # a line of the universe, as every sampled one is, is its own
            # representative, and the universe's tuple is kept
            known = universe.get(tuple(line))
            if known is not None:
                line = rep = known[0]
            else:
                line = tuple([int(a) % q for a in line])
                if len(line) != n:
                    raise ValueError(f"line {line} has wrong dimension")
                rep = proj_rep(line, q)
                if rep[-1] == 0:
                    raise ValueError(
                        f"line {line} lies inside the hyperplane x[{n - 1}] = 0"
                    )
            if rep in seen:
                raise ValueError(f"duplicate line {line}")
            seen[rep] = None
        self.lines = tuple(sorted(seen))
        self.members = frozenset().union(*[space[rep][: q - 1] for rep in self.lines])
        self._validate()

    def _validate(self):
        """|S| is q - 1 per line, no member lies in the hyperplane
        x[n-1] = 0 (so 0 is not one), and each chosen line's points are
        members.  Distinct lines meet only in 0, so S is then the union of
        the lines' points: its lines are disjoint, and S is closed under
        scalars, as each line was checked to be when it entered its size's
        _Space."""
        q, members = self.q, self.members
        if len(members) != (q - 1) * len(self.lines):
            raise InvariantViolation("chosen lines overlap")
        if 0 in map(itemgetter(-1), members):
            raise InvariantViolation("connection set meets the excluded hyperplane")
        space = _space(q, self.n)
        if not all(members.issuperset(space[rep][: q - 1]) for rep in self.lines):
            raise InvariantViolation("connection set not closed under scalars")

    def to_json_dict(self):
        return {
            "q": self.q,
            "n": self.n,
            "lines": [list(rep) for rep in self.lines],
        }

    @classmethod
    def from_json_dict(cls, d):
        try:
            q, n, lines = d["q"], d["n"], [tuple(line) for line in d["lines"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"a connection set needs integer q and n and a list of lines ({exc!r})") from None
        for value in (q, n, *(a for line in lines for a in line)):
            if type(value) is not int:
                raise ValueError(f"connection set value {value!r} is not an integer")
        return cls(q, n, lines)


def sample_connection_set(q, n, p=0.5, seed=None):
    """Include each admissible line independently with probability p.

    All randomness comes from the seed; decisions are made in the
    canonical enumeration order of the line universe, so a given seed
    reproduces the same set on any platform.
    """
    require_space(q, n)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} out of range [0, 1]")
    if seed is None:
        raise ValueError("seed is required for sampling")
    rng = random.Random(seed)
    return ConnectionSet(q, n, [rep for rep in _space(q, n).universe if rng.random() < p])


class CayleyGraph:
    """Graph on F_q^n with u ~ v iff u - v lies in the connection set."""

    def __init__(self, connection):
        self.connection = connection
        self.q = connection.q
        self.n = connection.n
        self.num_vertices = self.q ** self.n
        self.degree = len(connection.members)
        space = self.space = _space(self.q, self.n)
        self._split, (self._lo, self._hi, self.steps) = space.split, space.tables
        self._digits = [d for rep in connection.lines for d in space[rep][self.q - 1 :]]
        # N(0) as a bitmask, what neighbor_masks starts from, since the scalar
        # orbits' mask route, is_proper and adjacency_masks open the stream
        bits = bytearray((self.num_vertices + 7) // 8)
        for u in self.neighbor_ids(0):
            bits[u >> 3] |= 1 << (u & 7)
        self._mask0 = int.from_bytes(bits, "little")

    @property
    def num_edges(self):
        return self.num_vertices * self.degree // 2

    def neighbor_ids(self, v):
        """Ids of v + s for the members s of S, in line order: the lines of
        S sorted, and each line's points in the order of line_points."""
        lo = self._lo[v % self._split]
        hi = self._hi[v // self._split]
        return [lo[a] + hi[b] for a, b in self._digits]

    def translate(self, x, ids):
        """The ids of x + z for z in ids, in order, by the split-digit
        addition tables (see _Space.tables)."""
        m = self._split
        lo, hi = self._lo[x % m], self._hi[x // m]
        return [lo[z % m] + hi[z // m] for z in ids]

    def multiples(self, x):
        """The ids of c x for c = 1..q-1, in order of c: each is the one
        before plus x."""
        m = self._split
        lo, hi = self._lo[x % m], self._hi[x // m]
        out = [x]
        for _ in range(self.q - 2):
            y = out[-1]
            out.append(lo[y % m] + hi[y // m])
        return out

    def spanned(self, ids, x):
        """ids, then the ids of z + c x for c = 1..q-1 and z in ids: the span
        of a subspace listed as ids and a point x outside it, once each."""
        out = list(ids)
        for y in self.multiples(x):
            out += self.translate(y, ids)
        return out

    def vector(self, x):
        """The vector of id x."""
        return decode(x, self.q, self.n)

    def matrix(self, g):
        """The rows of the matrix of g, a linear map as a permutation of ids."""
        return tuple(zip(*[self.vector(g[self.q ** j]) for j in range(self.n)]))

    @cached_property
    def period(self):
        """The ids of the period W = {t : t + S = S} of a nonempty S, in id
        order, 0 first: (0,) when W = 0, and for the empty S, whose graph
        has no edges.

        u and v are twins, N(u) = N(v), exactly when u - v lies in W, a
        subspace that misses S.  S is then a union of cosets of W, so |W|,
        a power of q, divides |S| = (q - 1) L, and W = 0 unless q divides
        the line count L.  W lies in H = {x[n-1] = 0}: for t in W off H and
        s in S, the points s + kt, all in S, would meet H.  So t in W maps
        the representatives R of the lines, the points of S with x[n-1] = 1,
        onto themselves, and conversely R + t = R gives S + t = S, S being
        the multiples of R.  So W is {t : R + t = R}, and its candidates are
        r - r_0 over r in R, for one r_0; each r of R in turn drops those t
        with r + t not in R, until none is left or every r is tried.
        """
        q, lines = self.q, self.connection.lines
        if not lines or len(lines) % q:
            return (0,)
        universe = self.space.universe
        r0, *reps = ids = [universe[rep][1] for rep in lines]
        # the ids of r - r_0
        shifts = self.translate(self.multiples(r0)[-1], reps)
        contains = frozenset(ids).__contains__
        for r in reps:
            if not shifts:
                break
            shifts = list(compress(shifts, map(contains, self.translate(r, shifts))))
        return (0, *sorted(shifts))

    @cached_property
    def centre(self):
        """The id of u, u[n-1] = 1, when n >= 3 and the homologies x -> x +
        (μ - 1) x[n-1] u, of axis H = {x[n-1] = 0} and centre u, map S
        onto S, where u is on a line of S or S lacks u's line alone; None
        otherwise, and wherever q divides the line count L.

        Such a homology maps a representative r of S to r + (μ - 1) u, so
        on the affine points D = {r[:n-1]} it is the dilation d -> e +
        (d - e) / μ about e = u[:n-1], and S is fixed exactly when D - e is
        closed under F_q^*.  D - e less 0 is then a union of punctured lines
        through 0, each summing to 0, so L = 1 mod (q - 1) when u is in S, L
        = 0 when not (the only such L looked for is q^(n-1) - 1), and the
        representatives sum to L u.  So u is that sum over L, and the one
        test is whether each r + (g - 1) u is in S, g the primitive root:
        the homology of g generates the others, and maps S into S, so onto
        it.  Most sets that pass the count fail at their first r.
        """
        q, n, lines = self.q, self.n, self.connection.lines
        count = len(lines)
        if n < 3 or not count % q or count % (q - 1) != 1 and count != q ** (n - 1) - 1:
            return None
        scale = inv_mod(count, q)
        u = [sum(column) * scale % q for column in zip(*lines)]
        c, members = self.space.root - 1, self.connection.members
        if all(tuple([(a + c * b) % q for a, b in zip(r, u)]) in members for r in lines):
            return encode(u, q)
        return None

    def cone(self):
        """(R, rows), G being K_q x R, for a graph with a centre u (see
        centre) whose S spans F_q^n; None otherwise.  Each x is h + c u in
        one way, h in H, and x ~ h' + c' u exactly when c != c' and h - h'
        is in D' = D - e (see centre), so R is Cay(H, D' ∖ 0), with a loop
        at every vertex when u is in S, and D' then holds 0 (see
        autgroup.automorphism_group).  S has no period, as q does not
        divide its line count (see period).  rows[c][k] is the id of c u +
        h, h the point of H at R's vertex k: the ids of H, spanned from 0 by
        a basis of H in R's vertex order, then spanned by u.

        Where S lacks u's line alone, D' is H ∖ 0, R is K_a, a = q^(n-1),
        given as None, and H's ids are range(a), e_0..e_(n-2) spanned in turn.
        Otherwise R is built one dimension down as a line Cayley graph on
        F_q^(n-1), in coordinates where a hyperplane ker f of H that meets
        no line of D' becomes x[n-2] = 0: f is the first of
        all_projective_points with f(d) != 0 at every d of D' ∖ 0, f =
        x[n-2] first of all, and the coordinates are x less its coordinate
        p, then f(x), p being f's last nonzero coordinate, where f[p] = 1.
        Where no f exists, as at (3,4) with two lines missing, this is None.
        """
        q, n, u = self.q, self.n, self.centre
        a, lines = q ** (n - 1), self.connection.lines
        if u is None:
            return None

        def grid(factor, column):
            span = self.spanned(column, u)
            return factor, [span[k : k + a] for k in range(0, q * a, a)]

        if len(lines) == a - 1:
            return grid(None, range(a))
        e = self.vector(u)[:-1]
        # the points of D' ∖ 0, r[:n-1] - e, zip stopping there
        spokes = [[x - y for x, y in zip(r, e)] for r in lines if r[:-1] != e]
        f = next((f for f in all_projective_points(q, n - 1)
                  if all(sum(map(mul, f, d)) % q for d in spokes)), None)
        if f is None:
            return None
        p = max(compress(range(n - 1), f))

        def end(d):
            # the coordinates of d's multiple with f = 1, R's line of d
            scale = inv_mod(sum(map(mul, f, d)), q)
            return (*(x * scale % q for x in d[:p]), *(x * scale % q for x in d[p + 1 :]), 1)

        def point(y):
            # the h of H with coordinates y, as an n-vector
            x = [*y[:p], 0, *y[p : n - 2], 0]
            x[p] = (y[-1] - sum(map(mul, f, x))) % q
            return x

        ends = set(map(end, spokes))
        if len(rref(ends, q)[0]) < n - 1:
            return None
        # H's basis: the points at R's unit vectors, whose ids q^j span R's in order
        basis = [encode(point([int(i == j) for i in range(n - 1)]), q) for j in range(n - 1)]
        return grid(CayleyGraph(ConnectionSet(q, n - 1, ends)), reduce(self.spanned, basis, [0]))

    def quotient(self):
        """(G/W, cosets) for the period W of S, in coordinates that keep
        x[n-1].

        W's reduced echelon basis has its pivots outside column n - 1, as W
        lies in H.  x -> x reduced by that basis, read at the other d =
        n - dim W columns, is a linear map onto F_q^d with kernel W that
        keeps x[n-1]; it maps each line of S to one of last coordinate 1 in
        F_q^d, and |W| lines to each, so its images, once each, are the
        admissible lines of S/W.  G/W is their Cayley graph, or None when
        d = 1, where S/W is F_q^* and G/W is the complete graph K_q.
        cosets[c] is the coset over point c of G/W, as the ids of x_c + w
        for w in W in id order, x_c being c's coordinates at the d columns
        and 0 at the pivots: u ~ v in G exactly when their cosets are
        adjacent in G/W.
        """
        q, n, period = self.q, self.n, self.period
        basis, pivots = rref(list(map(self.vector, period)), q)
        columns = [j for j in range(n) if j not in pivots]

        def image(x):
            for row, p in zip(basis, pivots):
                x = [(a - x[p] * b) % q for a, b in zip(x, row)]
            return tuple(map(x.__getitem__, columns))

        lines = sorted({image(rep) for rep in self.connection.lines})
        graph = CayleyGraph(ConnectionSet(q, len(columns), lines)) if len(columns) > 1 else None
        # x_c for each c in id order, spanned one column's unit id at a time
        starts = reduce(self.spanned, [q ** j for j in columns], [0])
        return graph, [self.translate(x, period) for x in starts]

    def neighbor_masks(self):
        """Yield the bitmask of N(v) = v + S for v = 0, 1, ..., V-1.

        Each mask is the one before translated by a unit vector e_i: bits
        whose digit i is below q-1 move up by q^i, the others wrap down by
        (q-1)*q^i. They come in runs of q along e_0, between the ticks of
        an odometer over digits 1..n-1, which keeps n-1 masks alive; a step
        is a few big-int operations on V-bit ints, so all V masks cost
        O(V^2) bit operations whatever |S| is.
        """
        q, n, steps = self.q, self.n, self.steps
        keep, wrap, up, down = steps[0]
        # masks[i] is N of the run's first vertex with its digits below i cleared
        m = self._mask0
        masks, digits = [m] * n, [0] * n
        while True:
            yield m
            for _ in range(q - 1):
                m = ((m & keep) << up) | ((m & wrap) >> down)
                yield m
            i = 1
            while digits[i] == q - 1:
                digits[i] = 0
                i += 1
                if i == n:
                    return
            digits[i] += 1
            k, w, u, d = steps[i]
            m = ((masks[i] & k) << u) | ((masks[i] & w) >> d)
            masks[1 : i + 1] = [m] * i

    def adjacency_masks(self):
        """Per-vertex neighbor bitmasks, as a list."""
        return list(self.neighbor_masks())

    def write_dimacs(self, fh):
        """DIMACS edge format, vertices 1-indexed, written one translation
        (V lines) at a time, so the whole text (21 MB at (5,5)) is never
        held."""
        q = self.q
        fh.write(f"p edge {self.num_vertices} {self.num_edges}\n")
        written = 0
        # one vector per {s, -s} pair, so that no edge is written twice
        for s in sorted(self.connection.members):
            if encode(s, q) > encode(tuple(-a % q for a in s), q):
                continue
            table = affine_ids(q, self.n, 1, s)
            fh.write("".join(f"e {u} {v + 1}\n" for u, v in enumerate(table, 1)))
            written += len(table)
        if written != self.num_edges:
            raise InvariantViolation("edge count mismatch in export")


class _Space(dict):
    """What the sets and graphs of one size (q, n) take from (q, n) alone,
    one instance per size, shared by all of them (see _space).

    As a dict, rep -> the q-1 points of line_points(rep, q), then the split
    digits (x % m, x // m) of their ids x, m = split = q^low, low being the
    number of base-q digits in the low split digit.  Filled as lines are
    met, so one instance at a large size pays for its own lines alone: one
    flat tuple each, its digits shared int objects.  A line's points are
    checked closed under scalars once, as it enters.  universe is {line:
    (line, id)} over the admissible lines, in the order
    sample_connection_set draws them: each one's representative, and the
    vertex id of that representative.  Every other table is built on its
    first read, so sampling alone builds none of them; all are tuples.
    """

    def __init__(self, q, n):
        self.q, self.n, self.low = q, n, (n + 1) // 2
        self.split = q ** self.low
        self.digit = tuple(range(self.split))
        self.root = primitive_root(q)
        lines = line_universe(q, n).lines
        # their ids in that order, where coordinate 0 varies slowest
        ids = [q ** (n - 1)]
        for j in range(n - 1):
            ids = [x + d * q ** j for x in ids for d in range(q)]
        self.universe = dict(zip(lines, zip(lines, ids)))

    def __missing__(self, rep):
        q, m, d = self.q, self.split, self.digit
        points = tuple(line_points(rep, q))
        # closure under the primitive root g, which generates F_q^*, is
        # closure under every nonzero scalar, -1 included
        if len(points) != q - 1 or not set(points).issuperset(
            vec_scale(self.root, v, q) for v in points
        ):
            raise InvariantViolation(f"line {rep} not closed under scalars")
        self[rep] = points + tuple((d[x % m], d[x // m]) for x in [encode(s, q) for s in points])
        return self[rep]

    @cached_property
    def tables(self):
        """(lo, hi, steps).  The split-digit addition tables: the id of w + s
        is lo[w % m][s % m] + hi[w // m][s // m], m being split; they hold
        at most q^(n+1) ints, where a table of every v + s would hold V * |S|.
        No other module reads them but through a graph's neighbor_ids,
        translate and multiples.  And per digit i, the step of neighbor_masks
        by e_i: (ids whose digit i is below q-1, the rest, the shift up, the
        shift down), a graph's steps, which the scalar-orbit counts of
        autgroup also read."""
        q, n, h, m = self.q, self.n, self.low, self.split
        lo = tuple(tuple(affine_ids(q, h, 1, decode(x, q, h))) for x in range(m))
        hi = tuple(
            tuple(m * i for i in affine_ids(q, n - h, 1, decode(y, q, n - h)))
            for y in range(q ** (n - h))
        )
        v = q ** n
        steps = []
        for i in range(n):
            step = q ** i
            block = ((1 << step) - 1) << (q - 1) * step
            wrap = block * (((1 << v) - 1) // ((1 << q * step) - 1))
            steps.append((((1 << v) - 1) ^ wrap, wrap, step, (q - 1) * step))
        return lo, hi, tuple(steps)

    @cached_property
    def scalar_orbits(self):
        """The orbits of the scalars x -> λx on F_q^n, as (reps, orbit_of).

        Orbit i < D = (q^n - 1)/(q - 1) is that of reps[i], the id whose
        highest nonzero base-q digit is 1: the ids q^k..2q^k - 1 in turn,
        for k < n.  reps[D] = 0, alone in its orbit.  orbit_of[x] is the
        orbit of id x.
        """
        q, n = self.q, self.n
        d = (q ** n - 1) // (q - 1)
        reps = (*chain.from_iterable(range(q ** k, 2 * q ** k) for k in range(n)), 0)
        # an id c q^k + u, u < q^k and c > 0, is c times the representative
        # q^k + u / c, whose orbit is (q^k - 1)/(q - 1) + u / c
        orbit_of = [d]
        for k in range(n):
            first = (q ** k - 1) // (q - 1)
            for c in range(1, q):
                orbit_of += map(first.__add__, affine_ids(q, k, inv_mod(c, q), (0,) * k))
        return reps, tuple(orbit_of)

    @cached_property
    def orbit_masks(self):
        """(low, digit, readers).  The count of orbit i < D, that of q^k + u
        with u < q^k, against W is the popcount of N(u) & (W - e_k), u =
        low[i] and k = digit[i]: N(u) = N(q^k + u) - e_k is one of the first
        q^(n-1) masks of neighbor_masks, and W - e_k is W stepped back by
        steps[k].  readers[u] is the orbits that read N(u), in order."""
        q, n = self.q, self.n
        low = tuple(chain.from_iterable(range(q ** k) for k in range(n)))
        digit = tuple(chain.from_iterable([k] * q ** k for k in range(n)))
        readers = [[] for _ in range(q ** (n - 1))]
        for i, u in enumerate(low):
            readers[u].append(i)
        return low, digit, tuple(map(tuple, readers))

    @cached_property
    def orbit_bits(self):
        """Given one byte per scalar orbit, b"1" or b"0", the bytes of the
        ids' orbits from id V - 1 down to 0: the base-2 digits of the
        bitmask of the ids in the orbits marked b"1", for int(..., 2)."""
        return itemgetter(*reversed(self.scalar_orbits[1]))

    @cached_property
    def coset_labels(self):
        """The class i // q^(n-1) of every id i, as one tuple that every
        coset coloring of the size shares."""
        layer = self.q ** (self.n - 1)
        return tuple(i // layer for i in range(self.q ** self.n))


@lru_cache(maxsize=4)
def _space(q, n):
    """The one _Space of (q, n), shared by every set and graph of the size;
    four sizes are kept, as a process works on few."""
    return _Space(q, n)


def build_graph(connection):
    return CayleyGraph(connection)
