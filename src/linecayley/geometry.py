"""Lines through the origin, directions, and affine hyperplanes in F_q^n.

The construction only uses lines that meet the hyperplane {x : x[n-1] = 0}
in the origin alone.  Those are exactly the lines whose canonical projective
representative has last coordinate 1, so the universe of admissible lines is
the direct product F_q^{n-1} x {1}.
"""

import itertools
from dataclasses import dataclass

from .field import (
    decode,
    inv_mod,
    kernel,
    rank,
    require_odd_prime,
    require_prime,
    vec_dot,
    vec_scale,
    vec_sub,
)


def proj_rep(v, q):
    """Canonical representative of the line spanned by v.

    The representative is scaled so its last nonzero coordinate equals 1;
    two nonzero vectors get the same representative iff they span the same
    line.
    """
    last = None
    for j in range(len(v) - 1, -1, -1):
        if v[j] % q:
            last = j
            break
    if last is None:
        raise ValueError("zero vector spans no line")
    inv = inv_mod(v[last], q)
    return tuple(a * inv % q for a in v)


def line_points(rep, q):
    """The q-1 nonzero points of the line spanned by rep."""
    return {vec_scale(lam, rep, q) for lam in range(1, q)}


@dataclass(frozen=True)
class LineUniverse:
    """All lines meeting {x[n-1] = 0} only at the origin, in canonical order."""

    q: int
    n: int
    lines: tuple

    def __post_init__(self):
        object.__setattr__(self, "_lineset", frozenset(self.lines))

    def __len__(self):
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)

    def __contains__(self, rep):
        return rep in self._lineset


def line_universe(q, n):
    """Enumerate the admissible lines; there are exactly q^(n-1) of them."""
    require_prime(q)
    if n < 2:
        raise ValueError("dimension must be at least 2")
    lines = tuple(
        base + (1,) for base in itertools.product(range(q), repeat=n - 1)
    )
    return LineUniverse(q, n, lines)


def all_projective_points(q, n):
    """Canonical representatives of every line through the origin of F_q^n."""
    require_prime(q)
    reps = set()
    for v in itertools.product(range(q), repeat=n):
        if any(v):
            reps.add(proj_rep(v, q))
    return sorted(reps)


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
    dirs = set()
    for u, v in itertools.combinations(pts, 2):
        dirs.add(direction(u, v, q))
    return dirs


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
        points = [decode(i, q, n) for i in c]
        form = affine_hyperplane_form(points, q, n)
        if form is None:
            return None
        normals.add(form[0])
    if len(normals) == 1:
        return normals.pop()
    return None


def affine_lines_spanned(points, q):
    """Number of distinct affine lines through at least two points of the set."""
    pts = sorted(points)
    keys = set()
    for u, v in itertools.combinations(pts, 2):
        d = direction(u, v, q)
        line = frozenset(tuple((a + lam * b) % q for a, b in zip(u, d)) for lam in range(q))
        keys.add((d, min(line)))
    return len(keys)
