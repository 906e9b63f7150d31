"""Lines through the origin of F_q^n.

The construction only uses lines that meet the hyperplane {x : x[n-1] = 0}
in the origin alone.  Those are exactly the lines whose canonical projective
representative has last coordinate 1, so the universe of admissible lines is
the direct product F_q^{n-1} x {1}.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .field import inv_mod, require_prime, require_space, vec_scale


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
    return tuple([a * inv % q for a in v])


def line_points(rep, q):
    """The q-1 nonzero points of the line spanned by rep."""
    return {vec_scale(lam, rep, q) for lam in range(1, q)}


@dataclass(frozen=True)
class LineUniverse:
    """All lines meeting {x[n-1] = 0} only at the origin, in canonical order."""

    q: int
    n: int
    lines: tuple

    def __len__(self):
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)


def line_universe(q, n):
    """Enumerate the admissible lines; there are exactly q^(n-1) of them."""
    require_space(q, n)
    lines = tuple(
        base + (1,) for base in itertools.product(range(q), repeat=n - 1)
    )
    return LineUniverse(q, n, lines)


@lru_cache(maxsize=4)
def all_projective_points(q, n):
    """Every line through the origin of F_q^n as its canonical representative,
    whose last nonzero coordinate is 1, sorted; cached, as a process works on few sizes."""
    require_prime(q)
    return tuple(sorted(
        (*head, 1, *(0,) * (n - 1 - j)) for j in range(n) for head in itertools.product(range(q), repeat=j)
    ))
