"""Exact arithmetic over a prime field F_q, fixed-length vectors, and n x n matrices.

Vectors are plain tuples of ints in [0, q); matrices are tuples of row tuples.
Everything is immutable and already reduced mod q, so values can be compared,
hashed and shared freely.  Only odd prime moduli are supported.
"""


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2017); the first 12 are exact only below 318665857834031151167461,
# which passes them.  is_prime refuses larger numbers
PRIME_TEST_MAX = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(q):
    """Whether q is prime, in 13 modular powers at most, so its cost does
    not grow with √q.  Raises ValueError from PRIME_TEST_MAX on."""
    if q >= PRIME_TEST_MAX:
        raise ValueError(f"primality is decided below PRIME_TEST_MAX = {PRIME_TEST_MAX}, got {q}")
    if q < 2 or any(q % a == 0 for a in _BASES):
        return q in _BASES
    # q - 1 = d 2^s with d odd; q passes base a when a^d = 1 or some
    # a^(d 2^r) = -1, r < s, mod q
    s = ((q - 1) & (1 - q)).bit_length() - 1
    d = (q - 1) >> s
    for a in _BASES:
        x = pow(a, d, q)
        if x not in (1, q - 1):
            for _ in range(s - 1):
                x = x * x % q
                if x == q - 1:
                    break
            else:
                return False
    return True


def require_odd_prime(q):
    if q == 2 or not is_prime(q):
        raise ValueError(f"modulus must be an odd prime, got {q}")


# The most vertices, q^n, of any space a line universe, connection set or
# graph is built on.  (5,8), the largest size README runs, has 390,625; a
# larger size is refused at once, before its tables of q^(n/2) and more
# entries are built (at (3,40) they would fill any memory).
MAX_VERTICES = 2**20


def require_space(q, n):
    """Raise ValueError unless F_q^n is a space the package builds on: n at
    least 2, q^n at most MAX_VERTICES, and q an odd prime.  The cap comes
    before the primality test: with n >= 2, every q > 2^10 is refused by
    size."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    # for q >= 2, q^n passes the cap once n passes its bit length
    if q > 1 and q ** min(n, MAX_VERTICES.bit_length()) > MAX_VERTICES:
        raise ValueError(f"F_{q}^{n} has more than MAX_VERTICES = {MAX_VERTICES} vertices")
    require_odd_prime(q)


def inv_mod(a, q):
    """Multiplicative inverse of a nonzero residue mod the prime q."""
    if a % q == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {q}")
    return pow(a, -1, q)


def primitive_root(q):
    """Smallest positive generator of the multiplicative group mod the odd prime q."""
    require_odd_prime(q)
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise ValueError(f"no primitive root found mod {q}")  # unreachable for prime q


# ---------------------------------------------------------------------------
# vectors


def vec_scale(c, u, q):
    return tuple([c * a % q for a in u])


def encode(v, q):
    """Vertex id of a vector: coordinate 0 is the least significant base-q digit."""
    i = 0
    for a in reversed(v):
        if not 0 <= a < q:
            raise ValueError(f"coordinate {a} out of range [0, {q})")
        i = i * q + a
    return i


def decode(i, q, n):
    """Inverse of encode; valid for i in [0, q**n)."""
    if not 0 <= i < q ** n:
        raise ValueError(f"vertex id {i} out of range [0, {q ** n})")
    coords = []
    for _ in range(n):
        i, r = divmod(i, q)
        coords.append(r)
    return tuple(coords)


def affine_ids(q, n, lam, b):
    """Image id of every vertex under x -> lam * x + b, as a list.

    The map acts on each coordinate separately, so the table is built one
    base-q digit at a time, least significant first, without decoding ids.
    """
    if lam % q == 0:
        raise ValueError("scale factor must be nonzero")
    if len(b) != n:
        raise ValueError(f"translation {tuple(b)} has wrong dimension")
    table = [0]
    step = 1
    for c in b:
        shifts = [step * ((lam * d + c) % q) for d in range(q)]
        table = [t + s for s in shifts for t in table]
        step *= q
    return table


# ---------------------------------------------------------------------------
# matrices (row major, square unless noted)


def is_scalar_matrix(m):
    n = len(m)
    lam = m[0][0]
    return all(m[i][j] == (lam if i == j else 0) for i in range(n) for j in range(n))


def transvection(w):
    """The matrix of x -> x + x[n-1] w, for w with w[n-1] = 0: the
    identity with w added to its last column.  It has determinant 1, and
    is not scalar when w != 0."""
    n = len(w)
    return tuple(tuple(int(i == j) + w[i] * (j == n - 1) for j in range(n)) for i in range(n))


def homology(u, q):
    """The matrix of x -> x - 2 x[n-1] u, for u with u[n-1] = 1: the
    identity with 2u taken from its last column.  It fixes the hyperplane
    x[n-1] = 0 pointwise and maps u to -u, so it is not scalar."""
    n = len(u)
    return tuple(
        tuple((int(i == j) - 2 * u[i] * (j == n - 1)) % q for j in range(n)) for i in range(n)
    )


def mat_apply(m, v, q):
    return tuple(sum(a * b for a, b in zip(row, v)) % q for row in m)


def rref(rows, q):
    """Reduced row echelon form; returns (reduced nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] % q:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = inv_mod(mat[r][c], q)
        mat[r] = [x * inv % q for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % q:
                f = mat[i][c]
                mat[i] = [(x - f * y) % q for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def gl_order(q, n):
    """Order of the group of invertible n x n matrices over F_q."""
    qn = q ** n
    order = 1
    for i in range(n):
        order *= qn - q ** i
    return order
