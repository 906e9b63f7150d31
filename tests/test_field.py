import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecayley.field import (
    PRIME_TEST_MAX,
    affine_ids,
    decode,
    encode,
    gl_order,
    inv_mod,
    is_prime,
    is_scalar_matrix,
    mat_apply,
    primitive_root,
    require_odd_prime,
    vec_scale,
)
from oracles import (
    brute_affine_ids,
    brute_row_span_size,
    enumerate_gl,
    gaussian_binomial_1,
    kernel,
    mat_inverse,
    mat_mul,
    mat_sub_scalar,
    rank,
    vec_add,
)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    # Miller-Rabin gives trial division's answer below 2 * 10^4; the least
    # strong pseudoprimes to the first k prime bases, k = 1..12, are
    # composite; so is PRIME_TEST_MAX, the one for k = 13, which is refused
    def trial(q):
        return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))

    assert [q for q in range(2 * 10**4) if is_prime(q)] == list(filter(trial, range(2 * 10**4)))
    pseudoprimes = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                    341550071728321, 3825123056546413051, 318665857834031151167461)
    assert not any(map(is_prime, pseudoprimes))
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3) and is_prime(2**31 - 1)
    with pytest.raises(ValueError, match="PRIME_TEST_MAX"):
        is_prime(PRIME_TEST_MAX)


def test_require_odd_prime():
    require_odd_prime(7)
    with pytest.raises(ValueError):
        require_odd_prime(2)
    with pytest.raises(ValueError):
        require_odd_prime(9)


def test_inv_mod():
    for q in (3, 5, 7, 11):
        for a in range(1, q):
            assert a * inv_mod(a, q) % q == 1


def test_primitive_root():
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(11) == 2
    # powers of the root hit every nonzero residue
    for q in (3, 5, 7, 13):
        g = primitive_root(q)
        assert {pow(g, i, q) for i in range(q - 1)} == set(range(1, q))


def test_encode_decode():
    assert encode((1, 2), 3) == 7
    assert decode(124, 5, 3) == (4, 4, 4)
    assert decode(0, 3, 2) == (0, 0)
    for q, n in ((3, 2), (5, 3)):
        for i in range(q**n):
            assert encode(decode(i, q, n), q) == i


def test_encode_decode_validation():
    with pytest.raises(ValueError):
        encode((3, 0), 3)
    with pytest.raises(ValueError):
        encode((-1, 0), 3)
    with pytest.raises(ValueError):
        decode(9, 3, 2)
    with pytest.raises(ValueError):
        decode(-1, 3, 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_affine_ids_matches_decode_encode(data):
    q = data.draw(st.sampled_from((3, 5, 7)))
    n = data.draw(st.integers(2, 4))
    lam = data.draw(st.integers(1, q - 1))
    b = data.draw(st.lists(st.integers(), min_size=n, max_size=n))
    assert affine_ids(q, n, lam, b) == brute_affine_ids(q, n, lam, b)


def test_affine_ids_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        affine_ids(3, 2, 1, (0, 0, 0))


def test_vec_ops():
    assert vec_add((1, 2), (2, 2), 3) == (0, 1)
    assert vec_scale(2, (1, 2), 3) == (2, 1)


def test_rank_against_row_span():
    rng = random.Random(7)
    for _ in range(40):
        q = rng.choice((3, 5))
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        m = tuple(
            tuple(rng.randrange(q) for _ in range(cols)) for _ in range(rows)
        )
        assert q ** rank(m, q) == brute_row_span_size(m, q)


def test_kernel_annihilates():
    rng = random.Random(11)
    for _ in range(40):
        q = rng.choice((3, 5, 7))
        size = rng.randrange(2, 5)
        m = tuple(
            tuple(rng.randrange(q) for _ in range(size)) for _ in range(size)
        )
        basis = kernel(m, q)
        assert len(basis) == size - rank(m, q)
        for b in basis:
            assert mat_apply(m, b, q) == tuple([0] * size)


def test_mat_inverse():
    rng = random.Random(3)
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    found = 0
    while found < 20:
        m = tuple(tuple(rng.randrange(5) for _ in range(3)) for _ in range(3))
        if rank(m, 5) < 3:
            continue
        found += 1
        assert mat_mul(m, mat_inverse(m, 5), 5) == ident
    with pytest.raises(ValueError):
        mat_inverse(((1, 2), (2, 4)), 5)


def test_scalar_matrix():
    assert is_scalar_matrix(((2, 0), (0, 2)))
    assert not is_scalar_matrix(((2, 0), (0, 1)))
    assert not is_scalar_matrix(((0, 1), (1, 0)))


def test_mat_sub_scalar():
    m = ((1, 2), (0, 1))
    assert mat_sub_scalar(m, 1, 3) == ((0, 2), (0, 0))


def test_gaussian_binomial():
    assert gaussian_binomial_1(0, 3) == 0
    assert gaussian_binomial_1(1, 3) == 1
    assert gaussian_binomial_1(2, 3) == 4
    assert gaussian_binomial_1(3, 3) == 13
    assert gaussian_binomial_1(2, 5) == 6


def test_gl_order_and_enumeration():
    assert gl_order(3, 2) == 48
    assert gl_order(3, 3) == 11232
    assert sum(1 for _ in enumerate_gl(3, 2)) == 48
    assert sum(1 for _ in enumerate_gl(5, 2)) == gl_order(5, 2)
    for m in enumerate_gl(3, 2):
        assert rank(m, 3) == 2
