import pytest

from linecayley.cayley import ConnectionSet
from linecayley.errors import BudgetExceeded
from linecayley.field import mat_apply
from oracles import enumerate_gl, linear_maps_fixing_connection


def test_enumerate_gl_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_gl(7, 3, budget=1000))


def test_linear_maps_fixing_connection():
    s1 = ConnectionSet(3, 2, [(0, 1)])
    maps1 = linear_maps_fixing_connection(s1)
    assert len(maps1) == 12
    s3 = ConnectionSet(3, 2, [(0, 1), (1, 1), (2, 1)])
    maps3 = linear_maps_fixing_connection(s3)
    assert len(maps3) == 12
    for m in maps1:
        assert all(mat_apply(m, v, 3) in s1.members for v in s1.members)
    empty = ConnectionSet(3, 2, [])
    assert len(linear_maps_fixing_connection(empty)) == 48
