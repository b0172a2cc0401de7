import re
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from b2crystal.cartan import (
    B2,
    B2_TRANSPOSE,
    GCM,
    ORTHOGONAL,
    SIMPLY_LACED,
    b2_gcm,
    b3_gcm,
    classify_all_pairs,
    classify_pair,
    finite_type,
)
from b2crystal.errors import UnsupportedPair
from helpers import add_counts, pairing_of_root_count


def test_classify_pair_examples():
    assert classify_pair(b2_gcm(), 1, 2) == B2
    assert classify_pair(b2_gcm(), 2, 1) == B2_TRANSPOSE
    assert classify_pair(GCM([[2, 0], [0, 2]]), 1, 2) == ORTHOGONAL
    assert classify_pair(GCM([[2, -1], [-1, 2]]), 1, 2) == SIMPLY_LACED
    with pytest.raises(UnsupportedPair):
        classify_pair(GCM([[2, -3], [-1, 2]]), 1, 2)
    with pytest.raises(ValueError, match="^pair classification needs two distinct colors$"):
        classify_pair(b2_gcm(), 1, 1)


def test_classify_pair_transpose_duality():
    for rows in ([[2, -2], [-1, 2]], [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]):
        A = GCM(rows)
        for i, j in A.pairs():
            if classify_pair(A, i, j) == B2:
                assert classify_pair(A, j, i) == B2_TRANSPOSE
            if classify_pair(A, i, j) == B2_TRANSPOSE:
                assert classify_pair(A, j, i) == B2


def test_b3_pair_types():
    types = set(classify_all_pairs(b3_gcm()).values())
    assert types == {SIMPLY_LACED, ORTHOGONAL, B2, B2_TRANSPOSE}


def test_gcm_validation():
    with pytest.raises(ValueError):
        GCM([[2, 1], [-1, 2]])  # positive off-diagonal
    with pytest.raises(ValueError):
        GCM([[2, 0], [-1, 2]])  # zero not symmetric
    with pytest.raises(ValueError):
        GCM([[1, -1], [-1, 2]])  # bad diagonal
    with pytest.raises(ValueError):
        GCM([[2, -1], [-1, 2]], index_set=[1, 1])  # repeated color


def test_gcm_refuses_truncated_entries():
    # a boolean or a fractional entry is refused by name, not truncated;
    # integral floats and numeric strings read as int() reads them
    for rows, index_set, entry in (([[2, -2.5], [-1, 2]], None, "a[1,2] -2.5"),
                                   ([[2, -1], [-1.5, 2]], [3, 7], "a[7,3] -1.5"),
                                   ([[2, True], [-1, 2]], None, "a[1,2] True")):
        with pytest.raises(ValueError, match=re.escape(f"Cartan entry {entry} is not an integer")):
            GCM(rows, index_set=index_set)
    assert GCM([[2.0, "-2"], [-1, "2"]]) == b2_gcm()


# Dynkin types by their rows: the finite ones, then affine, hyperbolic and
# non-symmetrizable matrices, none of which is of finite type
_FINITE = {
    "A1+A1": [[2, 0], [0, 2]], "A2": [[2, -1], [-1, 2]], "B2": [[2, -2], [-1, 2]], "G2": [[2, -3], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]], "A1+B2": [[2, 0, 0], [0, 2, -2], [0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "E8": [[2 if p == q else -1 if abs(p - q) == 1 and 7 not in (p, q) or {p, q} == {2, 7} else 0
            for q in range(8)] for p in range(8)],
}
_INFINITE = {
    "A1(1)": [[2, -2], [-2, 2]], "A2(2)": [[2, -4], [-1, 2]], "hyperbolic": [[2, -3], [-3, 2]],
    "A2(1)": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "C2(1)": [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
    "D3(2)": [[2, -2, 0], [-1, 2, -1], [0, -2, 2]], "A1+A1(1)": [[2, 0, 0], [0, 2, -2], [0, -2, 2]],
    "B3(1)": [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -2, 2]],
    "E8(1)": [[2 if p == q else -1 if abs(p - q) == 1 and 8 not in (p, q) or {p, q} == {2, 8} else 0
               for q in range(9)] for p in range(9)],
    "not symmetrizable": [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]],
}


@pytest.mark.parametrize("rows, finite", [(rows, True) for rows in _FINITE.values()]
                         + [(rows, False) for rows in _INFINITE.values()], ids=[*_FINITE, *_INFINITE])
def test_finite_type(rows, finite):
    assert finite_type(GCM(rows)) is finite


def test_finite_type_at_rank_2():
    # a rank-2 matrix is of finite type iff a12 a21 < 4
    for a, b in product(range(6), repeat=2):
        if (a == 0) == (b == 0):
            assert finite_type(GCM([[2, -a], [-b, 2]])) is (a * b < 4), (a, b)


def test_pairing_of_root_count_examples():
    A = b2_gcm()
    assert pairing_of_root_count(A, {}) == {1: 0, 2: 0}
    assert pairing_of_root_count(A, {1: 1}) == {1: 2, 2: -1}
    assert pairing_of_root_count(A, {1: 2, 2: 1}) == {1: 2, 2: 0}
    with pytest.raises(ValueError):
        pairing_of_root_count(A, {7: 1})


@given(
    st.dictionaries(st.sampled_from([1, 2]), st.integers(0, 20)),
    st.dictionaries(st.sampled_from([1, 2]), st.integers(0, 20)),
)
def test_pairing_additive(c1, c2):
    A = b2_gcm()
    total = pairing_of_root_count(A, add_counts(c1, c2))
    p1 = pairing_of_root_count(A, c1)
    p2 = pairing_of_root_count(A, c2)
    assert total == {i: p1[i] + p2[i] for i in A.colors}
