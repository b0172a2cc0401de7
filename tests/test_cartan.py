import re

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
