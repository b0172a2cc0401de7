from itertools import chain, product

from hypothesis import given
from hypothesis import strategies as st

from b2crystal import kernel
from helpers import LARGE_BOX

# small values hit the branch boundaries; the wide range runs past 2**64
nat = st.one_of(st.integers(0, 200), st.integers(0, 2**80))
nat4 = st.tuples(nat, nat, nat, nat)

# (a, r_transfer(a)) pairs
KNOWN = [
    ((0, 0, 0, 0), (0, 0, 0, 0)),
    ((1, 0, 0, 0), (0, 0, 0, 1)),
    ((1, 1, 1, 1), (1, 1, 1, 1)),
    ((1, 1, 1, 0), (1, 1, 0, 3)),
]


def test_known_values():
    # both maps are positively homogeneous, so every scaling of a known
    # pair is known too
    for scale in (1, 2**62, 2**63):
        for a, x in KNOWN:
            a = tuple(scale * v for v in a)
            x = tuple(scale * v for v in x)
            assert kernel.r_transfer(a) == x
            assert kernel.r_inverse(x) == a


def test_roundtrip_box():
    for a in chain(product(range(9), repeat=4), LARGE_BOX):
        x = kernel.r_transfer(a)
        assert all(v >= 0 for v in x)
        assert kernel.r_inverse(x) == a
    for x in chain(product(range(9), repeat=4), LARGE_BOX):
        a = kernel.r_inverse(x)
        assert all(v >= 0 for v in a)
        assert kernel.r_transfer(a) == x


@given(nat4)
def test_roundtrip_random(a):
    assert kernel.r_inverse(kernel.r_transfer(a)) == a
