"""Transition maps between the two PBW coordinate systems.

Both maps are total bijections of N^4 and mutually inverse.  They use
Python integers, so they are exact at any coordinate size.  Callers look
them up through this module at call time (``kernel.r_transfer(a)``)
rather than binding them at import, so that a wrapper installed on the
module attribute (``perfbench/tracing.py`` counts calls this way) sees
every call.
"""


def r_transfer(a):
    """Coordinates along s1s2s1s2 -> coordinates along s2s1s2s1."""
    a1, a2, a3, a4 = a
    bd = a2 if a2 >= a4 else a4
    n1 = bd + a3 - a1
    if a2 > n1:
        n1 = a2
    n2 = (a1 if a1 >= a3 else a3) + 2 * a2
    t1 = a3 + a4
    t2 = a1 + (a2 if a2 <= a4 else a4)
    n3 = t1 if t1 <= t2 else t2
    n4 = a1 if a1 <= a3 else a3
    mu = 2 * n3 if 2 * n3 >= n2 + n4 else n2 + n4
    return (n1, mu - n2, n2 + n3 - mu, n4 - 2 * n3 + mu)


def r_inverse(x):
    """Coordinates along s2s1s2s1 -> coordinates along s1s2s1s2."""
    x1, x2, x3, x4 = x
    bd = x2 if x2 >= x4 else x4
    p1 = bd + 2 * (x3 - x1)
    if x2 > p1:
        p1 = x2
    p2 = (x1 if x1 >= x3 else x3) + x2
    t1 = 2 * x3 + x4
    t2 = 2 * x1 + (x2 if x2 <= x4 else x4)
    p3 = t1 if t1 <= t2 else t2
    p4 = x1 if x1 <= x3 else x3
    nu = p3 if p3 >= p2 + p4 else p2 + p4
    return (p1, nu - p2, 2 * p2 + p3 - 2 * nu, p4 - p3 + nu)
