"""Hand-built fixture graphs and mutation helpers shared by the tests."""

from itertools import product

from b2crystal.graph import ColoredGraph

# Coordinates at and past the limits of 64-bit integers (2**63 + 2**63 is
# 2**64), where fixed-width arithmetic would wrap around or overflow.
LARGE_BOX = list(product((0, 1, 2**62, 2**62 + 1, 2**63), repeat=4))


def a2_crystal_2_0():
    """Six-element simply-laced crystal with top statistics (2,0).

    Shape: a 1-string of length two into a square that closes, then a
    trailing 2-arrow; exercises the commuting-square axiom.
    """
    g = ColoredGraph((1, 2))
    for _ in range(6):
        g.add_vertex()
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, 2)
    g.add_edge(1, 3, 1)
    g.add_edge(2, 4, 1)
    g.add_edge(3, 4, 2)
    g.add_edge(4, 5, 2)
    return g.freeze()


def a2_crystal_1_1():
    """Eight-element simply-laced crystal with top statistics (1,1);
    its bottom vertex exercises the length-4 confluence."""
    g = ColoredGraph((1, 2))
    for _ in range(8):
        g.add_vertex()
    g.add_edge(0, 1, 1)
    g.add_edge(0, 2, 2)
    g.add_edge(1, 3, 2)
    g.add_edge(2, 4, 1)
    g.add_edge(3, 5, 2)
    g.add_edge(4, 6, 1)
    g.add_edge(5, 7, 1)
    g.add_edge(6, 7, 2)
    return g.freeze()


def bad_confluence_graph():
    """Five vertices, two paths to the sink with multisets {1,2} vs {2,2,1}.

    Good, has a maximum element, but the weight grading is inconsistent
    and no equal-multiset meet exists above the sink.
    """
    g = ColoredGraph((1, 2))
    for _ in range(5):
        g.add_vertex()
    g.add_edge(0, 1, 1)  # x0 -> a
    g.add_edge(1, 2, 2)  # a  -> z
    g.add_edge(0, 3, 2)  # x0 -> b
    g.add_edge(3, 4, 2)  # b  -> c
    g.add_edge(4, 2, 1)  # c  -> z
    return g.freeze()


def deletion_mutants(g):
    """Every graph obtained from g by dropping one arrow."""
    for edge in g.edges():
        yield edge, g.copy_mutable(skip_edge=edge).freeze()


def redirect_mutants(g):
    """Every graph obtained by rerouting one arrow to a fresh vertex."""
    for edge in g.edges():
        s, d, c = edge
        mut = g.copy_mutable(skip_edge=edge)
        t = mut.add_vertex()
        mut.add_edge_unchecked(s, t, c)
        yield edge, mut.freeze()
