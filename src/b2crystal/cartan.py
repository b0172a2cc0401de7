"""Generalized Cartan matrices and rank-2 pair classification.

Colors are small integers; a_ij = <h_i, alpha_j> is read with GCM.a.
"""

from .errors import UnsupportedPair

ORTHOGONAL = "ORTHOGONAL"
SIMPLY_LACED = "SIMPLY_LACED"
B2 = "B2"
B2_TRANSPOSE = "B2_TRANSPOSE"

_PAIR_TYPES = {
    (0, 0): ORTHOGONAL,
    (-1, -1): SIMPLY_LACED,
    (-2, -1): B2,
    (-1, -2): B2_TRANSPOSE,
}

# The one concrete matrix the PBW realization is written for.
B2_MATRIX_ROWS = [[2, -2], [-1, 2]]
# Rank-3 odd-orthogonal matrix: its doubly-laced pair comes out transposed
# relative to the rank-2 convention above, so (1,0,0) is the 7-dimensional
# vector representation.  The other orientation (swap -1/-2 in the lower
# right block) is the rank-3 symplectic matrix, where (1,0,0) gives 6.
B3_MATRIX_ROWS = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
C3_MATRIX_ROWS = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]


def array(value, field):
    """value, refused unless it is a list or a tuple: a string or a dict
    would iterate as characters or keys, so a document field that must be an
    array is not read from one."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field} is not an array")
    return value


def integers(values, name):
    """values as int() reads them, refusing what int() would truncate (a
    boolean or a number with a fractional part) and what it cannot read (an
    array, an object or a non-numeric string); name(k) names values[k]."""
    if set(map(type, values)) <= {int}:
        return values
    out = []
    for k, v in enumerate(values):
        try:
            if isinstance(v, bool) or isinstance(v, float) and not v.is_integer():
                raise ValueError
            out.append(int(v))
        except (TypeError, ValueError):
            raise ValueError(f"{name(k)} {v} is not an integer") from None
    return out


class GCM:
    """Square integer matrix with 2 on the diagonal and nonpositive
    off-diagonal entries vanishing symmetrically.  Entries are read by
    integers(): a boolean or a fractional entry is refused, not truncated.
    The matrix and each of its rows must be a list or a tuple (array())."""

    def __init__(self, rows, index_set=None):
        n = len(array(rows, "cartan"))
        if n == 0:
            raise ValueError("empty Cartan matrix")
        if index_set is None:
            index_set = list(range(1, n + 1))
        index_set = tuple(index_set)
        if len(index_set) != n or len(set(index_set)) != n:
            raise ValueError("index set must match matrix size and be distinct")
        if any(len(array(row, f"cartan row {c}")) != n for c, row in zip(index_set, rows)):
            raise ValueError("Cartan matrix must be square")
        rows = tuple(
            tuple(integers(row, lambda q, p=p: f"Cartan entry a[{index_set[p]},{index_set[q]}]"))
            for p, row in enumerate(rows)
        )
        for p in range(n):
            if rows[p][p] != 2:
                raise ValueError(f"diagonal entry at {index_set[p]} is {rows[p][p]}, not 2")
            for q in range(n):
                if p == q:
                    continue
                if rows[p][q] > 0:
                    raise ValueError(
                        f"positive off-diagonal entry a[{index_set[p]},{index_set[q]}]"
                    )
                if (rows[p][q] == 0) != (rows[q][p] == 0):
                    raise ValueError(
                        f"zero entry not symmetric at ({index_set[p]},{index_set[q]})"
                    )
        self.colors = index_set
        self.rows = rows
        self._pos = {c: k for k, c in enumerate(index_set)}

    def a(self, i, j):
        """Entry a_ij = <h_i, alpha_j>."""
        return self.rows[self._pos[i]][self._pos[j]]

    def pairs(self):
        """All ordered pairs of distinct colors, in index order."""
        return [(i, j) for i in self.colors for j in self.colors if i != j]

    def __eq__(self, other):
        return (
            isinstance(other, GCM)
            and self.colors == other.colors
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"GCM({[list(r) for r in self.rows]}, index_set={list(self.colors)})"


def b2_gcm():
    return GCM(B2_MATRIX_ROWS, index_set=[1, 2])


def b3_gcm():
    return GCM(B3_MATRIX_ROWS, index_set=[1, 2, 3])


def classify_pair(A, i, j):
    """Type of the 2x2 restriction of A to the ordered pair (i, j).

    Raises UnsupportedPair unless (a_ij, a_ji) is one of
    (0,0), (-1,-1), (-2,-1), (-1,-2).
    """
    if i == j:
        raise ValueError("pair classification needs two distinct colors")
    key = (A.a(i, j), A.a(j, i))
    try:
        return _PAIR_TYPES[key]
    except KeyError:
        raise UnsupportedPair(f"pair ({i},{j}) has off-diagonal entries {key}") from None


def classify_all_pairs(A):
    """Classify every ordered pair; raises UnsupportedPair on the first bad one."""
    return {(i, j): classify_pair(A, i, j) for i, j in A.pairs()}

