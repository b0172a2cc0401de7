"""Exception types shared across the package."""


class UnsupportedPair(ValueError):
    """Rank-2 restriction of a Cartan matrix is outside the supported list."""


class DuplicateEdge(ValueError):
    """graph.closure lowered to a new element one of whose other keys
    already names a vertex: the transition map is not injective."""


class NonTerminating(RuntimeError):
    """A monochromatic walk exceeded the vertex count (cycle)."""


class InconsistentWeight(ValueError):
    """Two paths from the maximum element carry different color multisets."""

    def __init__(self, vertex, first, second):
        self.vertex = vertex
        self.first = dict(first)
        self.second = dict(second)
        super().__init__(
            f"vertex {vertex}: conflicting path multisets {self.first} vs {self.second}"
        )


class BudgetExceeded(RuntimeError):
    """Generation or synthesis outgrew its configured vertex budget."""


class HypothesisNotMet(ValueError):
    """Closed-form corollary evaluated outside its hypothesis domain."""


class MembershipViolation(RuntimeError):
    """pbw.generate lowered to a vertex outside the x4 rule (x4 <= l1, a4 <= l2)."""


class SynthesisInconsistency(RuntimeError):
    """Axiom-driven synthesis produced contradictory state."""


class PrereqFailed(ValueError):
    """Isomorphism construction input failed its preconditions."""


class CertificationFailed(PrereqFailed):
    """An isomorphism input does not pass check_all."""


class NotIsomorphic(ValueError):
    """The walk from the maximum elements found the two graphs differ: an
    arrow without a counterpart, two vertices with one image, or a map that
    is not onto."""
