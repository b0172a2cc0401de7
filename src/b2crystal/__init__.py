"""B2 highest-weight crystal graphs and their local axiomatics.

Submodules:
  cartan   Cartan matrices, rank-2 pair classification, pairing bookkeeping
  graph    colored directed graphs, string statistics, weight grading
  kernel   the two transition maps between the PBW coordinate systems
  pbw      dual PBW coordinates, Kashiwara operators, crystal generation
  axioms   the local axiom checker and bounded confluence search
  builder  synthesis from a highest weight; layered graph isomorphism
  oracle   brute-force verification suites and dimension oracles
  cli      command-line interface and the JSON/DOT file formats
"""

__version__ = "0.1.0"

from .cartan import GCM, b2_gcm, b3_gcm, classify_pair, pairing_of_root_count
from .graph import ColoredGraph
from .pbw import PbwElement, generate

__all__ = [
    "GCM",
    "b2_gcm",
    "b3_gcm",
    "classify_pair",
    "pairing_of_root_count",
    "ColoredGraph",
    "PbwElement",
    "generate",
    "__version__",
]
