"""Exact-arithmetic magnitude homology and cohomology of finite graphs and
quasi-metric spaces, with the cohomology ring, metric recovery from the ring,
and verified closed-form presentations for standard graph families."""

from .homology import AbelianGroup, MagnitudeHomology, cohomology, homology, uct_check
from .spaces import Graph, QuasiMetricSpace, space_from_graph

__all__ = [
    "AbelianGroup",
    "Graph",
    "MagnitudeHomology",
    "QuasiMetricSpace",
    "cohomology",
    "homology",
    "space_from_graph",
    "uct_check",
]
