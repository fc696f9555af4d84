"""The correctness gate: sampled answers against the BFS oracle.

Ground truth comes from :mod:`repro.graph.projection` (project the
graph onto a window, then breadth-first search), the oracle the
repository's own tests trust.  This class only memoizes projections
and reachable sets, so windows shared by many sampled queries are
projected once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.graph.projection import project

#: Projected graphs kept at once; each holds an adjacency set per vertex.
MAX_PROJECTIONS = 256


class Oracle:
    def __init__(self, graph):
        self.graph = graph
        self._projections: "OrderedDict[Tuple[int, int], Any]" = OrderedDict()
        self._reached: Dict[Tuple[int, int, int], frozenset] = {}

    def _reachable(self, ui: int, t1: int, t2: int) -> frozenset:
        key = (ui, t1, t2)
        reached = self._reached.get(key)
        if reached is None:
            window = (t1, t2)
            projected = self._projections.get(window)
            if projected is None:
                projected = self._projections[window] = project(
                    self.graph, window)
                if len(self._projections) > MAX_PROJECTIONS:
                    self._projections.popitem(last=False)
            else:
                self._projections.move_to_end(window)
            reached = self._reached[key] = frozenset(
                projected.reachable_from(ui))
        return reached

    def span(self, u: Any, v: Any, t1: int, t2: int) -> bool:
        ui, vi = self.graph.index_of(u), self.graph.index_of(v)
        return ui == vi or vi in self._reachable(ui, t1, t2)

    def theta(self, u: Any, v: Any, t1: int, t2: int, theta: int) -> bool:
        """Definition 2: some θ-long window inside [t1, t2] connects."""
        ui, vi = self.graph.index_of(u), self.graph.index_of(v)
        if ui == vi:
            return True
        return any(
            vi in self._reachable(ui, start, start + theta - 1)
            for start in range(t1, t2 - theta + 2)
        )

    def answer(self, op: str, u: Any, v: Any, t1: int, t2: int,
               theta: Optional[int]) -> bool:
        if op == "theta":
            return self.theta(u, v, t1, t2, theta)
        return self.span(u, v, t1, t2)
