"""LARD: Locality-Aware Request Distribution (Pai et al., ASPLOS 1998).

The paper's conclusion promises to "further investigate more sophisticated
load-balancing algorithm[s]"; LARD is the canonical contemporaneous one and
makes an instructive comparison point for the evaluation harness:

* like the content-aware distributor, LARD routes on the *requested
  content* (it needs the same front-end mechanism -- §2's splicing);
* unlike static partitioning, LARD builds the content-to-server mapping
  *dynamically*: the first request for a document is assigned to the
  least-loaded node, and later requests stick to that node (cache
  locality) unless it is overloaded, in which case the document is
  reassigned (or served by a replica set in LARD/R).

This implementation follows the basic LARD algorithm of the ASPLOS paper:

    if server[target] is None:
        server[target] = least_loaded_node
    elif load(server[target]) > T_high and exists node with load < T_low,
         or load(server[target]) >= 2 * T_high:
        server[target] = least_loaded_node

with node load measured in active connections (the paper's metric).

It plugs into the same front-end machinery as the other routers, and works
over *full replication* -- every node can serve every document; LARD's
point is that locality makes the per-node working sets small without any
static placement decisions.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..cluster import BackendServer, NodeSpec
from ..content import ContentItem
from ..net import HttpRequest, Lan
from ..sim import Simulator
from .frontend import Frontend, FrontendCosts
from .overload import OverloadConfig

__all__ = ["LardRouter"]


class LardRouter(Frontend):
    """Locality-aware request distribution over a replicated cluster."""

    def __init__(self, sim: Simulator, lan: Lan, spec: NodeSpec,
                 servers: dict[str, BackendServer],
                 resolver: Callable[[str], Optional[ContentItem]],
                 t_low: int = 2, t_high: int = 8,
                 weighted: bool = True,
                 costs: FrontendCosts = FrontendCosts(),
                 warmup: float = 0.0,
                 overload: Optional[OverloadConfig] = None,
                 name: Optional[str] = None):
        if not 0 <= t_low < t_high:
            raise ValueError("need 0 <= t_low < t_high")
        super().__init__(sim, lan, spec, servers, costs=costs,
                         warmup=warmup, overload=overload, name=name)
        self.resolver = resolver
        self.t_low = t_low
        self.t_high = t_high
        #: ASPLOS LARD assumed a homogeneous cluster and counted raw
        #: connections; on the paper's heterogeneous testbed that drowns
        #: the 150 MHz nodes.  ``weighted=True`` divides by the §3.3
        #: capacity weight (our adaptation); ``False`` is the original.
        self.weighted = weighted
        #: the dynamically built content -> server assignment
        self.assignment: dict[str, str] = {}
        self.reassignments = 0
        self.first_assignments = 0

    def _node_load(self, node: str) -> float:
        if self.weighted:
            return (self.view.active[node] + 1) / self.view.weights[node]
        return float(self.view.active[node])

    def _least_loaded(self) -> Optional[str]:
        alive = self.view.alive_nodes()
        if not alive:
            return None
        return min(alive, key=lambda n: (self._node_load(n), n))

    def _lard_pick(self, key: str) -> Optional[str]:
        current = self.assignment.get(key)
        if current is None or not self.view.alive.get(current, False):
            target = self._least_loaded()
            if target is None:
                return None
            self.assignment[key] = target
            self.first_assignments += 1
            return target
        load = self._node_load(current)
        least = self._least_loaded()
        if least is None:
            return None
        least_load = self._node_load(least)
        if (load > self.t_high and least_load < self.t_low) or \
                load >= 2 * self.t_high:
            # the assigned node is overloaded: move the document
            self.assignment[key] = least
            self.reassignments += 1
            return least
        return current

    def route(self, request: HttpRequest) -> Generator:
        """Parse the request (LARD is content-aware) and pick per LARD."""
        yield from self.cpu.run(self.costs.http_parse_cpu)
        key = request.url.split("?", 1)[0]
        backend = self._lard_pick(key)
        if backend is None:
            self.metrics.counter("route/no-backend-alive").increment()
            return None, None
        return backend, self.resolver(request.url)
