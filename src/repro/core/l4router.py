"""The content-blind TCP connection router (the paper's baseline).

§5.3: configurations 1 and 2 are "front-ended by a TCP connection router
(performs Layer-4 routing), which is the implementation in our previous
work [2].  In the TCP connection router, we implemented 'Weight Least
Connection' mechanism for load distribution."

A layer-4 router picks the backend from the TCP SYN alone -- before the
HTTP request exists -- so it cannot see *what* is being asked for.  It
therefore needs every backend to be able to serve every document (full
replication or a shared NFS volume).  The backend resolves the URL against
its own filesystem; the router only forwards bytes.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..cluster import BackendServer, NodeSpec
from ..content import ContentItem
from ..net import HttpRequest, Lan
from ..sim import Simulator
from .frontend import Frontend, FrontendCosts
from .overload import OverloadConfig
from .policies import Policy, WeightedLeastConnection

__all__ = ["L4Router", "l4_costs"]


def l4_costs() -> FrontendCosts:
    """L4 routing is cheaper per request: no HTTP parse, no URL lookup."""
    return FrontendCosts(conn_setup_cpu=90e-6, http_parse_cpu=0.0,
                         lookup_cache_hit_cpu=0.0, lookup_per_level_cpu=0.0,
                         relay_cpu_per_kb=9e-6, teardown_cpu=40e-6)


class L4Router(Frontend):
    """Weighted-least-connection layer-4 front end."""

    def __init__(self, sim: Simulator, lan: Lan, spec: NodeSpec,
                 servers: dict[str, BackendServer],
                 resolver: Callable[[str], Optional[ContentItem]],
                 policy: Optional[Policy] = None,
                 costs: Optional[FrontendCosts] = None,
                 warmup: float = 0.0,
                 overload: Optional[OverloadConfig] = None,
                 name: Optional[str] = None):
        super().__init__(sim, lan, spec, servers,
                         policy=policy or WeightedLeastConnection(),
                         costs=costs or l4_costs(), warmup=warmup,
                         overload=overload, name=name)
        self.resolver = resolver

    def route(self, request: HttpRequest) -> Generator:
        """Pick any alive backend; the router never reads the URL.

        The *resolver* stands in for the backend's own filesystem lookup --
        the item must be resolved somewhere, just not at the router, and
        the backend already pays CPU for request handling in ``serve``.
        """
        backend = self.policy.select(sorted(self.servers), self.view)
        if backend is None:
            self.metrics.counter("route/no-backend-alive").increment()
            return None, None
        item = self.resolver(request.url)
        return backend, item
        yield  # pragma: no cover -- L4 routing does no simulated work here
