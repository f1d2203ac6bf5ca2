"""The packet-level splicer with a tracer attached to its simulator.

Tracing is passive: the same request mix yields the same completions,
relay counters and segment count with and without a tracer, while the
trace records every mapping-entry transition (``splice`` points, one
trace id per client connection) and every pool-leg transition (``leg``
points).
"""

from repro.content import ContentItem, ContentType
from repro.net import HttpVersion, Network
from repro.obs import Tracer
from repro.sim import Simulator

from .test_splicer import build, client_fetch

DOCS = (("/a.html", "s1"), ("/b.gif", "s2"), ("/c.html", "s2"))
#: (url, version, client ip): HTTP/1.1 and HTTP/1.0 connections on both
#: backends, so both FIN orders run
MIX = (("/a.html", HttpVersion.HTTP_1_1, "10.0.2.1"),
       ("/b.gif", HttpVersion.HTTP_1_0, "10.0.2.2"),
       ("/c.html", HttpVersion.HTTP_1_1, "10.0.2.3"),
       ("/a.html", HttpVersion.HTTP_1_0, "10.0.2.4"))
PREFORK = 2


def run_mix(traced: bool):
    sim = Simulator()
    tracer = Tracer().attach(sim) if traced else None
    net = Network(sim)
    dist, table, _served = build(sim, net, backends=("s1", "s2"),
                                 prefork=PREFORK)
    for path, node in DOCS:
        table.insert(ContentItem(path, 1000, ContentType.HTML), {node})
    results = [client_fetch(sim, net, url, version=version,
                            client_ip=ip)[1]
               for url, version, ip in MIX]
    sim.run()
    observed = {
        "completions": [(r["response"].request.url, r["response"].served_by,
                         r["nbytes"]) for r in results],
        "relayed_to_server": dist.relayed_to_server,
        "relayed_to_client": dist.relayed_to_client,
        "segments_sent": net.segments_sent,
        "now": sim.now,
        "events": sim.event_count,
    }
    return observed, dist, tracer


def test_traced_run_matches_untraced():
    plain, _, _ = run_mix(traced=False)
    traced, _, _ = run_mix(traced=True)
    assert len(plain["completions"]) == len(MIX)
    assert traced == plain


def test_trace_records_splice_and_leg_points():
    _, dist, tracer = run_mix(traced=True)
    splice = tracer.find_events(kind="splice")
    assert splice and all(e.trace_id is not None for e in splice)
    # one trace per client connection, from the splicer's new_trace()
    assert sorted({e.trace_id for e in splice}) == \
        list(range(1, len(MIX) + 1))
    assert dist.mapping.created == len(MIX)
    legs = tracer.find_events(kind="leg")
    names = sorted(e.name for e in legs)
    n_legs = 2 * PREFORK
    assert names == (["CLOSED->SYN_SENT"] * n_legs
                     + ["SYN_SENT->ESTABLISHED"] * n_legs)
    assert {e.node for e in legs} == {"s1", "s2"}
