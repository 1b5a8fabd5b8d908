"""Path-vector route propagation.

A deterministic fixed-point computation of the routes every AS selects
under the Gao–Rexford policy of :mod:`repro.netsim.bgp.policy`.  One
prefix per AS (identified by the origin ASN) is enough for the locality
questions the case studies ask.

:func:`propagate_routes` relaxes to a fixed point: each round, every AS
keeps the most preferred of the routes its neighbors' policies export
to it, until a round changes nothing (at most ``2 * len(graph) + 10``
rounds).  On policy-consistent (cycle-free) graphs that is the unique
stable solution.  A round costs O(E) per prefix, a run O(rounds * E).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.bgp.asys import ASGraph, Relationship
from repro.netsim.bgp.policy import route_preference_key, should_export


@dataclass(frozen=True, slots=True)
class Route:
    """A selected route at some AS.

    Attributes:
        origin: Origin ASN (the prefix).
        path: AS path from this AS to the origin, next hop first and
            origin last; empty for the origin's own route.
        learned_from: Relationship of the neighbor that announced it;
            None for the origin itself.
    """

    origin: int
    path: tuple[int, ...]
    learned_from: Relationship | None

    @property
    def path_length(self) -> int:
        """Number of AS hops to the origin."""
        return len(self.path)


class RoutingTable:
    """Best route per (AS, origin) after propagation."""

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph
        self._best: dict[int, dict[int, Route]] = {asn: {} for asn in graph.asns()}

    def set_route(self, asn: int, route: Route) -> None:
        """Install ``route`` as ``asn``'s best route to ``route.origin``."""
        self._best[asn][route.origin] = route

    def route(self, asn: int, origin: int) -> Route | None:
        """Best route at ``asn`` toward ``origin`` (None if unreachable)."""
        return self._best[asn].get(origin)

    def full_path(self, source: int, origin: int) -> tuple[int, ...] | None:
        """Complete AS-level path ``source .. origin`` (inclusive).

        None when ``source`` has no route to ``origin``.
        """
        if source == origin:
            return (source,)
        route = self.route(source, origin)
        if route is None:
            return None
        return (source,) + route.path

    def reachable_origins(self, asn: int) -> list[int]:
        """Origins ``asn`` can reach, ascending (includes itself)."""
        return sorted(set(self._best[asn]) | {asn})


def _consider(
    table: dict[int, Route],
    asn: int,
    origin: int,
    candidate: Route,
) -> bool:
    """Install ``candidate`` if it beats the current best; True on change."""
    if asn in candidate.path:
        return False  # loop prevention
    current = table.get(origin)
    if current is None:
        table[origin] = candidate
        return True
    if route_preference_key(candidate.learned_from, candidate.path) < (
        route_preference_key(current.learned_from, current.path)
    ):
        table[origin] = candidate
        return True
    return False


def propagate_routes(graph: ASGraph, origins: list[int] | None = None) -> RoutingTable:
    """Compute every AS's best routes to ``origins`` (default: all ASes).

    Uses iterative relaxation to a fixed point.  For graphs whose
    customer-provider hierarchy is acyclic (check with
    :meth:`~repro.netsim.bgp.asys.ASGraph.validate_hierarchy`) the fixed
    point is the unique Gao–Rexford stable routing.

    Raises RuntimeError if the relaxation fails to converge (possible
    only with policy-inconsistent inputs).
    """
    origin_list = origins if origins is not None else graph.asns()
    unknown = [o for o in origin_list if o not in graph]
    if unknown:
        raise KeyError(f"unknown origin ASNs: {unknown}")

    best: dict[int, dict[int, Route]] = {asn: {} for asn in graph.asns()}
    for origin in origin_list:
        best[origin][origin] = Route(origin, (), None)

    max_rounds = 2 * len(graph) + 10
    for _ in range(max_rounds):
        changed = False
        for asn in graph.asns():
            neighbor_rels = graph.neighbors(asn)
            for neighbor, rel_of_neighbor in sorted(neighbor_rels.items()):
                # What does `neighbor` export to `asn`?  From the
                # neighbor's perspective, `asn` has the inverse relation.
                neighbors_view_of_asn = rel_of_neighbor.inverse()
                for origin, route in list(best[neighbor].items()):
                    if not should_export(route.learned_from, neighbors_view_of_asn):
                        continue
                    candidate = Route(
                        origin=origin,
                        path=(neighbor,) + route.path,
                        learned_from=rel_of_neighbor,
                    )
                    if _consider(best[asn], asn, origin, candidate):
                        changed = True
        if not changed:
            table = RoutingTable(graph)
            for asn, routes in best.items():
                for route in routes.values():
                    if route.origin != asn:
                        table.set_route(asn, route)
            return table
    raise RuntimeError(
        "route propagation did not converge; check validate_hierarchy()"
    )
