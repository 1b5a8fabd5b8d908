"""Mesh topology: nodes, radio links, connectivity, coverage.

The physical layer of the community-network model.  Nodes are gateways
(backhaul uplinks), relays, or CPE; links form between nodes within
radio range; a node has service only while it can reach an *up* gateway
through *up* nodes.  Coverage asks the complementary question: which
member locations are within range of a serving node at all — the siting
question participatory deployment gets right and top-down siting gets
wrong (experiment E8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.topology import Location, distance_km

NODE_KINDS = ("gateway", "relay", "cpe")


@dataclass
class MeshNode:
    """One mesh device.

    Attributes:
        node_id: Unique id.
        location: Placement.
        kind: "gateway", "relay", or "cpe".
        up: Whether the device is currently operational.
        installed_month: Simulation month the node went in.
    """

    node_id: str
    location: Location
    kind: str = "relay"
    up: bool = True
    installed_month: int = 0

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind: {self.kind!r}")


class MeshNetwork:
    """A set of mesh nodes with distance-threshold radio links.

    Example:
        >>> net = MeshNetwork(radio_range_km=1.0)
        >>> net.add_node(MeshNode("gw", Location(0, 0), kind="gateway"))
        >>> net.add_node(MeshNode("n1", Location(0.5, 0)))
        >>> net.has_service("n1")
        True
    """

    def __init__(self, radio_range_km: float = 1.0) -> None:
        if radio_range_km <= 0:
            raise ValueError("radio_range_km must be positive")
        self.radio_range_km = radio_range_km
        self._nodes: dict[str, MeshNode] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def add_node(self, node: MeshNode) -> None:
        """Add a node; rejects duplicate ids."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id: {node.node_id!r}")
        self._nodes[node.node_id] = node

    def node(self, node_id: str) -> MeshNode:
        """Node by id (KeyError when absent)."""
        return self._nodes[node_id]

    def nodes(self, kind: str | None = None, up_only: bool = False) -> list[MeshNode]:
        """Nodes filtered by kind and/or up state, sorted by id."""
        return sorted(
            (
                n
                for n in self._nodes.values()
                if (kind is None or n.kind == kind) and (not up_only or n.up)
            ),
            key=lambda n: n.node_id,
        )

    def neighbors(self, node_id: str, up_only: bool = True) -> list[str]:
        """Ids of nodes in radio range of ``node_id`` (excluding itself)."""
        origin = self._nodes[node_id]
        return sorted(
            other.node_id
            for other in self._nodes.values()
            if other.node_id != node_id
            and (not up_only or other.up)
            and distance_km(origin.location, other.location)
            <= self.radio_range_km
        )

    def connected_node_ids(self) -> set[str]:
        """Ids of up nodes that can reach an up gateway through up nodes."""
        gateways = [
            n.node_id for n in self._nodes.values() if n.kind == "gateway" and n.up
        ]
        reached: set[str] = set()
        frontier = list(gateways)
        reached.update(gateways)
        while frontier:
            current = frontier.pop()
            for neighbor in self.neighbors(current, up_only=True):
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        return reached

    def has_service(self, node_id: str) -> bool:
        """True when ``node_id`` is up and gateway-connected."""
        node = self._nodes[node_id]
        return node.up and node.node_id in self.connected_node_ids()

    def service_share(self) -> float:
        """Fraction of all nodes currently holding service."""
        if not self._nodes:
            return 0.0
        connected = self.connected_node_ids()
        return len(connected) / len(self._nodes)

    def covers(self, location: Location) -> bool:
        """True when some *serving* node is within radio range of ``location``."""
        connected = self.connected_node_ids()
        return any(
            distance_km(self._nodes[nid].location, location)
            <= self.radio_range_km
            for nid in connected
        )

    def coverage_share(self, locations: list[Location]) -> float:
        """Fraction of ``locations`` within range of a serving node."""
        if not locations:
            return 1.0
        connected = self.connected_node_ids()
        serving = [self._nodes[nid].location for nid in connected]
        covered = 0
        for location in locations:
            if any(
                distance_km(s, location) <= self.radio_range_km for s in serving
            ):
                covered += 1
        return covered / len(locations)

    def articulation_nodes(self) -> set[str]:
        """Up nodes whose single failure disconnects some served node.

        The maintenance-priority set: a participatory operation knows
        these are the hills to defend.
        """
        baseline = self.connected_node_ids()
        critical: set[str] = set()
        for node in self.nodes(up_only=True):
            node.up = False
            try:
                if len(self.connected_node_ids()) < len(baseline) - 1:
                    critical.add(node.node_id)
            finally:
                node.up = True
        return critical
