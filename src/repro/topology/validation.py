"""Structural validation of networks.

:func:`check_network` enforces the invariants the rest of the library
assumes; it is called by dataset builders before any traffic is generated so
that configuration mistakes fail fast with a clear message.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import TopologyError
from repro.topology.network import Network

__all__ = ["check_network", "connectivity_report", "ConnectivityReport"]


@dataclass(frozen=True, slots=True)
class ConnectivityReport:
    """Summary of a network's connectivity structure."""

    is_connected: bool
    num_components: int
    largest_component_size: int
    isolated_pops: tuple[str, ...]
    diameter: int | None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        state = "connected" if self.is_connected else "DISCONNECTED"
        return (
            f"{state}: {self.num_components} component(s), largest "
            f"{self.largest_component_size}, diameter {self.diameter}"
        )


def check_network(
    network: Network,
    require_connected: bool = True,
    require_intra_pop: bool = False,
    require_symmetric: bool = True,
) -> None:
    """Validate structural invariants, raising :class:`TopologyError` on failure.

    Parameters
    ----------
    network:
        The network to check.
    require_connected:
        Every PoP must reach every other PoP over inter-PoP links.
    require_intra_pop:
        Every PoP must own exactly one intra-PoP self-link (needed when
        same-PoP OD flows will carry traffic).
    require_symmetric:
        Every inter-PoP link must have a reverse link (backbones in the
        paper are bidirectional).
    """
    if network.num_pops == 0:
        raise TopologyError("network has no PoPs")

    if require_symmetric:
        for link in network.inter_pop_links:
            reverse = f"{link.target}->{link.source}"
            if not network.has_link(reverse):
                raise TopologyError(
                    f"link {link.name} has no reverse link {reverse}; the "
                    "backbone model assumes bidirectional connectivity"
                )

    if require_intra_pop:
        intra_sources = {link.source for link in network.intra_pop_links}
        missing = [name for name in network.pop_names if name not in intra_sources]
        if missing:
            raise TopologyError(
                "PoPs missing intra-PoP self-links: " + ", ".join(sorted(missing))
            )
        if len(network.intra_pop_links) != network.num_pops:
            raise TopologyError("each PoP must own exactly one intra-PoP link")

    if require_connected and not network.is_connected():
        report = connectivity_report(network)
        raise TopologyError(
            f"network {network.name!r} is not strongly connected: {report}"
        )


def connectivity_report(network: Network) -> ConnectivityReport:
    """Compute a :class:`ConnectivityReport` over the inter-PoP graph.

    Strongly connected components come from
    ``scipy.sparse.csgraph.connected_components``, the diameter (in
    hops) from an unweighted all-pairs ``shortest_path``.
    """
    import numpy as np
    from scipy.sparse.csgraph import connected_components, shortest_path

    adjacency = network.inter_pop_adjacency()
    count, largest = 0, 0
    if network.num_pops:
        count, labels = connected_components(
            adjacency, directed=True, connection="strong"
        )
        largest = int(np.bincount(labels).max())
    degree = adjacency.sum(axis=0) + adjacency.sum(axis=1)
    isolated = tuple(
        sorted(
            name
            for name, links in zip(network.pop_names, degree.tolist())
            if links == 0
        )
    )
    is_connected = count == 1 and largest == network.num_pops
    diameter: int | None = None
    if is_connected and network.num_pops > 1:
        hops = shortest_path(adjacency, directed=True, unweighted=True)
        diameter = int(hops.max())
    return ConnectivityReport(
        is_connected=is_connected,
        num_components=int(count),
        largest_component_size=largest,
        isolated_pops=isolated,
        diameter=diameter,
    )
