"""The :class:`Network` container.

A :class:`Network` is an ordered collection of PoPs and directed links.  The
orders are significant: the routing matrix ``A`` (paper §4.1) indexes its
rows by link position and its columns by OD-flow position, and the
measurement matrix ``Y`` indexes its columns by link position.  Insertion
order is therefore preserved and exposed through ``link_index`` /
``pop_index`` lookups.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.exceptions import TopologyError
from repro.topology.link import Link, LinkKind
from repro.topology.node import PoP

if TYPE_CHECKING:
    # The methods that build graphs import networkx and scipy themselves,
    # so loading a topology loads neither.
    from networkx import DiGraph
    from scipy.sparse import csr_array

__all__ = ["Network"]


class Network:
    """A directed backbone network of PoPs and links.

    Examples
    --------
    >>> from repro.topology import Network, PoP, Link
    >>> net = Network("demo")
    >>> net.add_pop(PoP("a"))
    >>> net.add_pop(PoP("b"))
    >>> net.add_link(Link("a", "b"))
    >>> net.num_links
    1
    """

    def __init__(self, name: str = "network") -> None:
        if not name:
            raise TopologyError("network name must be non-empty")
        self.name = name
        self._pops: dict[str, PoP] = {}
        self._links: list[Link] = []
        self._link_positions: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_pop(self, pop: PoP) -> None:
        """Register a PoP.  Names must be unique within the network."""
        if pop.name in self._pops:
            raise TopologyError(f"duplicate PoP name: {pop.name!r}")
        self._pops[pop.name] = pop

    def add_link(self, link: Link) -> None:
        """Register a directed link between already-registered PoPs."""
        for endpoint in (link.source, link.target):
            if endpoint not in self._pops:
                raise TopologyError(
                    f"link {link.name} references unknown PoP {endpoint!r}"
                )
        if link.name in self._link_positions:
            raise TopologyError(f"duplicate link: {link.name}")
        self._link_positions[link.name] = len(self._links)
        self._links.append(link)

    def add_bidirectional(
        self,
        source: str,
        target: str,
        capacity_bps: float | None = None,
        weight: float = 1.0,
    ) -> None:
        """Add both directions of an inter-PoP link with shared attributes."""
        kwargs = {"weight": weight}
        if capacity_bps is not None:
            kwargs["capacity_bps"] = capacity_bps
        self.add_link(Link(source, target, **kwargs))
        self.add_link(Link(target, source, **kwargs))

    def add_intra_pop_links(self, capacity_bps: float | None = None) -> None:
        """Add one intra-PoP self-link per PoP, in PoP insertion order.

        The paper counts these in its link totals (49 for Sprint, 41 for
        Abilene; §3 footnote 2).  They carry only the OD flows whose origin
        and destination PoP coincide.
        """
        for pop in self.pops:
            kwargs = {"kind": LinkKind.INTRA_POP}
            if capacity_bps is not None:
                kwargs["capacity_bps"] = capacity_bps
            self.add_link(Link(pop.name, pop.name, **kwargs))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def pops(self) -> list[PoP]:
        """PoPs in insertion order."""
        return list(self._pops.values())

    @property
    def pop_names(self) -> list[str]:
        """PoP names in insertion order."""
        return list(self._pops.keys())

    @property
    def links(self) -> list[Link]:
        """Links in insertion order (defines routing-matrix row order)."""
        return list(self._links)

    @property
    def inter_pop_links(self) -> list[Link]:
        """Only the links connecting distinct PoPs, in insertion order."""
        return [link for link in self._links if not link.is_intra_pop]

    @property
    def intra_pop_links(self) -> list[Link]:
        """Only the self-links, in insertion order."""
        return [link for link in self._links if link.is_intra_pop]

    @property
    def num_pops(self) -> int:
        """Number of PoPs."""
        return len(self._pops)

    @property
    def num_links(self) -> int:
        """Total number of directed links, intra-PoP links included."""
        return len(self._links)

    def pop(self, name: str) -> PoP:
        """Return the PoP called ``name``."""
        try:
            return self._pops[name]
        except KeyError:
            raise TopologyError(f"unknown PoP: {name!r}") from None

    def has_pop(self, name: str) -> bool:
        """True when a PoP called ``name`` exists."""
        return name in self._pops

    def pop_index(self, name: str) -> int:
        """Insertion position of PoP ``name``."""
        try:
            return self.pop_names.index(name)
        except ValueError:
            raise TopologyError(f"unknown PoP: {name!r}") from None

    def link(self, name: str) -> Link:
        """Return the link with canonical name ``name`` (e.g. ``"a->b"``)."""
        try:
            return self._links[self._link_positions[name]]
        except KeyError:
            raise TopologyError(f"unknown link: {name!r}") from None

    def has_link(self, name: str) -> bool:
        """True when a link with canonical name ``name`` exists."""
        return name in self._link_positions

    def link_index(self, name: str) -> int:
        """Insertion position of link ``name`` (routing-matrix row index)."""
        try:
            return self._link_positions[name]
        except KeyError:
            raise TopologyError(f"unknown link: {name!r}") from None

    def link_between(self, source: str, target: str) -> Link:
        """Return the directed inter-PoP link ``source -> target``."""
        return self.link(f"{source}->{target}")

    def intra_pop_link(self, pop_name: str) -> Link:
        """Return the intra-PoP self-link at ``pop_name``."""
        return self.link(f"{pop_name}={pop_name}")

    def neighbors(self, pop_name: str) -> list[str]:
        """PoPs reachable from ``pop_name`` over one inter-PoP link."""
        self.pop(pop_name)
        return [
            link.target
            for link in self._links
            if link.source == pop_name and not link.is_intra_pop
        ]

    def out_links(self, pop_name: str) -> list[Link]:
        """Inter-PoP links leaving ``pop_name``, in insertion order."""
        self.pop(pop_name)
        return [
            link
            for link in self._links
            if link.source == pop_name and not link.is_intra_pop
        ]

    def degree(self, pop_name: str) -> int:
        """Out-degree of ``pop_name`` counting only inter-PoP links."""
        return len(self.out_links(pop_name))

    # ------------------------------------------------------------------
    # OD flows
    # ------------------------------------------------------------------
    @property
    def od_pairs(self) -> list[tuple[str, str]]:
        """All (origin, destination) PoP pairs, *including* same-PoP pairs.

        Ordered origin-major by PoP insertion order; this order defines the
        routing-matrix column order and the OD-flow traffic matrix column
        order everywhere in the library.
        """
        names = self.pop_names
        return [(origin, destination) for origin in names for destination in names]

    @property
    def num_od_pairs(self) -> int:
        """Number of OD flows (``num_pops ** 2``)."""
        return self.num_pops**2

    def od_index(self, origin: str, destination: str) -> int:
        """Column index of the OD flow ``origin -> destination``."""
        return self.pop_index(origin) * self.num_pops + self.pop_index(destination)

    def od_pair(self, index: int) -> tuple[str, str]:
        """Inverse of :meth:`od_index`."""
        if not 0 <= index < self.num_od_pairs:
            raise TopologyError(
                f"OD index {index} out of range [0, {self.num_od_pairs})"
            )
        names = self.pop_names
        return names[index // self.num_pops], names[index % self.num_pops]

    # ------------------------------------------------------------------
    # Interop / dunder
    # ------------------------------------------------------------------
    def to_networkx(self, include_intra_pop: bool = False) -> DiGraph:
        """Export as a :class:`networkx.DiGraph` with link attributes.

        Intra-PoP self-links are excluded by default because most graph
        algorithms (shortest path, connectivity) should ignore them.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for pop in self.pops:
            graph.add_node(pop.name, city=pop.city, population=pop.population)
        for link in self._links:
            if link.is_intra_pop and not include_intra_pop:
                continue
            graph.add_edge(
                link.source,
                link.target,
                weight=link.weight,
                capacity_bps=link.capacity_bps,
                kind=link.kind.value,
            )
        return graph

    def inter_pop_adjacency(self) -> csr_array:
        """``(p, p)`` sparse adjacency of the inter-PoP links.

        Entry ``(i, j)`` is 1 when a link runs from PoP ``i`` to PoP
        ``j`` (insertion order); intra-PoP self-links are left out, as
        in :meth:`to_networkx`.
        """
        import numpy as np
        from scipy.sparse import csr_array

        index = {name: position for position, name in enumerate(self._pops)}
        links = self.inter_pop_links
        sources = [index[link.source] for link in links]
        targets = [index[link.target] for link in links]
        return csr_array(
            (np.ones(len(links)), (sources, targets)),
            shape=(self.num_pops, self.num_pops),
        )

    def is_connected(self) -> bool:
        """True when every PoP can reach every other PoP over inter-PoP links."""
        if self.num_pops <= 1:
            return True
        from scipy.sparse.csgraph import connected_components

        count, _ = connected_components(
            self.inter_pop_adjacency(), directed=True, connection="strong"
        )
        return count == 1

    def __contains__(self, name: str) -> bool:
        return self.has_pop(name) or self.has_link(name)

    def __iter__(self) -> Iterator[PoP]:
        return iter(self.pops)

    def __len__(self) -> int:
        return self.num_pops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(name={self.name!r}, pops={self.num_pops}, "
            f"links={self.num_links})"
        )

    @classmethod
    def from_edges(
        cls,
        name: str,
        pop_names: Iterable[str],
        edges: Iterable[tuple[str, str]],
        with_intra_pop: bool = True,
    ) -> "Network":
        """Build a network from undirected edge pairs.

        Each edge ``(a, b)`` becomes two directed links ``a->b`` and
        ``b->a`` with default attributes; intra-PoP self-links are appended
        afterwards unless disabled.
        """
        network = cls(name)
        for pop_name in pop_names:
            network.add_pop(PoP(pop_name))
        for source, target in edges:
            network.add_bidirectional(source, target)
        if with_intra_pop:
            network.add_intra_pop_links()
        return network
