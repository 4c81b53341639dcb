"""Tests for repro.topology.validation (networkx is the graph oracle)."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import TopologyError
from repro.topology import Link, LinkKind, Network, PoP
from repro.topology.validation import check_network, connectivity_report


def asymmetric_net() -> Network:
    net = Network("asym")
    net.add_pop(PoP("a"))
    net.add_pop(PoP("b"))
    net.add_link(Link("a", "b"))
    return net


class TestCheckNetwork:
    def test_passes_on_well_formed(self, toy_net):
        check_network(toy_net, require_intra_pop=True)

    def test_empty_network_rejected(self):
        with pytest.raises(TopologyError):
            check_network(Network("empty"))

    def test_missing_reverse_link_detected(self):
        with pytest.raises(TopologyError, match="no reverse"):
            check_network(asymmetric_net(), require_connected=False)

    def test_asymmetric_allowed_when_disabled(self):
        check_network(
            asymmetric_net(), require_connected=False, require_symmetric=False
        )

    def test_missing_intra_pop_detected(self):
        net = Network.from_edges("n", ["a", "b"], [("a", "b")], with_intra_pop=False)
        with pytest.raises(TopologyError, match="intra-PoP"):
            check_network(net, require_intra_pop=True)

    def test_disconnected_detected(self):
        net = Network.from_edges("split", ["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        with pytest.raises(TopologyError, match="not strongly connected"):
            check_network(net)

    def test_disconnected_allowed_when_disabled(self):
        net = Network.from_edges("split", ["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        check_network(net, require_connected=False)


class TestConnectivityReport:
    def test_connected_network(self, toy_net):
        report = connectivity_report(toy_net)
        assert report.is_connected
        assert report.num_components == 1
        assert report.largest_component_size == 4
        assert report.isolated_pops == ()
        assert report.diameter == 2

    def test_disconnected_network(self):
        net = Network.from_edges("split", ["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        report = connectivity_report(net)
        assert not report.is_connected
        assert report.num_components == 2
        assert report.largest_component_size == 2
        assert report.diameter is None

    def test_isolated_pop_reported(self):
        net = Network.from_edges("iso", ["a", "b", "c"], [("a", "b")])
        report = connectivity_report(net)
        assert report.isolated_pops == ("c",)

    def test_str_rendering(self, toy_net):
        text = str(connectivity_report(toy_net))
        assert "connected" in text


@st.composite
def digraphs(draw):
    """A random network: directed inter-PoP links, some PoPs isolated,
    some with an intra-PoP self-link (which connectivity ignores)."""
    count = draw(st.integers(1, 8))
    names = [f"p{i}" for i in range(count)]
    pairs = [(a, b) for a in names for b in names if a != b]
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    intra = draw(st.lists(st.sampled_from(names), unique=True))
    net = Network("random")
    for name in names:
        net.add_pop(PoP(name))
    for source, target in links:
        net.add_link(Link(source, target))
    for name in intra:
        net.add_link(Link(name, name, kind=LinkKind.INTRA_POP))
    return net


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_connectivity_report_matches_networkx(net):
    """The scipy report equals the networkx one on any digraph:
    connected or not, component count, largest component, isolated
    PoPs and diameter; ``Network.is_connected`` agrees."""
    graph = net.to_networkx()
    components = list(nx.strongly_connected_components(graph))
    connected = nx.is_strongly_connected(graph)
    report = connectivity_report(net)
    assert report.is_connected == connected
    assert net.is_connected() == connected
    assert report.num_components == len(components)
    assert report.largest_component_size == max(map(len, components))
    assert report.isolated_pops == tuple(
        sorted(name for name in graph if graph.degree(name) == 0)
    )
    expected = nx.diameter(graph) if connected and len(graph) > 1 else None
    assert report.diameter == expected
