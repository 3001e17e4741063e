import json

import pytest
from hypothesis import settings

from fiberwalk import latin
from fiberwalk.cones import cone_facets
from fiberwalk.families import K2NShape, cycle_graph, k2n_graph
from fiberwalk.graphs import LabeledGraph, margin_map
from fiberwalk.presets import resolve

# property tests draw the same examples on every run and never time out
settings.register_profile("fiberwalk", derandomize=True, deadline=None)
settings.load_profile("fiberwalk")


def dump(obj, path: str) -> None:
    """Writes obj to path as indented JSON, the way a person might write an input file."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="session")
def c4():
    return cycle_graph(4)


@pytest.fixture(scope="session")
def c5():
    return cycle_graph(5)


@pytest.fixture(scope="session")
def k3():
    return LabeledGraph.build(3, [(1, 2), (2, 3), (1, 3)], [2, 2, 2])


@pytest.fixture(scope="session")
def k23_shape():
    return K2NShape((2, 2, 2))


@pytest.fixture(scope="session")
def k23(k23_shape):
    return k2n_graph(k23_shape)


@pytest.fixture(scope="session")
def k22_shape():
    return K2NShape((2, 2))


@pytest.fixture(scope="session")
def k22(k22_shape):
    return k2n_graph(k22_shape)


@pytest.fixture(scope="session")
def preset_facets():
    """preset_facets(name): the facets of a preset's marginal cone, built at
    most once per session (seth-c4-3 alone takes about a second).
    test_preset_facet_lists_are_pinned pins every list this returns."""
    built = {}

    def facets(name):
        if name not in built:
            built[name] = cone_facets(margin_map(resolve(name).graph))
        return built[name]

    return facets


@pytest.fixture
def shared_seth_cone(monkeypatch, preset_facets):
    """latin.verify_disconnection takes the seth-c4-3 (level-3 4-cycle) facets
    from preset_facets instead of rebuilding them."""
    seth = resolve("seth-c4-3").graph

    def facets(am):
        return preset_facets("seth-c4-3") if am.graph == seth else cone_facets(am)

    monkeypatch.setattr(latin, "cone_facets", facets)
