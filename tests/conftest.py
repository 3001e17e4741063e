import pytest
from hypothesis import settings

from fiberwalk.families import K2NShape, cycle_graph, k2n_graph
from fiberwalk.graphs import LabeledGraph

# property tests draw the same examples on every run and never time out
settings.register_profile("fiberwalk", derandomize=True, deadline=None)
settings.load_profile("fiberwalk")


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
