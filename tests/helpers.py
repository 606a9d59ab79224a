"""Graphs and closed forms shared by the test modules.

``tests/test_acceptance.py`` keeps its own random graph generator, whose
ranges differ from :func:`random_graph` on purpose.
"""
from importlib import resources

import numpy as np

from artifact import boundary
from artifact import graph as graphmod
from artifact.boundary import kirchhoff_standard
from artifact.document import GraphDocument, loads_document
from artifact.graph import MetricGraph, Vertex, ext_ref, int_ref

_FIXTURES = resources.files("artifact") / "fixtures"


def fixture(name: str) -> GraphDocument:
    return loads_document((_FIXTURES / name).read_text("utf-8"))


def fixture_gbc(name: str):
    return graphmod.assemble(fixture(name).to_graph())


def ring(a=1.0):
    """Two vertices joined by two parallel edges, one external line each."""
    v0 = Vertex((ext_ref("l1"), int_ref("i1", "0"), int_ref("i2", "0")),
                kirchhoff_standard(3))
    v1 = Vertex((ext_ref("l2"), int_ref("i1", "a"), int_ref("i2", "a")),
                kirchhoff_standard(3))
    return MetricGraph(("l1", "l2"), (("i1", a), ("i2", a)), (v0, v1))


def tadpole(a=1.0):
    v = Vertex((ext_ref("l1"), int_ref("loop", "0"), int_ref("loop", "a")),
               kirchhoff_standard(3))
    return MetricGraph(("l1",), (("loop", a),), (v,))


def random_graph(rng):
    """Two clusters of random couplings joined by bridge edges (a valid cut)."""
    n_left = int(rng.integers(1, 3))
    n_right = int(rng.integers(0, 3))
    bridges = int(rng.integers(1, 3))
    with_tadpole = bool(rng.integers(0, 2))
    externals = [f"l{i}" for i in range(n_left)] + [f"r{i}" for i in range(n_right)]
    internals = [(f"b{i}", float(rng.uniform(0.2, 3.0))) for i in range(bridges)]
    left_eps = [ext_ref(f"l{i}") for i in range(n_left)]
    left_eps += [int_ref(f"b{i}", "0") for i in range(bridges)]
    if with_tadpole:
        internals.append(("t0", float(rng.uniform(0.2, 3.0))))
        left_eps += [int_ref("t0", "0"), int_ref("t0", "a")]
    right_eps = [ext_ref(f"r{i}") for i in range(n_right)]
    right_eps += [int_ref(f"b{i}", "a") for i in range(bridges)]
    vertices = (
        Vertex(tuple(left_eps), boundary.random_bc(len(left_eps), rng)),
        Vertex(tuple(right_eps), boundary.random_bc(len(right_eps), rng)),
    )
    g = MetricGraph(tuple(externals), tuple(internals), vertices)
    return g, [i for i, _ in internals if i.startswith("b")]


def sl2_closed_form(a, b, c, d, mu, e):
    k = np.sqrt(e)
    den = a - 1j * k * b + 1j * c / k + d
    return np.array([
        [a - 1j * k * b - 1j * c / k - d, 2.0 * np.exp(1j * mu)],
        [2.0 * np.exp(-1j * mu), -a - 1j * k * b - 1j * c / k + d],
    ]) / den
