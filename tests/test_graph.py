from importlib import resources

import numpy as np
import pytest
from numpy.testing import assert_allclose

from artifact import boundary, cli, graph, numkernel, scattering, selftest
from artifact.boundary import (BoundaryCondition, InvalidBoundaryCondition,
                               InvalidParameters, kirchhoff_standard, random_bc)
from artifact.graph import (InvalidGraph, MetricGraph, NotACut, UnknownEdge,
                            Vertex, assemble, cut, ext_ref, insert_trivial_vertex,
                            int_ref, trivial_vertex_bc)


def _ring(a=1.0):
    """Two vertices joined by two parallel edges, one external line each."""
    v0 = Vertex((ext_ref("l1"), int_ref("i1", "0"), int_ref("i2", "0")),
                kirchhoff_standard(3))
    v1 = Vertex((ext_ref("l2"), int_ref("i1", "a"), int_ref("i2", "a")),
                kirchhoff_standard(3))
    return MetricGraph(("l1", "l2"), (("i1", a), ("i2", a)), (v0, v1))


def _tadpole(a=1.0):
    v = Vertex((ext_ref("l1"), int_ref("loop", "0"), int_ref("loop", "a")),
               kirchhoff_standard(3))
    return MetricGraph(("l1",), (("loop", a),), (v,))


def test_endpoint_reference_helpers():
    assert ext_ref("x") == ("ext", "x")
    assert int_ref("e", "0") == ("int", "e", "0")
    assert int_ref("e", "a") == ("int", "e", "a")
    with pytest.raises(ValueError):
        int_ref("e", "b")


def test_counts_lengths_tadpole_queries():
    g = _ring(2.5)
    assert g.n == 2 and g.m == 2
    assert g.length("i1") == 2.5
    assert not g.is_tadpole("i1")
    assert _tadpole().is_tadpole("loop")
    with pytest.raises(UnknownEdge):
        g.length("nope")
    with pytest.raises(UnknownEdge):
        g.is_tadpole("nope")


def test_graph_validation_rejects_bad_wiring():
    v_ok = Vertex((ext_ref("l1"),), boundary.neumann(1))
    # dangling internal endpoints
    with pytest.raises(InvalidGraph):
        MetricGraph(("l1",), (("i1", 1.0),), (v_ok,))
    # unknown endpoint reference
    with pytest.raises(InvalidGraph):
        MetricGraph((), (("i1", 1.0),),
                    (Vertex((int_ref("i1", "0"), int_ref("i2", "a")),
                            boundary.neumann(2)),))
    # one endpoint claimed twice
    with pytest.raises(InvalidGraph):
        MetricGraph(("l1",), (),
                    (Vertex((ext_ref("l1"),), boundary.neumann(1)),
                     Vertex((ext_ref("l1"),), boundary.neumann(1))))
    # duplicate line ids
    with pytest.raises(InvalidGraph):
        MetricGraph(("l1", "l1"), (), (v_ok, v_ok))
    # nonpositive length
    with pytest.raises(InvalidGraph):
        MetricGraph((), (("i1", 0.0),),
                    (Vertex((int_ref("i1", "0"), int_ref("i1", "a")),
                            boundary.neumann(2)),))


def test_vertex_validation():
    with pytest.raises(InvalidGraph):
        Vertex((), boundary.neumann(1))
    with pytest.raises(InvalidGraph):
        Vertex((ext_ref("l1"),), boundary.neumann(2))  # size mismatch
    with pytest.raises(InvalidGraph):
        Vertex((("int", "i1"),), boundary.neumann(1))  # malformed reference


def test_assemble_ring_explicit_layout():
    gbc = assemble(_ring())
    assert gbc.n == 2 and gbc.m == 2 and gbc.lengths == (1.0, 1.0)
    # columns: l1, l2, i1:0, i2:0, i1:a, i2:a
    expected_a = np.zeros((6, 6), dtype=complex)
    expected_b = np.zeros((6, 6), dtype=complex)
    expected_a[0, 0], expected_a[0, 2] = 1, -1
    expected_a[1, 2], expected_a[1, 3] = 1, -1
    expected_b[2, [0, 2, 3]] = 1
    expected_a[3, 1], expected_a[3, 4] = 1, -1
    expected_a[4, 4], expected_a[4, 5] = 1, -1
    expected_b[5, [1, 4, 5]] = 1
    assert_allclose(gbc.bc.A, expected_a)
    assert_allclose(gbc.bc.B, expected_b)


def test_assemble_respects_endpoint_order_within_vertex():
    bc = random_bc(3, 7)
    v = Vertex((int_ref("i1", "a"), ext_ref("l1"), int_ref("i1", "0")), bc)
    gbc = assemble(MetricGraph(("l1",), (("i1", 1.0),), (v,)))
    # global columns: l1 -> 0, i1:0 -> 1, i1:a -> 2
    assert_allclose(gbc.bc.A[:, [2, 0, 1]], bc.A)
    assert_allclose(gbc.bc.B[:, [2, 0, 1]], bc.B)


def test_assemble_names_offending_vertex():
    bad = BoundaryCondition(np.zeros((1, 1)), np.zeros((1, 1)))
    g = MetricGraph(("l1", "l2"), (),
                    (Vertex((ext_ref("l1"),), boundary.neumann(1)),
                     Vertex((ext_ref("l2"),), bad)))
    with pytest.raises(InvalidBoundaryCondition, match="vertex 1"):
        assemble(g)


def test_global_bc_consistency_checks():
    gbc = assemble(_ring())
    with pytest.raises(InvalidGraph):
        graph.GlobalBC(n=2, m=2, lengths=(1.0,), bc=gbc.bc)
    with pytest.raises(InvalidGraph):
        graph.GlobalBC(n=2, m=2, lengths=(1.0, -1.0), bc=gbc.bc)
    with pytest.raises(InvalidGraph):
        graph.GlobalBC(n=3, m=2, lengths=(1.0, 1.0), bc=gbc.bc)


def test_trivial_vertex_is_transparent_on_a_line():
    # two external lines joined by the trivial vertex: pure transmission
    g = MetricGraph(("l1", "l2"), (),
                    (Vertex((ext_ref("l1"), ext_ref("l2")), trivial_vertex_bc()),))
    s = scattering.solve_scattering(assemble(g), 2.0).s
    assert_allclose(s, [[0, 1], [1, 0]], atol=1e-14)


def test_insert_trivial_vertex_splits_length():
    g = insert_trivial_vertex(_tadpole(2.0), "loop", position=0.3)
    ids = dict(g.internals)
    assert set(ids) == {"loop.1", "loop.2"}
    assert_allclose(ids["loop.1"], 0.6)
    assert_allclose(ids["loop.2"], 1.4)
    assert g.n == 1 and g.m == 2
    assert len(g.vertices) == 2


def test_insert_trivial_vertex_preserves_smatrix():
    for builder in (_ring, _tadpole):
        g = builder(1.3)
        edge = g.internals[0][0]
        split = insert_trivial_vertex(g, edge, position=0.37)
        for e in (0.8, 3.1, 17.0):
            s0 = scattering.solve_scattering(assemble(g), e).s
            s1 = scattering.solve_scattering(assemble(split), e).s
            assert_allclose(s1, s0, atol=1e-11)


def test_insert_trivial_vertex_preserves_spectrum():
    g = _ring()
    split = insert_trivial_vertex(g, "i1", position=0.41)
    ev0 = scattering.spectrum(assemble(g), 1.0, 50.0).eigenvalues
    ev1 = scattering.spectrum(assemble(split), 1.0, 50.0).eigenvalues
    assert_allclose(ev1, ev0, rtol=1e-8)


def test_insert_trivial_vertex_avoids_id_collisions():
    v = Vertex((ext_ref("l1"), int_ref("loop", "0"), int_ref("loop", "a"),
                int_ref("loop.1", "0"), int_ref("loop.1", "a")),
               kirchhoff_standard(5))
    g = MetricGraph(("l1",), (("loop", 1.0), ("loop.1", 1.0)), (v,))
    split = insert_trivial_vertex(g, "loop")
    ids = [i for i, _ in split.internals]
    assert len(set(ids)) == 3
    assert "loop.1x" in ids  # the first candidate was taken


def test_insert_trivial_vertex_rejects_bad_requests():
    with pytest.raises(UnknownEdge):
        insert_trivial_vertex(_tadpole(), "nope")
    with pytest.raises(InvalidParameters):
        insert_trivial_vertex(_tadpole(), "loop", position=0.0)
    with pytest.raises(InvalidParameters):
        insert_trivial_vertex(_tadpole(), "loop", position=1.0)


def test_cut_ring_bookkeeping():
    left, right, cm = cut(_ring(), ["i1", "i2"])
    assert [p[:2] for p in cm.pairs] == [("i1.cut0", "i1.cuta"),
                                         ("i2.cut0", "i2.cuta")]
    assert cm.pairs[0][2] == 1.0
    # cut channels trail on the left, lead on the right
    assert cm.left_externals == ("l1", "i1.cut0", "i2.cut0")
    assert cm.right_externals == ("i1.cuta", "i2.cuta", "l2")
    assert left.n == 3 and left.m == 0
    assert right.n == 3 and right.m == 0
    # both halves are valid graphs with intact vertex conditions
    assemble(left)
    assemble(right)


def test_cut_order_follows_internal_listing():
    _, _, cm = cut(_ring(), ["i2", "i1"])
    assert [p[2] for p in cm.pairs] == [1.0, 1.0]
    assert cm.left_externals == ("l1", "i1.cut0", "i2.cut0")


def test_cut_rejects_non_separating_selections():
    with pytest.raises(NotACut):
        cut(_ring(), ["i1"])  # still connected
    with pytest.raises(NotACut):
        cut(_tadpole(), ["loop"])  # loop removal leaves one component
    with pytest.raises(NotACut):
        cut(_ring(), [])
    with pytest.raises(UnknownEdge):
        cut(_ring(), ["ghost"])


def test_cut_rejects_three_component_split():
    # chain of three vertices: cutting both bridges leaves three parts
    v0 = Vertex((ext_ref("l1"), int_ref("b1", "0")), kirchhoff_standard(2))
    v1 = Vertex((int_ref("b1", "a"), int_ref("b2", "0")), kirchhoff_standard(2))
    v2 = Vertex((int_ref("b2", "a"), ext_ref("l2")), kirchhoff_standard(2))
    g = MetricGraph(("l1", "l2"), (("b1", 1.0), ("b2", 1.0)), (v0, v1, v2))
    with pytest.raises(NotACut):
        cut(g, ["b1", "b2"])


def test_cut_rejects_edge_inside_one_component():
    # bridge plus a tadpole on the left vertex: the tadpole never straddles
    v0 = Vertex((ext_ref("l1"), int_ref("t", "0"), int_ref("t", "a"),
                 int_ref("b", "0")), kirchhoff_standard(4))
    v1 = Vertex((int_ref("b", "a"), ext_ref("l2")), kirchhoff_standard(2))
    g = MetricGraph(("l1", "l2"), (("t", 0.8), ("b", 1.0)), (v0, v1))
    with pytest.raises(NotACut):
        cut(g, ["b", "t"])


def _two_clusters(rng, factor):
    """Two random couplings joined by 1-2 bridges; the left one is scaled by
    ``factor``, which changes no vertex's admissibility."""
    bridges = int(rng.integers(1, 3))
    n_left, n_right = int(rng.integers(1, 3)), int(rng.integers(0, 3))
    externals = tuple(f"l{j}" for j in range(n_left)) + tuple(f"r{j}" for j in range(n_right))
    internals = tuple((f"b{j}", float(rng.uniform(0.2, 3.0))) for j in range(bridges))
    left = [ext_ref(f"l{j}") for j in range(n_left)]
    left += [int_ref(f"b{j}", "0") for j in range(bridges)]
    right = [int_ref(f"b{j}", "a") for j in range(bridges)]
    right += [ext_ref(f"r{j}") for j in range(n_right)]
    bc = random_bc(len(left), rng)
    vertices = (Vertex(tuple(left), BoundaryCondition(factor * bc.A, factor * bc.B)),
                Vertex(tuple(right), random_bc(len(right), rng)))
    return MetricGraph(externals, internals, vertices)


def _admissible(gbc) -> bool:
    try:
        gbc.require_admissible()
    except InvalidBoundaryCondition:
        return False
    return True


def test_assembled_verdict_matches_global_validation():
    # (A, B) is a permuted block sum of the vertex pairs, so the verdict that
    # assemble derives from the vertices must equal the full N x N check and
    # the AND of the vertex verdicts, also where one vertex is scaled by 1e12
    # or 1e-12: the rows are measured normalized
    fixtures = resources.files("artifact") / "fixtures"
    graphs = [cli.load_document(str(path)).to_graph()
              for path in sorted(fixtures.iterdir()) if path.name.endswith(".json")]
    rng = np.random.default_rng(12)
    graphs += [_two_clusters(rng, factor)
               for factor in (1.0, 1e3, 1e6, 1e12, 1e-12) for _ in range(4)]
    for g in graphs:
        gbc = assemble(g)
        expected = boundary.validate(gbc.bc).ok
        assert _admissible(gbc) == expected
        assert expected == all(boundary.validate(v.bc).ok for v in g.vertices)
        assert expected
        if g.n:
            res = scattering.solve_scattering(gbc, 1.3)
            assert res.unitarity_defect < 1e-12


def _delta_chain(junctions, rng):
    """Two leads joined through ``junctions`` delta junctions (all 2 x 2)."""
    edges = [f"e{j}" for j in range(junctions - 1)]
    ends = [ext_ref("l")] + [x for e in edges for x in (int_ref(e, "0"), int_ref(e, "a"))]
    ends.append(ext_ref("r"))
    vertices = tuple(Vertex((ends[2 * j], ends[2 * j + 1]),
                            boundary.delta_coupling(float(rng.uniform(-3.0, 3.0))))
                     for j in range(junctions))
    return MetricGraph(("l", "r"), tuple((e, float(rng.uniform(0.2, 2.0))) for e in edges),
                       vertices)


def _assembly_cases():
    fixtures = resources.files("artifact") / "fixtures"
    cases = [cli.load_document(str(path)).to_graph()
             for path in sorted(fixtures.iterdir()) if path.name.endswith(".json")]
    rng = np.random.default_rng(33)
    for _ in range(12):
        g = selftest._random_graph(rng)[0]
        cases.append(g)
        for _ in range(3):   # mixed vertex sizes, more vertices than sizes
            g = insert_trivial_vertex(g, g.internals[-1][0], 0.4)
        cases.append(g)
    cases.append(_delta_chain(200, rng))
    return cases


def test_assembled_pair_equals_per_vertex_measurements():
    for g in _assembly_cases():
        gbc = assemble(g)
        n, m = g.n, g.m
        col = {ext_ref(e): j for j, e in enumerate(g.externals)}
        for j, (i, _) in enumerate(g.internals):
            col[int_ref(i, "0")], col[int_ref(i, "a")] = n + j, n + m + j
        a = np.zeros((n + 2 * m,) * 2, dtype=complex)
        b = np.zeros_like(a)
        row = 0
        for v in g.vertices:
            cols = [col[e] for e in v.endpoints]
            a[np.ix_(range(row, row + v.bc.dim), cols)] = v.bc.A
            b[np.ix_(range(row, row + v.bc.dim), cols)] = v.bc.B
            row += v.bc.dim
        assert np.array_equal(gbc.bc.A, a) and np.array_equal(gbc.bc.B, b)
        parts = [boundary.measure_admissibility(v.bc) for v in g.vertices]
        for v, p in zip(g.vertices, parts):
            # the one-pair measurement is the arithmetic of a lone SVD per
            # number of the pair with every row of [A | B] scaled to norm 1
            ab = np.hstack([v.bc.A, v.bc.B])
            ab = ab / np.linalg.norm(ab, axis=1, keepdims=True)
            a_n, b_n = ab[:, :v.bc.dim], ab[:, v.bc.dim:]
            assert np.array_equal(p.singular_values, np.linalg.svd(ab, compute_uv=False))
            assert p.hermiticity_defect == numkernel.hermiticity_defect(
                a_n @ b_n.conj().T)
            r = a_n @ b_n.T
            assert p.reality_defect == numkernel.spectral_norm(r - r.T)
        expected = boundary.combine_admissibility(parts)
        got = gbc.admissibility_numbers()
        assert np.array_equal(got.singular_values, expected.singular_values)
        assert (got.hermiticity_defect, got.reality_defect) == (
            expected.hermiticity_defect, expected.reality_defect)
        # measuring the global pair itself gives the same numbers up to rounding
        fresh = boundary.measure_admissibility(gbc.bc)
        assert_allclose(fresh.singular_values, expected.singular_values,
                        rtol=1e-13, atol=1e-15)
        assert abs(fresh.hermiticity_defect - expected.hermiticity_defect) <= 1e-13


def test_localize_of_the_assembled_pair_joins_the_vertex_blocks():
    fixtures = resources.files("artifact") / "fixtures"
    graphs = [cli.load_document(str(path)).to_graph()
              for path in sorted(fixtures.iterdir()) if path.name.endswith(".json")]
    rng = np.random.default_rng(40)
    graphs += [selftest._random_graph(rng)[0] for _ in range(40)]
    for g in graphs:
        gbc = assemble(g)
        expected = []
        for columns, a_blocks, b_blocks in gbc.vertex_blocks():
            for cols, a, b in zip(columns, a_blocks, b_blocks):
                for block in boundary.localize(BoundaryCondition(a, b)).blocks:
                    expected.append(tuple(sorted(int(cols[j]) for j in block)))
        assert boundary.localize(gbc.bc).blocks == tuple(sorted(expected)), g


def test_assemble_names_the_first_inadmissible_vertex():
    # vertex 1 (size 1) and vertex 2 (size 2) both fail; the size-2 vertices
    # are measured first, yet the error names vertex 1
    rank_one = BoundaryCondition([[1.0, 0.0], [1.0, 0.0]], np.zeros((2, 2)))
    zero = BoundaryCondition(np.zeros((1, 1)), np.zeros((1, 1)))
    g = MetricGraph(("l1", "l2", "l3"), (("i", 1.0),),
                    (Vertex((ext_ref("l1"), int_ref("i", "0")), trivial_vertex_bc()),
                     Vertex((ext_ref("l2"),), zero),
                     Vertex((int_ref("i", "a"), ext_ref("l3")), rank_one)))
    with pytest.raises(InvalidBoundaryCondition) as info:
        assemble(g)
    assert str(info.value) == ("vertex 1: boundary condition is not admissible: "
                               "rank 0 of 1, hermiticity defect 0.000e+00")


def test_assemble_measures_once_per_vertex_size(monkeypatch):
    rng = np.random.default_rng(5)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for g in (_delta_chain(200, rng), insert_trivial_vertex(_ring(), "i1")):
        calls.clear()
        assemble(g)
        sizes = {v.bc.dim for v in g.vertices}
        assert 0 < len(calls) <= 4 * len(sizes) < len(g.vertices) * 4
