import numpy as np
import pytest
from numpy.testing import assert_allclose

from artifact import numkernel, scattering, starprod
from artifact import graph as graphmod
from artifact.boundary import (DimensionMismatch, InvalidParameters,
                               kirchhoff_standard, random_bc, random_unitary)
from artifact.graph import MetricGraph, Vertex, assemble, cut, ext_ref, int_ref
from artifact.starprod import (ConditionAViolated, StarOperands,
                               associativity_check, compose_smatrices,
                               condition_a, factorize_graph, factorize_many,
                               star, star_many)
from helpers import fixture, random_graph, ring, tadpole


def _draw_operands(rng, allow_p0=False):
    p = int(rng.integers(0 if allow_p0 else 1, 4))
    nl = p + int(rng.integers(1, 4))
    nr = p + int(rng.integers(1, 4))
    return StarOperands(random_unitary(nl, rng), random_unitary(nr, rng),
                        random_unitary(p, rng) if p else np.eye(0), p)


def test_operand_validation():
    rng = np.random.default_rng(0)
    u2 = random_unitary(2, rng)
    u3 = random_unitary(3, rng)
    with pytest.raises(DimensionMismatch):
        StarOperands(np.ones((2, 3)), u2, np.eye(1), 1)
    with pytest.raises(InvalidParameters):
        StarOperands(u2, u3, np.eye(3), 3)  # p > min size
    with pytest.raises(InvalidParameters):
        StarOperands(u2, u2, np.eye(2), 2)  # 2p = n' + n''
    with pytest.raises(DimensionMismatch):
        StarOperands(u2, u3, np.eye(2), 1)  # coupling shape
    with pytest.raises(InvalidParameters):
        StarOperands(2.0 * u2, u3, np.eye(1), 1)  # not unitary
    with pytest.raises(InvalidParameters):
        StarOperands(u2, u3, 0.5 * np.eye(1), 1)  # coupling not unitary


def test_star_products_are_unitary():
    rng = np.random.default_rng(1)
    for _ in range(100):
        ops = _draw_operands(rng, allow_p0=True)
        try:
            u = star(ops)
        except ConditionAViolated:
            continue
        expected = ops.n_left + ops.n_right - 2 * ops.p
        assert u.shape == (expected, expected)
        assert numkernel.unitarity_defect(u) < 1e-12


def test_star_with_no_glued_channels_is_block_diagonal():
    rng = np.random.default_rng(2)
    ul = random_unitary(2, rng)
    ur = random_unitary(3, rng)
    ops = StarOperands(ul, ur, np.eye(0), 0)
    ok, margin = condition_a(ops)
    assert ok and margin == np.inf
    u = star(ops)
    assert_allclose(u[:2, :2], ul)
    assert_allclose(u[2:, 2:], ur)
    assert_allclose(u[:2, 2:], 0, atol=0)


def _flip(p):
    z = np.zeros((p, p))
    i = np.eye(p)
    return np.block([[z, i], [i, z]])


def test_unit_laws():
    # the 2p x 2p antidiagonal flip acts as a (dressed) identity on both sides
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = int(rng.integers(1, 4))
        v = random_unitary(p, rng)
        v_inv = np.linalg.inv(v)
        nr = p + int(rng.integers(1, 4))
        ur = random_unitary(nr, rng)
        left_unit = star(StarOperands(_flip(p), ur, v, p))
        dl = np.eye(nr, dtype=complex)
        dl[:p, :p] = v_inv
        dr = np.eye(nr, dtype=complex)
        dr[:p, :p] = v
        assert_allclose(left_unit, dl @ ur @ dr, atol=1e-12)

        nl = p + int(rng.integers(1, 4))
        ul = random_unitary(nl, rng)
        right_unit = star(StarOperands(ul, _flip(p), v, p))
        el = np.eye(nl, dtype=complex)
        el[nl - p:, nl - p:] = v
        er = np.eye(nl, dtype=complex)
        er[nl - p:, nl - p:] = v_inv
        assert_allclose(right_unit, el @ ul @ er, atol=1e-12)


def _tau(u, leading, trailing):
    """Swap the leading and trailing channel blocks, keeping internal order."""
    assert leading + trailing == u.shape[0]
    perm = list(range(leading, leading + trailing)) + list(range(leading))
    return u[np.ix_(perm, perm)]


def test_transposition_law():
    rng = np.random.default_rng(4)
    done = 0
    while done < 50:
        ops = _draw_operands(rng)
        try:
            product = star(ops)
        except ConditionAViolated:
            continue
        p, nl, nr = ops.p, ops.n_left, ops.n_right
        lhs = _tau(product, nl - p, nr - p)
        swapped = StarOperands(_tau(ops.u_right, p, nr - p),
                               _tau(ops.u_left, nl - p, p),
                               np.linalg.inv(ops.v), p)
        rhs = star(swapped)
        assert numkernel.spectral_norm(lhs - rhs) < 1e-11
        done += 1


def test_associativity():
    rng = np.random.default_rng(5)
    done = 0
    while done < 20:
        p = int(rng.integers(1, 3))
        pp = int(rng.integers(1, 3))
        n1 = p + int(rng.integers(1, 3))
        n2 = p + pp + int(rng.integers(0, 3))
        n3 = pp + int(rng.integers(1, 3))
        try:
            defect = associativity_check(
                random_unitary(n1, rng), random_unitary(n2, rng),
                random_unitary(n3, rng), random_unitary(p, rng),
                random_unitary(pp, rng), p, pp)
        except ConditionAViolated:
            continue
        assert defect < 1e-10
        done += 1


def test_associativity_rejects_overlapping_glue():
    rng = np.random.default_rng(6)
    with pytest.raises(InvalidParameters):
        associativity_check(random_unitary(3, rng), random_unitary(3, rng),
                            random_unitary(3, rng), random_unitary(2, rng),
                            random_unitary(2, rng), 2, 2)


def test_k_factor_equals_neumann_series():
    rng = np.random.default_rng(7)
    done = 0
    while done < 10:
        p = int(rng.integers(1, 4))
        ul = random_unitary(p + int(rng.integers(1, 4)), rng)
        ur = random_unitary(p + int(rng.integers(1, 4)), rng)
        v = random_unitary(p, rng)
        m = v @ ul[-p:, -p:] @ np.linalg.inv(v) @ ur[:p, :p]
        if numkernel.spectral_norm(m) > 0.9:
            continue
        k1 = np.linalg.solve(np.eye(p) - m, v)
        term = v.astype(complex)
        total = np.zeros_like(term)
        for _ in range(400):
            total += term
            term = m @ term
            if numkernel.spectral_norm(term) < 1e-17:
                break
        assert numkernel.spectral_norm(total - k1) < 1e-12
        done += 1


def test_condition_a_resonance_detected():
    # corner blocks both exactly 1: the glue resonates with zero margin
    w = np.exp(0.3j)
    ul = np.diag([w, 1.0 + 0.0j])
    ur = np.diag([1.0 + 0.0j, w])
    ops = StarOperands(ul, ur, np.eye(1), 1)
    ok, margin = condition_a(ops)
    assert not ok and margin == 0.0
    with pytest.raises(ConditionAViolated) as info:
        star(ops)
    assert info.value.margin == 0.0


def test_compose_matches_direct_solve_on_ring():
    g = ring()
    left, right, cm = cut(g, ["i1", "i2"])
    for e in (0.6, 2.2, 13.0):
        sl = scattering.solve_scattering(assemble(left), e).s
        sr = scattering.solve_scattering(assemble(right), e).s
        composed = compose_smatrices(sl, sr, cm, e)
        direct = scattering.solve_scattering(assemble(g), e).s
        assert numkernel.spectral_norm(composed - direct) < 1e-12


def test_ring_glue_inverse_closed_form():
    # the (I - glue)^{-1} factor of the ring composition in closed form
    s3 = scattering.smatrix_single_vertex(kirchhoff_standard(3), 1.0)
    corner = s3[1:, 1:]
    for e in (0.9, 3.7, 21.0):
        q2 = np.exp(2j * np.sqrt(e))
        k1 = np.linalg.solve(np.eye(2) - corner @ (q2 * corner), np.eye(2))
        den = (1.0 - q2 / 9.0) * (1.0 - q2)
        expected = np.array([[1.0 - 5.0 * q2 / 9.0, -4.0 * q2 / 9.0],
                             [-4.0 * q2 / 9.0, 1.0 - 5.0 * q2 / 9.0]]) / den
        assert_allclose(k1, expected, atol=1e-12)


def test_factorize_ring_and_random_graph():
    _, _, defect = factorize_graph(ring(), ["i1", "i2"], 1.9)
    assert defect < 1e-10
    rng = np.random.default_rng(8)
    from artifact.boundary import random_bc
    v0 = Vertex((ext_ref("l1"), int_ref("b", "0")), random_bc(2, rng))
    v1 = Vertex((int_ref("b", "a"), ext_ref("l2"), ext_ref("l3")), random_bc(3, rng))
    g = MetricGraph(("l1", "l2", "l3"), (("b", 0.8),), (v0, v1))
    _, _, defect = factorize_graph(g, ["b"], 2.4)
    assert defect < 1e-10


def test_factorize_chain_matches_the_dressed_two_block_formula():
    # chain.json: two delta junctions joined by "mid", cut there, against
    # s11 = S_L00 + S_L01 S_R00 S_L10 q / (1 - S_L11 S_R00 q), q = e^{2ika}
    g = fixture("chain.json").to_graph()
    e = 2.0
    _, s_direct, defect = factorize_graph(g, ["mid"], e)
    q = np.exp(2j * np.sqrt(e) * g.length("mid"))
    s_left = scattering.smatrix_single_vertex(g.vertices[0].bc, e)
    # the right vertex lists the interval end first: its channel 0 is the cut
    s_right = scattering.smatrix_single_vertex(g.vertices[1].bc, e)
    s11 = s_left[0, 0] + s_left[0, 1] * s_right[0, 0] * s_left[1, 0] * q \
        / (1.0 - s_left[1, 1] * s_right[0, 0] * q)
    assert defect < 1e-10
    assert abs(s_direct[0, 0] - s11) < 1e-10


def test_factorize_tadpole_closed_form_and_resonance():
    g = tadpole()
    for e in (0.5, 2.0, 11.0):
        q = np.exp(1j * np.sqrt(e))
        expected = q * (1.0 / q - 3.0) / (q - 3.0)
        composed, direct, defect = factorize_graph(g, ["loop"], e)
        assert defect < 1e-10
        assert_allclose(direct[0, 0], expected, atol=1e-12)
        assert_allclose(composed[0, 0], expected, atol=1e-10)
    with pytest.raises(ConditionAViolated) as info:
        factorize_graph(g, ["loop"], 4 * np.pi ** 2)
    assert info.value.margin < 1e-8


def test_factorize_many_equals_factorize_graph_bit_for_bit():
    rng = np.random.default_rng(21)
    cases = [(ring(), ["i1", "i2"], [0.7, 2.9, 14.0]),
             (tadpole(), ["loop"], [0.5, 4 * np.pi ** 2, 11.0])]
    for _ in range(4):
        g, bridge_ids = random_graph(rng)
        cases.append((g, bridge_ids, [float(e) for e in rng.uniform(0.3, 12.0, 4)]))
    for g, cut_ids, energies in cases:
        for e, out in zip(energies, factorize_many(g, cut_ids, energies)):
            if isinstance(out, ConditionAViolated):
                with pytest.raises(ConditionAViolated) as info:
                    factorize_graph(g, cut_ids, e)
                assert info.value.margin == out.margin
                continue
            composed, direct, defect = factorize_graph(g, cut_ids, e)
            assert np.array_equal(out[0], composed)
            assert np.array_equal(out[1], direct)
            assert out[2] == defect
    # the tadpole resonance is returned in place, carrying its margin
    outcomes = factorize_many(tadpole(), ["loop"], [0.5, 4 * np.pi ** 2])
    assert isinstance(outcomes[0], tuple)
    assert isinstance(outcomes[1], ConditionAViolated) and outcomes[1].margin < 1e-8



def _outcomes_agree(got, expected, tol):
    for out, ref in zip(got, expected, strict=True):
        if isinstance(ref, ConditionAViolated):
            assert isinstance(out, ConditionAViolated)
            continue
        for a, b in zip(out[:2], ref[:2]):
            assert np.abs(a - b).max() <= tol


def test_tadpoles_compose_as_through_a_trivial_vertex():
    energies = [0.5, 2.0, 4 * np.pi ** 2, 11.0]
    # tadpole.json: the direct solve keeps the loop, the hand route splits it
    g = fixture("tadpole.json").to_graph()
    hand = graphmod.insert_trivial_vertex(g, "loop")
    _outcomes_agree(factorize_many(g, ["loop"], energies),
                    factorize_many(hand, ["loop.1", "loop.2"], energies), 1e-13)
    # a tadpole on each side of the cut: the sides are solved with their loops
    rng = np.random.default_rng(31)
    v0 = Vertex((ext_ref("l1"), int_ref("b", "0"), int_ref("t0", "0"),
                 int_ref("t0", "a")), random_bc(4, rng))
    v1 = Vertex((int_ref("b", "a"), ext_ref("l2"), int_ref("t1", "0"),
                 int_ref("t1", "a")), random_bc(4, rng))
    g = MetricGraph(("l1", "l2"), (("b", 0.8), ("t0", 1.3), ("t1", 0.6)), (v0, v1))
    hand = graphmod.insert_trivial_vertex(graphmod.insert_trivial_vertex(g, "t0"), "t1")
    energies = [float(e) for e in rng.uniform(0.3, 12.0, 6)]
    outcomes = factorize_many(g, ["b"], energies)
    assert all(isinstance(out, tuple) for out in outcomes)
    _outcomes_agree(outcomes, factorize_many(hand, ["b"], energies), 1e-13)


def test_compose_rejects_mismatched_inputs():
    g = ring()
    left, right, cm = cut(g, ["i1", "i2"])
    sl = scattering.solve_scattering(assemble(left), 1.0).s
    sr = scattering.solve_scattering(assemble(right), 1.0).s
    with pytest.raises(DimensionMismatch):
        compose_smatrices(sl[:2, :2], sr, cm, 1.0)
    with pytest.raises(DimensionMismatch):
        compose_smatrices(sl, sr[:2, :2], cm, 1.0)


def test_factorize_many_refuses_a_graph_without_external_lines(monkeypatch):
    v0 = Vertex((int_ref("i1", "0"), int_ref("i2", "0")), kirchhoff_standard(2))
    v1 = Vertex((int_ref("i1", "a"), int_ref("i2", "a")), kirchhoff_standard(2))
    closed = MetricGraph((), (("i1", 1.0), ("i2", 1.5)), (v0, v1))
    solved = []
    monkeypatch.setattr(scattering, "solve_many", lambda *a: solved.append(a))
    with pytest.raises(scattering.NoExternalLines):
        factorize_many(closed, ["i1", "i2"], [2.0, 3.0])
    with pytest.raises(scattering.NoExternalLines):
        factorize_graph(closed, ["i1", "i2"], 2.0)
    assert solved == []


def _same_outcome(got, ops_args):
    """``got`` (a star_many entry) is what star(StarOperands(*ops_args)) gives."""
    try:
        expected = star(StarOperands(*ops_args))
    except (ConditionAViolated, InvalidParameters) as exc:
        assert type(got) is type(exc) and str(got) == str(exc)
        assert getattr(got, "margin", None) == getattr(exc, "margin", None)
        return type(exc)
    assert np.array_equal(got, expected)
    return np.ndarray


def test_star_many_equals_per_operand_star():
    rng = np.random.default_rng(22)
    w = np.exp(0.3j)
    seen = set()
    for p in (0, 1, 2, 3):
        nl, nr = p + int(rng.integers(1, 4)), p + int(rng.integers(1, 4))
        v = random_unitary(p, rng) if p else np.eye(0)
        u_left = np.stack([random_unitary(nl, rng) for _ in range(6)])
        u_right = np.stack([random_unitary(nr, rng) for _ in range(6)])
        u_right[4] *= 1.5  # not unitary: refused in place
        if p:  # both glue corners are the identity: resonant for every v
            u_left[2] = np.diag([w] * (nl - p) + [1.0] * p)
            u_right[2] = np.diag([1.0] * p + [w] * (nr - p))
        for i, got in enumerate(star_many(u_left, u_right, v)):
            seen.add(_same_outcome(got, (u_left[i], u_right[i], v, p)))
    assert seen == {np.ndarray, ConditionAViolated, InvalidParameters}


def test_star_many_checks_the_whole_stack():
    rng = np.random.default_rng(23)
    u2 = np.stack([random_unitary(2, rng)] * 3)
    u3 = np.stack([random_unitary(3, rng)] * 3)
    with pytest.raises(DimensionMismatch):
        star_many(u2, u3[:2], np.eye(1))
    with pytest.raises(DimensionMismatch):
        star_many(u2, u3, np.ones((1, 2)))
    with pytest.raises(InvalidParameters):
        star_many(u2, u2, np.eye(2))
    bad = u3.copy()
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        star_many(u2, bad, np.eye(1))


def _first_error_per_energy(sides, direct, cutmap, grid):
    """The per-energy loop factorize_many replaced: the exception it raises
    first, or None."""
    for energy, sl, sr, sd in zip(grid, *sides, direct):
        for res in (sl, sr):
            if isinstance(res, Exception):
                return res
        try:
            compose_smatrices(sl.s, sr.s, cutmap, energy)
        except ConditionAViolated:
            continue
        except InvalidParameters as exc:
            return exc
        if isinstance(sd, Exception):
            return sd
    return None


def test_factorize_many_raises_the_first_error_in_grid_order(monkeypatch):
    # the tadpole resonates at 4 pi^2 (index 1): nothing composes there, so a
    # direct error at that energy is never raised
    g = tadpole()
    grid = [0.5, 4 * np.pi ** 2, 2.0, 11.0, 3.0]
    cut_fn, solve = graphmod.cut, scattering.solve_many
    cutmaps = []
    monkeypatch.setattr(graphmod, "cut",
                        lambda *a: cutmaps.append(cut_fn(*a)) or cutmaps[-1])
    # sides: 0 left, 1 right, 2 direct; "error" replaces the result by an
    # exception, "scaled" multiplies its S-matrix by 1.5
    scenarios = [
        {},
        {(2, 1): "error"},
        {(2, 0): "error", (0, 2): "scaled"},
        {(0, 0): "scaled", (2, 0): "error"},
        {(0, 1): "scaled", (2, 2): "error"},
        {(2, 1): "error", (1, 2): "error"},
        {(1, 3): "scaled", (0, 3): "error", (2, 2): "error"},
        {(0, 3): "scaled"},
        {(1, 2): "scaled", (2, 4): "error"},
        {(1, 4): "error", (0, 4): "error"},
    ]
    raised = set()
    for scenario in scenarios:
        results = []

        def fake(gbc, energies, scenario=scenario, results=results):
            side = len(results)
            out = solve(gbc, energies)
            for (s, i), kind in scenario.items():
                if s == side and kind == "error":
                    out.errors[i] = scattering.InconsistentSystem(f"side {s}, energy {i}")
                elif s == side:
                    out.s[i] *= 1.5
            results.append(out)
            return out

        monkeypatch.setattr(scattering, "solve_many", fake)
        try:
            outcomes = factorize_many(g, ["loop"], grid)
        except Exception as exc:  # noqa: BLE001 - compared with the reference
            got = exc
        else:
            got = None
            assert isinstance(outcomes[1], ConditionAViolated)
        expected = _first_error_per_energy(results[:2], results[2], cutmaps[-1][2], grid)
        assert type(got) is type(expected) and str(got) == str(expected), scenario
        if isinstance(expected, scattering.InconsistentSystem):
            assert got is expected
        raised.add(type(expected))
    assert raised == {type(None), scattering.InconsistentSystem, InvalidParameters}
