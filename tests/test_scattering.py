import numpy as np
import pytest
from numpy.testing import assert_allclose

from artifact import boundary, numkernel, scattering, selftest
from artifact.boundary import (BoundaryCondition, InvalidBoundaryCondition,
                               delta_coupling, dirichlet, kirchhoff_standard,
                               neumann, random_bc, random_unitary)
from artifact.graph import GlobalBC, MetricGraph, Vertex, assemble, ext_ref, int_ref
from artifact.scattering import (BadWindow, NoExternalLines, NonpositiveEnergy,
                                 NotAnEigenvalue, OutOfDomain, build_xyz,
                                 check_covariance, check_duality, check_transpose,
                                 eigenfunction, evaluate_wavefunction,
                                 smatrix_single_vertex, solve_scattering,
                                 spectrum, sweep)


def _ring(a=1.0):
    v0 = Vertex((ext_ref("l1"), int_ref("i1", "0"), int_ref("i2", "0")),
                kirchhoff_standard(3))
    v1 = Vertex((ext_ref("l2"), int_ref("i1", "a"), int_ref("i2", "a")),
                kirchhoff_standard(3))
    return MetricGraph(("l1", "l2"), (("i1", a), ("i2", a)), (v0, v1))


def _ring_smatrix(energy, a=1.0):
    """Closed form for the symmetric two-lead ring with unit couplings."""
    q = np.exp(1j * np.sqrt(energy) * a)
    r = 3.0 * (q ** 2 - 1.0)
    t = 8.0 * q
    return -np.array([[r, t], [t, r]]) / (q ** 2 - 9.0)


def _closed_circle():
    """A circle of circumference 2 made of two unit edges, no external lines."""
    v0 = Vertex((int_ref("e1", "0"), int_ref("e2", "a")), kirchhoff_standard(2))
    v1 = Vertex((int_ref("e1", "a"), int_ref("e2", "0")), kirchhoff_standard(2))
    return MetricGraph((), (("e1", 1.0), ("e2", 1.0)), (v0, v1))


def test_dirichlet_and_neumann_junctions():
    for e in (0.5, 1.0, 7.3):
        assert_allclose(smatrix_single_vertex(dirichlet(3), e), -np.eye(3),
                        atol=1e-14)
        assert_allclose(smatrix_single_vertex(neumann(3), e), np.eye(3),
                        atol=1e-14)


def test_single_vertex_smatrix_second_form():
    # with A B^dagger Hermitian, (A + ikB)(A^dagger - ikB^dagger) = AA^+ + E BB^+,
    # giving an equivalent factorized expression for the same S-matrix
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        bc = random_bc(n, rng)
        e = float(rng.uniform(0.1, 20.0))
        k = np.sqrt(e)
        s = smatrix_single_vertex(bc, e)
        gram = bc.A @ bc.A.conj().T + e * bc.B @ bc.B.conj().T
        other = -(bc.A.conj().T - 1j * k * bc.B.conj().T) @ np.linalg.solve(
            gram, bc.A - 1j * k * bc.B)
        # matching row/column convention: the factorized form is the transpose
        assert (numkernel.spectral_norm(s - other) < 1e-11
                or numkernel.spectral_norm(s - other.T) < 1e-11)


def test_single_vertex_unitary_for_random_conditions():
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        s = smatrix_single_vertex(random_bc(n, rng), float(rng.uniform(0.05, 40)))
        assert numkernel.unitarity_defect(s) < 1e-12


def test_single_vertex_rejects_invalid_condition():
    with pytest.raises(InvalidBoundaryCondition):
        smatrix_single_vertex(BoundaryCondition(np.zeros((2, 2)), np.zeros((2, 2))), 1.0)


def test_delta_junction_energy_limits():
    c = 1.0
    high = smatrix_single_vertex(delta_coupling(c), 1e12)
    assert_allclose(high, [[0, 1], [1, 0]], atol=1e-5)
    low = smatrix_single_vertex(delta_coupling(c), 1e-12)
    assert_allclose(low, -np.eye(2), atol=1e-5)



def test_single_vertex_smatrix_at_extreme_energies():
    kirchhoff = 2.0 / 3.0 * np.ones((3, 3)) - np.eye(3)
    for e in (1e-30, 1e-24, 1e20, 1e30):
        s = smatrix_single_vertex(kirchhoff_standard(3), e)
        assert np.abs(s - kirchhoff).max() <= 1e-15
        for bc, params in ((delta_coupling(1.0), (1.0, 0.0, 1.0, 1.0)),
                           (boundary.delta_prime(1.0), (1.0, 1.0, 0.0, 1.0))):
            expected = selftest._sl2_closed_form(*params, 0.0, e)
            assert np.abs(smatrix_single_vertex(bc, e) - expected).max() <= 1e-15


def test_build_xyz_determinant_product_formula():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        lengths = rng.uniform(0.3, 2.5, size=m)
        eps = [ext_ref("l1")]
        for j in range(m):
            eps += [int_ref(f"e{j}", "0"), int_ref(f"e{j}", "a")]
        v = Vertex(tuple(eps), random_bc(1 + 2 * m, rng))
        g = MetricGraph(("l1",), tuple((f"e{j}", lengths[j]) for j in range(m)), (v,))
        gbc = assemble(g)
        e = float(rng.uniform(0.2, 9.0))
        k = np.sqrt(e)
        x, y, _ = build_xyz(gbc, e)
        expected = np.prod(-2j * np.sin(k * lengths))
        assert_allclose(numkernel.determinant(x), expected, rtol=1e-10)
        assert_allclose(numkernel.determinant(y), expected, rtol=1e-10)


def test_ring_closed_form_smatrix():
    gbc = assemble(_ring())
    for e in (0.5, 1.7, 26.0):
        res = solve_scattering(gbc, e)
        assert_allclose(res.s, _ring_smatrix(e), atol=1e-12)
        assert not res.at_eigenvalue
        assert res.unitarity_defect < 1e-12
        assert res.alpha.shape == (2, 2) and res.beta.shape == (2, 2)


def test_ring_det_z_closed_form():
    gbc = assemble(_ring())
    rng = np.random.default_rng(6)
    for e in rng.uniform(0.2, 40.0, size=8):
        _, _, z = build_xyz(gbc, e)
        q2 = np.exp(2j * np.sqrt(e))
        expected = (10.0 - q2 - 9.0 / q2) * e
        assert_allclose(numkernel.determinant(z), expected, rtol=1e-9)


def test_ring_spectrum():
    gbc = assemble(_ring())
    result = spectrum(gbc, 0.5, 100.0)
    expected = [np.pi ** 2, 4 * np.pi ** 2, 9 * np.pi ** 2]
    assert_allclose(result.eigenvalues, expected, rtol=1e-8)
    assert all(r < 1e-6 for r in result.residuals)
    assert result.search_window == (0.5, 100.0)
    assert result.grid_points >= 200


def test_ring_at_eigenvalue_smatrix_still_unique():
    gbc = assemble(_ring())
    res = solve_scattering(gbc, np.pi ** 2)
    assert res.at_eigenvalue
    # the closed form degenerates to an antidiagonal sign flip at E = pi^2
    assert_allclose(res.s, [[0, -1], [-1, 0]], atol=1e-6)
    assert res.unitarity_defect < 1e-6
    # continuity: nearby regular energies agree with the singular-point S
    near = solve_scattering(gbc, np.pi ** 2 * (1 + 1e-7))
    assert numkernel.spectral_norm(near.s - res.s) < 1e-4


def test_decoupled_dirichlet_edges_spectrum():
    # every endpoint Dirichlet: the intervals carry independent sine modes
    eps = (ext_ref("l1"), int_ref("e1", "0"), int_ref("e2", "0"),
           int_ref("e1", "a"), int_ref("e2", "a"))
    g = MetricGraph(("l1",), (("e1", 1.0), ("e2", 0.7)),
                    (Vertex(eps, dirichlet(5)),))
    result = spectrum(assemble(g), 0.5, 60.0)
    expected = sorted([np.pi ** 2, (np.pi / 0.7) ** 2, 4 * np.pi ** 2])
    assert_allclose(result.eigenvalues, expected, rtol=1e-8)


def test_spectrum_without_internal_lines_is_empty():
    gbc = assemble(MetricGraph(("l1", "l2", "l3"), (),
                               (Vertex((ext_ref("l1"), ext_ref("l2"), ext_ref("l3")),
                                       kirchhoff_standard(3)),)))
    result = spectrum(gbc, 0.1, 50.0)
    assert result.eigenvalues == ()
    assert result.grid_points == 0


def test_spectrum_window_validation():
    gbc = assemble(_ring())
    for lo, hi in ((0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, 1.0),
                   (1.0, np.inf)):
        with pytest.raises(BadWindow):
            spectrum(gbc, lo, hi)
    with pytest.raises(BadWindow):
        spectrum(gbc, 1.0, 2.0, grid=2)
    with pytest.raises(BadWindow):
        spectrum(gbc, 1.0, 2.0, grid=scattering.MAX_GRID_POINTS + 1)


def test_closed_graph_spectrum_and_scattering_refusal():
    gbc = assemble(_closed_circle())
    result = spectrum(gbc, 0.5, 50.0)
    assert_allclose(result.eigenvalues, [np.pi ** 2, 4 * np.pi ** 2], rtol=1e-8)
    with pytest.raises(NoExternalLines):
        solve_scattering(gbc, 1.0)


def test_eigenfunction_ring_kernel_structure():
    gbc = assemble(_ring())
    e = np.pi ** 2
    pairs = eigenfunction(gbc, e)
    assert len(pairs) == 1
    a_hat, b_hat = pairs[0]
    # kernel pattern: opposite signs on the two arms, beta = -alpha
    assert abs(a_hat[0] + a_hat[1]) < 1e-8
    assert np.max(np.abs(b_hat + a_hat)) < 1e-8
    # and it really is a kernel vector of Z(E)
    _, _, z = build_xyz(gbc, e)
    full = np.concatenate([np.zeros(2, dtype=complex), a_hat, b_hat])
    assert np.linalg.norm(z @ full) < 1e-8
    assert_allclose(np.linalg.norm(full), 1.0, atol=1e-12)


def test_eigenfunction_multiplicity_on_circle():
    pairs = eigenfunction(assemble(_closed_circle()), np.pi ** 2)
    assert len(pairs) == 2


def test_one_edge_circle_finds_both_double_eigenvalues():
    # a kirchhoff vertex joining the two ends of one unit edge: Z(E) and the
    # bond matrix vanish identically at E = (2 pi j)^2
    g = MetricGraph((), (("e", 1.0),),
                    (Vertex((int_ref("e", "0"), int_ref("e", "a")), kirchhoff_standard(2)),))
    gbc = assemble(g)
    result = spectrum(gbc, 1.0, 200.0)
    assert_allclose(result.eigenvalues, [(2 * np.pi) ** 2, (4 * np.pi) ** 2], rtol=1e-10)
    for e in result.eigenvalues:
        pairs = eigenfunction(gbc, e)
        assert len(pairs) == 2
        basis = np.array([np.concatenate(pair) for pair in pairs])
        assert_allclose(basis @ basis.conj().T, np.eye(2), atol=1e-12)
        _, _, z = build_xyz(gbc, e)
        assert numkernel.spectral_norm(z @ basis.T) < 1e-10


def test_ring_matches_the_closed_form_from_1e_minus_300_to_1e30():
    gbc = assemble(_ring())
    energies = [10.0 ** j for j in range(-300, 31)]
    for e, res in zip(energies, scattering.solve_many(gbc, energies)):
        assert np.abs(res.s - _ring_smatrix(e)).max() <= 1e-12, e
        assert res.unitarity_defect <= 1e-12


def test_energies_past_the_phase_bound_are_refused():
    gbc = assemble(_ring())
    beyond = (2.0 ** 52) ** 2
    below = np.nextafter(2.0 ** 52, 0.0) ** 2
    outcomes = scattering.solve_many(gbc, [2.0, beyond, below, 1e300])
    assert isinstance(outcomes[0], scattering.ScatteringResult)
    assert isinstance(outcomes[2], scattering.ScatteringResult)
    for out in (outcomes[1], outcomes[3]):
        assert isinstance(out, scattering.InconsistentSystem)
        assert "reaches 2**52" in str(out)
    with pytest.raises(scattering.InconsistentSystem, match=r"2\*\*52"):
        spectrum(gbc, 1.0, beyond, grid=10)
    with pytest.raises(scattering.InconsistentSystem, match=r"2\*\*52"):
        eigenfunction(gbc, beyond)
    # the bound is on k * max(lengths), and a graph without internal lines has
    # no phase to lose
    assert isinstance(scattering.solve_many(assemble(_ring(4.0)), [below])[0],
                      scattering.InconsistentSystem)
    star = assemble(MetricGraph(("l1", "l2"), (),
                                (Vertex((ext_ref("l1"), ext_ref("l2")),
                                        kirchhoff_standard(2)),)))
    assert_allclose(solve_scattering(star, 1e300).s, [[0, 1], [1, 0]], atol=1e-15)


def test_eigenfunction_rejects_regular_energy():
    with pytest.raises(NotAnEigenvalue):
        eigenfunction(assemble(_ring()), 2.0)


def _fd_inward_derivative(f, x, length, h=1e-5):
    """Second-order one-sided inward derivative at an endpoint."""
    if x == 0.0:
        return (-3 * f(0.0) + 4 * f(h) - f(2 * h)) / (2 * h)
    assert x == length
    return -(3 * f(length) - 4 * f(length - h) + f(length - 2 * h)) / (2 * h)


def test_wavefunction_satisfies_vertex_conditions():
    # continuity and current conservation at both ring vertices, checked with
    # finite differences so the test does not reuse the solver's own algebra
    gbc = assemble(_ring())
    e = 3.0
    res = solve_scattering(gbc, e)
    for ch in range(2):
        def ext0(x, ch=ch):
            return evaluate_wavefunction(gbc, res, ch, ("ext", 0), x)

        def ext1(x, ch=ch):
            return evaluate_wavefunction(gbc, res, ch, ("ext", 1), x)

        def int0(x, ch=ch):
            return evaluate_wavefunction(gbc, res, ch, ("int", 0), x)

        def int1(x, ch=ch):
            return evaluate_wavefunction(gbc, res, ch, ("int", 1), x)

        # vertex 0 joins ext0, int0 at 0, int1 at 0
        assert abs(ext0(0.0) - int0(0.0)) < 1e-10
        assert abs(ext0(0.0) - int1(0.0)) < 1e-10
        flux0 = (_fd_inward_derivative(ext0, 0.0, None)
                 + _fd_inward_derivative(int0, 0.0, 1.0)
                 + _fd_inward_derivative(int1, 0.0, 1.0))
        assert abs(flux0) < 1e-6
        # vertex 1 joins ext1, int0 at a, int1 at a
        assert abs(ext1(0.0) - int0(1.0)) < 1e-10
        assert abs(ext1(0.0) - int1(1.0)) < 1e-10
        flux1 = (_fd_inward_derivative(ext1, 0.0, None)
                 + _fd_inward_derivative(int0, 1.0, 1.0)
                 + _fd_inward_derivative(int1, 1.0, 1.0))
        assert abs(flux1) < 1e-6


def test_wavefunction_domain_checks():
    gbc = assemble(_ring())
    res = solve_scattering(gbc, 2.0)
    with pytest.raises(OutOfDomain):
        evaluate_wavefunction(gbc, res, 0, ("ext", 0), -0.1)
    with pytest.raises(OutOfDomain):
        evaluate_wavefunction(gbc, res, 0, ("int", 0), 1.5)
    with pytest.raises(ValueError):
        evaluate_wavefunction(gbc, res, 0, ("int", 5), 0.5)
    with pytest.raises(ValueError):
        evaluate_wavefunction(gbc, res, 7, ("ext", 0), 0.5)
    with pytest.raises(ValueError):
        evaluate_wavefunction(gbc, res, 0, ("weird", 0), 0.5)


def _two_vertex_graph(seed):
    rng = np.random.default_rng(seed)
    v0 = Vertex((ext_ref("l1"), int_ref("b", "0")), random_bc(2, rng))
    v1 = Vertex((int_ref("b", "a"), ext_ref("l2"), int_ref("t", "0"),
                 int_ref("t", "a")), random_bc(4, rng))
    return MetricGraph(("l1", "l2"),
                       (("b", float(rng.uniform(0.3, 2.0))),
                        ("t", float(rng.uniform(0.3, 2.0)))), (v0, v1))


def test_symmetry_identities_on_random_graphs():
    for seed in (1, 2, 3):
        gbc = assemble(_two_vertex_graph(seed))
        rng = np.random.default_rng(100 + seed)
        for e in (0.7, 2.3):
            if solve_scattering(gbc, e).at_eigenvalue:
                continue
            assert check_transpose(gbc, e) < 1e-10
            assert check_duality(gbc, e) < 1e-10
            assert check_covariance(gbc, random_unitary(2, rng), e) < 1e-10


def test_covariance_rejects_wrong_size():
    gbc = assemble(_ring())
    with pytest.raises(boundary.DimensionMismatch):
        check_covariance(gbc, np.eye(3), 1.0)


def test_sweep_keeps_grid_order_and_probability_sums():
    gbc = assemble(_ring())
    energies = [0.5, 1.1, 2.9, 8.8, 26.0]
    results, probabilities = sweep(gbc, energies)
    assert [r.energy for r in results] == energies
    # transmission probabilities of a unitary S-matrix sum to one per column
    assert_allclose(probabilities.sum(axis=1), np.ones((5, 2)), atol=1e-12)


def test_energy_validation():
    gbc = assemble(_ring())
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(NonpositiveEnergy):
            solve_scattering(gbc, bad)
    with pytest.raises(NonpositiveEnergy):
        smatrix_single_vertex(dirichlet(1), -2.0)


def _fixture_gbcs():
    for name in ("kirchhoff_star", "free_two_line", "robin_delta", "ring", "tadpole",
                 "chain", "cyclic_junction"):
        yield selftest._fixture_gbc(f"{name}.json")


def test_bond_solution_satisfies_the_dense_z_system():
    # (S, alpha, beta) from the bond matrix against Z (S; alpha; beta) =
    # -(A - ikB) (I; 0; 0) with Z = A X + ik B Y from the dense X and Y
    rng = np.random.default_rng(8)
    gbcs = list(_fixture_gbcs())
    gbcs += [assemble(selftest._random_graph(rng)[0]) for _ in range(20)]
    for gbc in gbcs:
        n = gbc.n
        energies = rng.uniform(0.3, 200.0, size=5)
        for e, res in zip(energies, scattering.solve_many(gbc, energies)):
            _, _, z = build_xyz(gbc, e)
            sol = np.concatenate([res.s, res.alpha, res.beta])
            rhs = -(gbc.bc.A[:, :n] - 1j * np.sqrt(e) * gbc.bc.B[:, :n])
            scale = numkernel.spectral_norm(z) * numkernel.spectral_norm(sol)
            assert numkernel.spectral_norm(z @ sol - rhs) <= 1e-12 * scale


def test_directly_built_inadmissible_pair_is_refused(monkeypatch):
    # full rank but A B^dagger = B^dagger is not Hermitian; and rank 0
    skew = GlobalBC(2, 2, (1.0, 1.0),
                    BoundaryCondition(np.eye(6), np.triu(np.ones((6, 6)), 1)))
    zero = GlobalBC(2, 2, (1.0, 1.0),
                    BoundaryCondition(np.zeros((6, 6)), np.zeros((6, 6))))
    measured = []
    measure = boundary.measure_admissibility
    monkeypatch.setattr(boundary, "measure_admissibility",
                        lambda bc: measured.append(bc) or measure(bc))
    for gbc in (skew, zero):
        for e in (2.0, 3.0):
            with pytest.raises(InvalidBoundaryCondition):
                solve_scattering(gbc, e)
        grid = scattering.solve_many(gbc, [2.0, 3.0])
        assert [type(err) for err in grid.errors] == [InvalidBoundaryCondition] * 2
        with pytest.raises(InvalidBoundaryCondition):
            spectrum(gbc, 1.0, 50.0)
        with pytest.raises(InvalidBoundaryCondition):
            eigenfunction(gbc, np.pi ** 2)
    # measured once per instance, however many calls follow
    assert len(measured) == 2


def test_a_row_scaled_ring_solves_like_the_ring():
    # the first three rows are vertex 0: scaling them by 1e12 changes neither
    # the boundary condition nor, on the row-normalized pair, its admissibility
    base = assemble(_ring())
    rows = np.where(np.arange(6) < 3, 1e12, 1.0)[:, None]
    scaled = GlobalBC(2, 2, (1.0, 1.0),
                      BoundaryCondition(rows * base.bc.A, rows * base.bc.B))
    v0, v1 = _ring().vertices
    assembled = assemble(MetricGraph(
        ("l1", "l2"), (("i1", 1.0), ("i2", 1.0)),
        (Vertex(v0.endpoints, BoundaryCondition(1e12 * v0.bc.A, 1e12 * v0.bc.B)), v1)))
    assert boundary.validate(scaled.bc).ok
    for e in (0.3, 2.0, 30.0, 1e6):
        expected = solve_scattering(base, e).s
        for gbc in (scaled, assembled):
            assert np.abs(solve_scattering(gbc, e).s - expected).max() <= 1e-13


def test_solve_many_returns_one_stacked_grid(monkeypatch):
    gbc = assemble(_ring())
    beyond = 2.0 ** 104
    energies = [0.5, -1.0, np.pi ** 2, np.nan, beyond, 3.0, (2 * np.pi) ** 2]
    grid = scattering.solve_many(gbc, energies)
    assert isinstance(grid, scattering.ScatteringGrid) and len(grid) == 7
    assert grid.s.shape == (7, 2, 2) and grid.alpha.shape == grid.beta.shape == (7, 2, 2)
    refused = [1, 3, 4]
    assert [type(e).__name__ for e in grid.errors] == [
        "NoneType", "NonpositiveEnergy", "NoneType", "NonpositiveEnergy",
        "InconsistentSystem", "NoneType", "NoneType"]
    assert str(grid.errors[1]) == "energy must be finite and > 0, got -1.0"
    assert str(grid.errors[3]) == "energy must be finite and > 0, got nan"
    assert "reaches 2**52" in str(grid.errors[4])
    for i in refused:
        assert grid[i] is grid.errors[i]
        assert np.isnan(grid.s[i]).all() and np.isnan(grid.beta[i]).all()
        assert np.isnan([grid.unitarity_defect[i], grid.sigma_min_bound[i]]).all()
    assert grid.at_eigenvalue.tolist() == [False, False, True, False, False, False, True]
    # every view reads the columns, and equals the one-energy solve bit for bit
    for i in (0, 2, 5, 6):
        res, single = grid[i], solve_scattering(gbc, energies[i])
        assert np.shares_memory(res.s, grid.s) and np.shares_memory(res.beta, grid.beta)
        for name in ("s", "alpha", "beta"):
            assert np.array_equal(getattr(res, name), getattr(single, name))
        assert (res.energy, res.at_eigenvalue, res.solve_path, res.unitarity_defect,
                res.sigma_min_bound) == (single.energy, single.at_eigenvalue,
                                         single.solve_path, single.unitarity_defect,
                                         single.sigma_min_bound)
    assert [r.energy for r in grid if not isinstance(r, Exception)] == [
        0.5, np.pi ** 2, 3.0, (2 * np.pi) ** 2]
    with pytest.raises(TypeError):
        grid[1:3]
    # a refused minimum-norm solve leaves its exception and NaN in its own slot
    refusal = scattering.InconsistentSystem("refused")

    def refuse(*args):
        raise refusal

    monkeypatch.setattr(scattering, "_minimum_norm_solve", refuse)
    failed = scattering.solve_many(gbc, energies)
    assert failed[2] is refusal and failed[6] is refusal
    assert np.isnan(failed.s[[2, 6]]).all() and not failed.at_eigenvalue.any()
    assert np.array_equal(failed.s[[0, 5]], grid.s[[0, 5]])
    # an inadmissible pair refuses every energy the grid check accepted
    zero = GlobalBC(2, 2, (1.0, 1.0),
                    BoundaryCondition(np.zeros((6, 6)), np.zeros((6, 6))))
    names = [type(e).__name__ for e in scattering.solve_many(zero, [2.0, -1.0])]
    assert names == ["InvalidBoundaryCondition", "NonpositiveEnergy"]


def test_batched_sweep_matches_per_energy_solves(monkeypatch):
    gbc = assemble(_ring())
    energies = [0.5, np.pi ** 2, 2.9, 8.8, (2 * np.pi) ** 2, 26.0, 31.0]
    singles = [solve_scattering(gbc, e) for e in energies]
    # batches of 3 energies (N = 6): the eigenvalues sit inside batches
    monkeypatch.setattr(scattering, "CHUNK_ENTRIES", 3 * 36)
    batched, _ = sweep(gbc, energies)
    paths = [r.solve_path for r in batched]
    assert paths == [scattering.REGULAR, scattering.MINIMUM_NORM, scattering.REGULAR,
                     scattering.REGULAR, scattering.MINIMUM_NORM, scattering.REGULAR,
                     scattering.REGULAR]
    for a, b in zip(batched, singles):
        assert a.energy == b.energy and a.at_eigenvalue == b.at_eigenvalue
        assert (a.sigma_min_bound < scattering.SINGULAR_TOL) == a.at_eigenvalue
        for name in ("s", "alpha", "beta"):
            assert np.abs(getattr(a, name) - getattr(b, name)).max() <= 1e-14
        assert abs(a.unitarity_defect - b.unitarity_defect) <= 1e-14


def test_batched_scan_ratios_equal_pointwise_ratios():
    # sigma_min of the bond matrix, the quantity the scan reads
    gbc = assemble(_ring())
    ks = np.linspace(np.sqrt(0.5), 10.0, 2500)   # two batches at N = 6
    batched = scattering._smallest_sigmas(gbc, ks)
    pointwise = np.array([scattering._smallest_sigmas(gbc, [k])[0] for k in ks])
    assert np.array_equal(batched, pointwise)



def _dirichlet_pair(delta=1e-4):
    """Two Dirichlet intervals of lengths 1 and 1 + delta, no external lines."""
    vertices = tuple(Vertex((int_ref(f"i{j}", end),), dirichlet(1))
                     for j in range(2) for end in ("0", "a"))
    return MetricGraph((), (("i0", 1.0), ("i1", 1.0 + delta)), vertices)


_SPECTRUM_CASES = ((_ring, (0.5, 400.0)), (_dirichlet_pair, (1.0, 100.0)))


def test_spectrum_decompositions_do_not_grow_with_the_candidates(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    for build, window in _SPECTRUM_CASES:
        gbc = assemble(build())
        calls.clear()
        result = spectrum(gbc, *window)
        assert len(result.eigenvalues) >= 3
        step = max(1, scattering.CHUNK_ENTRIES // (gbc.n + 2 * gbc.m) ** 2)
        scan_batches = -(-result.grid_points // step)
        # the scan, one stacked call per golden step, the first probes and
        # the residuals, however many candidates are refined
        assert len(calls) <= scan_batches + scattering.GOLDEN_ITERATIONS + 3


def _scalar_golden_minimize(f, lo, hi, iterations=scattering.GOLDEN_ITERATIONS):
    """One-bracket golden-section search: the reference of the lockstep one."""
    golden = scattering._GOLDEN
    c = hi - golden * (hi - lo)
    d = lo + golden * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - golden * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + golden * (hi - lo)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def test_lockstep_refinement_equals_the_scalar_search():
    for build, (e_min, e_max) in _SPECTRUM_CASES:
        gbc = assemble(build())
        result = spectrum(gbc, e_min, e_max)
        grid = result.grid_points
        ks = np.linspace(np.sqrt(e_min), np.sqrt(e_max), grid)
        sigmas = scattering._smallest_sigmas(gbc, ks)
        brackets = []
        for i in range(grid):
            left = sigmas[i - 1] if i > 0 else np.inf
            right = sigmas[i + 1] if i + 1 < grid else np.inf
            if sigmas[i] <= left and sigmas[i] <= right and sigmas[i] < 1e-2:
                brackets.append((ks[max(i - 1, 0)], ks[min(i + 1, grid - 1)]))
        assert len(brackets) >= 3

        def sigma_min(k):
            return float(scattering._smallest_sigmas(gbc, [k])[0])

        expected = np.array([_scalar_golden_minimize(sigma_min, lo, hi)
                             for lo, hi in brackets])
        k_star, r_star = scattering._golden_minimize(
            lambda k: scattering._smallest_sigmas(gbc, k), *np.array(brackets).T)
        assert np.array_equal(k_star, expected[:, 0])
        assert np.array_equal(r_star, expected[:, 1])
        assert set(result.eigenvalues) <= {float(k ** 2) for k in expected[:, 0]}


def test_spectrum_window_excludes_left_edge_only():
    gbc = assemble(_ring())
    assert_allclose(spectrum(gbc, np.pi ** 2, 50.0).eigenvalues, [4 * np.pi ** 2],
                    rtol=1e-8)
    assert_allclose(spectrum(gbc, 1.0, np.pi ** 2).eigenvalues, [np.pi ** 2],
                    rtol=1e-8)


@pytest.mark.parametrize("k_lo, count", [(1e6, 4), (3.2e7, 3)])
def test_high_k_ring_windows_return_every_eigenvalue(k_lo, count):
    # jπ in (k_lo, k_lo + 10]: merging and the left edge are judged in k on
    # the grid step, so neighbours π apart stay apart and none is taken for
    # the edge
    gbc = assemble(_ring())
    result = spectrum(gbc, k_lo ** 2, (k_lo + 10.0) ** 2)
    j = np.arange(np.floor(k_lo / np.pi) + 1, np.floor((k_lo + 10.0) / np.pi) + 1)
    assert len(j) == count
    assert_allclose(np.sqrt(result.eigenvalues), j * np.pi, rtol=1e-14)
    assert all(r < scattering.SINGULAR_TOL for r in result.residuals)


def test_high_k_left_edge_is_excluded():
    gbc = assemble(_ring())
    j = np.floor(1e6 / np.pi)
    k_lo = j * np.pi
    result = spectrum(gbc, k_lo ** 2, (k_lo + 10.0) ** 2)
    assert_allclose(np.sqrt(result.eigenvalues), (j + np.arange(1, 4)) * np.pi,
                    rtol=1e-14)


def test_solve_scattering_validates_never_and_decomposes_once(monkeypatch):
    gbc = assemble(_ring())
    counts = dict.fromkeys(("validate", "measure_admissibility"), 0)
    svd_shapes, solve_shapes, inv_shapes = [], [], []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(boundary, "validate")
    counting(boundary, "measure_admissibility")
    svd, solve, inv = np.linalg.svd, np.linalg.solve, np.linalg.inv
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: svd_shapes.append(np.shape(a))
                        or svd(a, *args, **kw))
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solve_shapes.append((np.shape(a), np.shape(b)))
                        or solve(a, b))
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: inv_shapes.append(np.shape(a)) or inv(a))
    res = solve_scattering(gbc, 2.0)
    assert counts == {"validate": 0, "measure_admissibility": 0}
    # one solve for the two 3 x 3 vertex S-matrices, one of the 4 x 4 bond
    # matrix for the two channels
    assert solve_shapes == [((1, 2, 3, 3), (1, 2, 3, 3)), ((1, 4, 4), (1, 4, 2))]
    # one inverse of the bond matrix certifies the energy regular; the only
    # SVD is the 2 x 2 S block's defect
    assert inv_shapes == [(1, 4, 4)]
    assert svd_shapes == [(1, 2, 2)]
    assert res.solve_path == scattering.REGULAR
    # B = I - diag(K, K) J T, with the kirchhoff block K on the two internal
    # ends of each vertex: the bound is 1/||B^{-1}||_F, below sigma_min(B)
    k_block = 2.0 / 3.0 * np.ones((2, 2)) - np.eye(2)
    jt = np.kron([[0, 1], [1, 0]], np.exp(1j * np.sqrt(2.0)) * np.eye(2))
    bond = np.eye(4) - np.kron(np.eye(2), k_block) @ jt
    assert res.sigma_min_bound == pytest.approx(
        1.0 / np.linalg.norm(inv(bond), "fro"), rel=1e-13)
    assert res.sigma_min_bound <= svd(bond, compute_uv=False)[-1]


def _delta_chain(junctions, rng):
    """External ``l`` - delta - e0 - delta - ... - delta - external ``r``, with
    lengths in [0.5, 1.5] and strengths in [-1, 1]."""
    internals = tuple((f"e{j}", float(a))
                      for j, a in enumerate(rng.uniform(0.5, 1.5, junctions - 1)))
    vertices = []
    for j in range(junctions):
        left = ext_ref("l") if j == 0 else int_ref(f"e{j - 1}", "a")
        right = ext_ref("r") if j == junctions - 1 else int_ref(f"e{j}", "0")
        vertices.append(Vertex((left, right), delta_coupling(float(rng.uniform(-1, 1)))))
    return MetricGraph(("l", "r"), internals, tuple(vertices))


def test_the_inverse_bound_never_exceeds_sigma_min():
    rng = np.random.default_rng(11)
    gbcs = list(_fixture_gbcs())
    gbcs += [assemble(selftest._random_graph(rng)[0]) for _ in range(20)]
    gbcs.append(assemble(_delta_chain(200, rng)))
    tol = scattering.SINGULAR_TOL
    for gbc in gbcs:
        # the ring's two eigenvalues put minimum-norm rows among the regular ones
        energies = np.concatenate([rng.uniform(0.3, 200.0, size=5),
                                   [np.pi ** 2, (2 * np.pi) ** 2]])
        bonds = scattering._scattered(gbc, np.sqrt(energies))[0][:, gbc.n:, gbc.n:]
        for res, bond in zip(scattering.solve_many(gbc, energies), bonds):
            sigma_min = np.linalg.svd(bond)[1][-1] if gbc.m else 1.0
            assert res.sigma_min_bound <= sigma_min
            assert res.at_eigenvalue == (sigma_min < tol)
            assert res.solve_path == (scattering.MINIMUM_NORM if sigma_min < tol
                                      else scattering.REGULAR)


def test_a_failed_or_non_finite_inverse_leaves_the_results_unchanged(monkeypatch):
    gbcs = [assemble(_ring()), assemble(_delta_chain(12, np.random.default_rng(13)))]
    energies = [0.5, np.pi ** 2, 2.9, 8.8, (2 * np.pi) ** 2, 26.0]
    expected = [scattering.solve_many(gbc, energies) for gbc in gbcs]
    inv = np.linalg.inv

    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    for patched in (singular, lambda a: np.full_like(inv(a), np.nan),
                    lambda a: np.full_like(inv(a), np.inf)):
        monkeypatch.setattr(np.linalg, "inv", patched)
        for gbc, want in zip(gbcs, expected):
            # every energy then goes to the SVD, which decides alike
            for a, b in zip(scattering.solve_many(gbc, energies), want):
                for name in ("s", "alpha", "beta"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))
                assert (a.at_eigenvalue, a.solve_path, a.unitarity_defect) == \
                    (b.at_eigenvalue, b.solve_path, b.unitarity_defect)
                assert a.sigma_min_bound >= b.sigma_min_bound


def test_regular_energies_of_a_long_chain_take_no_svd_of_the_bond_matrix(monkeypatch):
    rng = np.random.default_rng(14)
    gbc = assemble(_delta_chain(200, rng))
    energies = rng.uniform(20.0, 400.0, size=4)
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: shapes.append(np.shape(a))
                        or svd(a, *args, **kw))
    results = scattering.solve_many(gbc, energies)
    assert [r.solve_path for r in results] == [scattering.REGULAR] * 4
    # one energy per batch at 2m = 398: the only SVD is the S block's defect
    assert shapes == [(1, 2, 2)] * 4


def test_transforms_inherit_admissibility(monkeypatch):
    rng = np.random.default_rng(9)
    v0 = Vertex((ext_ref("l1"), int_ref("b", "0")), random_bc(2, rng))
    v1 = Vertex((int_ref("b", "a"), ext_ref("l2"), ext_ref("l3")), random_bc(3, rng))
    graphs = [_ring(), MetricGraph(("l1", "l2", "l3"), (("b", 0.8),), (v0, v1))]
    measured, solved = [], []
    measure, solve = boundary.measure_admissibility, scattering.solve_scattering
    monkeypatch.setattr(boundary, "measure_admissibility",
                        lambda bc: measured.append(bc) or measure(bc))
    monkeypatch.setattr(scattering, "solve_scattering",
                        lambda gbc, e: solved.append(gbc) or solve(gbc, e))
    for gbc in map(assemble, graphs):
        for e in (0.7, 2.9):
            assert check_transpose(gbc, e) < 1e-10
            assert check_duality(gbc, e) < 1e-10
    assert measured == []
    # the conjugate and the dual pair carry the exact numbers of the source:
    # a fresh measurement agrees to rounding
    assert len(solved) == 16
    for gbc in solved:
        got, fresh = gbc.admissibility_numbers(), measure(gbc.bc)
        assert_allclose(got.singular_values, fresh.singular_values, rtol=1e-13)
        assert abs(got.hermiticity_defect - fresh.hermiticity_defect) <= 1e-13
        assert abs(got.reality_defect - fresh.reality_defect) <= 1e-13


def test_is_real_is_tested_once_per_global_bc(monkeypatch):
    # a real vertex next to one with a magnetic phase: the graph is not real
    mixed = MetricGraph(("l1", "l2"), (("m", 0.8),),
                        (Vertex((ext_ref("l1"), int_ref("m", "0")),
                                delta_coupling(1.0, mu=0.7)),
                         Vertex((int_ref("m", "a"), ext_ref("l2")), delta_coupling(0.5))))
    graphs = [_ring(), _two_vertex_graph(12), mixed]
    tested, solved = [], []
    measure, solve = boundary.measure_admissibility, scattering.solve_scattering
    monkeypatch.setattr(boundary, "measure_admissibility",
                        lambda bc: tested.append(bc) or measure(bc))
    monkeypatch.setattr(scattering, "solve_scattering",
                        lambda gbc, e: solved.append(gbc) or solve(gbc, e))
    for gbc in map(assemble, graphs):
        before = len(tested)
        for e in (0.7, 1.3, 2.9, 5.0, 14.0):
            assert check_transpose(gbc, e) < 1e-10
        assert len(tested) - before <= 1
    monkeypatch.undo()
    # the conjugate pair inherits the verdict of its source
    assert len(solved) == 30
    for gbc in solved:
        assert gbc.is_real() == boundary.is_real(gbc.bc)
    assert [assemble(g).is_real() for g in graphs] == [True, False, False]


def test_covariance_measures_the_rotated_pair(monkeypatch):
    rng = np.random.default_rng(13)
    gbcs = [assemble(_ring()), assemble(_two_vertex_graph(13))]
    measured, solved = [], []
    measure, solve = boundary.measure_admissibility, scattering.solve_scattering
    monkeypatch.setattr(boundary, "measure_admissibility",
                        lambda bc: measured.append(bc) or measure(bc))
    monkeypatch.setattr(scattering, "solve_scattering",
                        lambda gbc, e: solved.append(gbc) or solve(gbc, e))
    for gbc in gbcs:
        for e in (0.7, 2.9):
            assert check_covariance(gbc, random_unitary(gbc.n, rng), e) < 1e-10
    # one measurement per call: the rotated pair's own
    assert len(measured) == 4
    assert len(solved) == 8
    for gbc in solved:
        got, fresh = gbc.admissibility_numbers(), measure(gbc.bc)
        assert_allclose(got.singular_values, fresh.singular_values, rtol=1e-13)
        assert abs(got.hermiticity_defect - fresh.hermiticity_defect) <= 1e-13
    # a channel matrix off unitarity by more than 1e-12
    u = (1.0 + 1e-11) * random_unitary(gbcs[1].n, rng)
    assert numkernel.unitarity_defect(u) > 1e-12
    assert check_covariance(gbcs[1], u, 1.3) < 1e-9
    assert len(measured) == 5
    # a complex channel phase makes the real ring's rotated pair non-real,
    # so inheriting the source's numbers would give it the wrong verdict
    solved.clear()
    assert check_covariance(gbcs[0], np.diag([1.0, np.exp(0.3j)]), 2.9) < 1e-10
    source, rotated = gbcs[0], solved[-1]
    assert source.is_real() and not rotated.is_real()
