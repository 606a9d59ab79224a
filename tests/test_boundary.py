import numpy as np
import pytest
from numpy.testing import assert_allclose

from artifact import boundary, numkernel, scattering
from artifact.boundary import (BoundaryCondition, DimensionMismatch,
                               InvalidBoundaryCondition, InvalidParameters,
                               canonicalize, cyclic_coupling, delta_coupling,
                               delta_prime, dirichlet, dual, equivalent,
                               is_real, kirchhoff_standard, localize, neumann,
                               random_bc, random_unitary, require_valid, robin,
                               scale_invariant, sl2_coupling, validate,
                               vertex_smatrices, von_neumann_parameter)


def test_construction_coerces_and_freezes():
    bc = BoundaryCondition([[1, 0], [0, 1]], [[0, 0], [0, 0]])
    assert bc.dim == 2
    assert bc.A.dtype == np.complex128
    with pytest.raises(ValueError):
        bc.A[0, 0] = 5.0
    with pytest.raises(DimensionMismatch):
        BoundaryCondition(np.eye(2), np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        BoundaryCondition(np.ones((2, 3)), np.ones((2, 3)))


def test_named_constructors_are_admissible():
    cases = [dirichlet(4), neumann(3), robin(0.3), kirchhoff_standard(5),
             delta_coupling(1.7), delta_coupling(0.0, mu=1.1),
             delta_prime(-2.0), sl2_coupling(2.0, 1.0, 1.0, 1.0, 0.4),
             cyclic_coupling(0.5, 5)]
    for bc in cases:
        report = validate(bc)
        assert report.ok, report
        require_valid(bc)  # should not raise


def test_kirchhoff_matrices_explicit():
    bc = kirchhoff_standard(3)
    expected_a = np.array([[1, -1, 0], [0, 1, -1], [0, 0, 0]], dtype=complex)
    expected_b = np.array([[0, 0, 0], [0, 0, 0], [1, 1, 1]], dtype=complex)
    assert_allclose(bc.A, expected_a)
    assert_allclose(bc.B, expected_b)
    # a one-line "junction" degenerates to a Neumann end
    assert_allclose(kirchhoff_standard(1).B, [[1.0]])


def test_robin_interpolates_dirichlet_neumann():
    assert_allclose(robin(np.pi / 2).A, [[1.0]])
    assert_allclose(robin(0.0).B, [[1.0]])
    assert equivalent(robin(np.pi / 2), dirichlet(1))
    assert equivalent(robin(0.0), neumann(1))
    with pytest.raises(InvalidParameters):
        robin(np.inf)


def test_delta_couplings_are_sl2_special_cases():
    assert equivalent(delta_coupling(1.3), sl2_coupling(1.0, 0.0, 1.3, 1.0))
    assert equivalent(delta_prime(-0.4), sl2_coupling(1.0, -0.4, 0.0, 1.0))


def test_sl2_rejects_bad_parameters():
    with pytest.raises(InvalidParameters):
        sl2_coupling(1.0, 1.0, 1.0, 1.0)  # ad - bc = 0
    with pytest.raises(InvalidParameters):
        sl2_coupling(np.nan, 0.0, 0.0, 1.0)
    with pytest.raises(InvalidParameters):
        sl2_coupling(1.0 + 1.0j, 0.0, 0.0, 1.0)


def test_cyclic_coupling_contract():
    bc = cyclic_coupling(2.0, 5)
    assert validate(bc).ok
    assert is_real(bc)
    assert_allclose(bc.A, np.eye(5))
    assert bc.B[0, 1] == 2.0 and bc.B[0, 4] == 2.0 and bc.B[0, 2] == 0.0
    with pytest.raises(InvalidParameters):
        cyclic_coupling(1.0, 4)  # even size
    with pytest.raises(InvalidParameters):
        cyclic_coupling(1.0, 1)
    with pytest.raises(InvalidParameters):
        cyclic_coupling(1.0j, 3)


def _cyclic_shift_pair(couplings):
    """A = I + shift, B_j = c_j (I - shift) rowwise; admissibility is delicate."""
    n = len(couplings)
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    for j in range(n):
        a[j, j] = 1.0
        a[j, (j + 1) % n] = 1.0
        b[j, j] = couplings[j]
        b[j, (j + 1) % n] = -couplings[j]
    return BoundaryCondition(a, b)


def test_shift_pair_admissible_only_for_equal_imaginary_couplings():
    # A B^dagger is c (shift - shift^{-1}) up to conjugation: skew for real c,
    # Hermitian for purely imaginary c, and never Hermitian for unequal c_j.
    ok = validate(_cyclic_shift_pair([1.5j, 1.5j, 1.5j]))
    assert ok.ok and not ok.is_real_bc
    bad_real = validate(_cyclic_shift_pair([1.5, 1.5, 1.5]))
    assert bad_real.rank_ok and not bad_real.hermitian_ok
    bad_mixed = validate(_cyclic_shift_pair([1.0j, 2.0j, 1.0j]))
    assert not bad_mixed.hermitian_ok


def test_rank_deficiency_detected():
    report = validate(BoundaryCondition([[1, 0], [0, 0]], np.zeros((2, 2))))
    assert not report.rank_ok
    assert report.rank_found == 1
    with pytest.raises(InvalidBoundaryCondition):
        require_valid(BoundaryCondition(np.zeros((2, 2)), np.zeros((2, 2))))


def test_equivalence_under_invertible_row_action():
    rng = np.random.default_rng(42)
    bc = random_bc(4, rng)
    for _ in range(100):
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c += 3.0 * np.eye(4)  # keep it comfortably invertible
        scaled = BoundaryCondition(c @ bc.A, c @ bc.B)
        assert equivalent(bc, scaled)
        assert equivalent(scaled, bc)


def test_equivalence_is_discriminating():
    assert not equivalent(dirichlet(2), neumann(2))
    assert not equivalent(delta_coupling(1.0), delta_coupling(2.0))
    with pytest.raises(DimensionMismatch):
        equivalent(dirichlet(2), dirichlet(3))


def test_validate_ignores_the_scale_of_a_row():
    # the rows of delta_coupling(c) differ in scale by about c; dividing the
    # second one by c gives the same condition and must get the same verdict
    for c in (1e10, 1e12, 1e14):
        bc = delta_coupling(c)
        rows = np.array([[1.0], [1.0 / c]])
        scaled = BoundaryCondition(rows * bc.A, rows * bc.B)
        report, other = validate(bc), validate(scaled)
        assert report.ok and report.is_real_bc, c
        assert (other.ok, other.rank_found, other.is_real_bc) == (
            report.ok, report.rank_found, report.is_real_bc), c
        assert equivalent(bc, scaled) and equivalent(scaled, bc), c


def test_canonicalize_idempotent_and_class_invariant():
    rng = np.random.default_rng(8)
    for n in (1, 2, 4):
        bc = random_bc(n, rng)
        canon = canonicalize(bc)
        again = canonicalize(canon)
        assert_allclose(canon.A, again.A, atol=1e-12)
        assert_allclose(canon.B, again.B, atol=1e-12)
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        other = canonicalize(BoundaryCondition(c @ bc.A, c @ bc.B))
        assert_allclose(canon.A, other.A, atol=1e-9)
        assert_allclose(canon.B, other.B, atol=1e-9)
        assert equivalent(bc, canon)
    # the Cayley pair (I - S(1), -i (I + S(1))) of S(1) = -I and S(1) = I
    for n in (1, 3, 5):
        canon = canonicalize(dirichlet(n))
        assert np.array_equal(canon.A, 2.0 * np.eye(n))
        assert np.array_equal(canon.B, np.zeros((n, n)))
        canon = canonicalize(neumann(n))
        assert np.array_equal(canon.A, np.zeros((n, n)))
        assert np.array_equal(canon.B, -2j * np.eye(n))


def test_canonicalize_requires_admissible_input():
    with pytest.raises(InvalidBoundaryCondition):
        canonicalize(BoundaryCondition(np.zeros((2, 2)), np.zeros((2, 2))))


def test_dual_swaps_coefficient_ranks():
    bc = kirchhoff_standard(3)  # n=3 external lines, no intervals
    d = dual(bc, 3, 0)
    assert (np.linalg.matrix_rank(d.A, rtol=1e-10)
            == np.linalg.matrix_rank(bc.B, rtol=1e-10))
    assert (np.linalg.matrix_rank(d.B, rtol=1e-10)
            == np.linalg.matrix_rank(bc.A, rtol=1e-10))
    assert validate(d).ok
    # involution up to equivalence
    assert equivalent(dual(d, 3, 0), bc)


def test_dual_sign_structure_and_errors():
    bc = random_bc(3, 12)  # one external line plus one interval: 1 + 2*1
    d = dual(bc, 1, 1)
    t = np.diag([1.0, 1.0, -1.0])
    assert_allclose(d.A, -bc.B @ t)
    assert_allclose(d.B, bc.A @ t)
    assert equivalent(dual(d, 1, 1), bc)
    with pytest.raises(DimensionMismatch):
        dual(bc, 2, 2)
    with pytest.raises(InvalidParameters):
        dual(bc, -1, 2)


def test_reality():
    assert is_real(kirchhoff_standard(4))
    assert is_real(delta_coupling(1.0))
    assert is_real(delta_prime(-0.8))
    # a magnetic phase breaks time-reversal symmetry
    assert not is_real(delta_coupling(1.0, mu=0.7))


def test_reality_number_agrees_with_the_equivalence_reference():
    rng = np.random.default_rng(71)
    pairs = [dirichlet(3), neumann(2), robin(0.3), kirchhoff_standard(5),
             delta_coupling(1.7), delta_coupling(1.0, mu=0.7), delta_prime(-0.8),
             sl2_coupling(2.0, 1.0, 1.0, 1.0), sl2_coupling(2.0, 1.0, 1.0, 1.0, mu=0.2),
             cyclic_coupling(0.4, 5)]
    pairs += [_cyclic_shift_pair(c) for c in
              ([1.5j, 1.5j, 1.5j], [1.5, 1.5, 1.5], [1.0j, 2.0j, 1.0j], [0.5j] * 5)]
    pairs += [random_bc(n, rng) for n in (1, 2, 3, 4, 6) for _ in range(8)]
    # real pairs (A, A S) with S symmetric, so A B^T = A S A^T is symmetric,
    # behind a complex row operation G: G (A B^T - B A^T) G^T = 0 keeps them real
    for n in (1, 2, 3, 5):
        for _ in range(8):
            a = rng.normal(size=(n, n))
            x = rng.normal(size=(n, n))
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            pairs.append(BoundaryCondition(g @ a, g @ a @ (x + x.T)))
    verdicts = []
    for bc in pairs:
        numbers = boundary.measure_admissibility(bc)
        reference = equivalent(bc, bc.conjugate())
        assert numbers.real() == is_real(bc) == reference, bc
        assert validate(bc).is_real_bc == (reference and numbers.admissible())
        verdicts.append(reference)
    assert 0 < sum(verdicts) < len(verdicts)


def test_scale_invariance_means_energy_independent_smatrix():
    invariant = [dirichlet(2), neumann(2), kirchhoff_standard(3), kirchhoff_standard(5)]
    varying = [robin(np.pi / 4), delta_coupling(1.0), delta_prime(0.5)]
    for bc in invariant:
        assert scale_invariant(bc)
        s1 = scattering.smatrix_single_vertex(bc, 1.0)
        s7 = scattering.smatrix_single_vertex(bc, 7.0)
        assert numkernel.spectral_norm(s1 - s7) < 1e-10
    for bc in varying:
        assert not scale_invariant(bc)
    # (C (I - P), C P) with P an orthogonal projector has S = 2P - I at every
    # energy; a Haar pair (I - U, i (U + I)) has S(1) = U^dagger, not Hermitian
    rng = np.random.default_rng(52)
    for i in range(100):
        n = 1 + i % 6
        q = random_unitary(n, rng)[:, :int(rng.integers(0, n + 1))]
        p = q @ q.conj().T
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        bc = BoundaryCondition(c @ (np.eye(n) - p), c @ p)
        assert scale_invariant(bc), i
        assert not scale_invariant(random_bc(n, rng)), i


def test_structure_ignores_a_uniform_scale_of_the_pair():
    # equivalent pairs (cA, cB) of any size c > 0 get the answers of (A, B)
    for bc, invariant, blocks in [
            (delta_coupling(1.3), False, ((0, 1),)),
            (kirchhoff_standard(3), True, ((0, 1, 2),)),
            (dirichlet(2), True, ((0,), (1,)))]:
        canon = canonicalize(bc)
        assert scale_invariant(bc) == invariant
        assert localize(bc).blocks == blocks
        for scale in (1e-20, 1e-13, 1e8, 1e20):
            scaled = BoundaryCondition(scale * bc.A, scale * bc.B)
            assert validate(scaled).ok
            assert scale_invariant(scaled) == invariant, scale
            assert localize(scaled).blocks == blocks, scale
            other = canonicalize(scaled)
            assert_allclose(other.A, canon.A, atol=1e-14)
            assert_allclose(other.B, canon.B, atol=1e-14)


def test_vertex_smatrices_stack_matches_the_explicit_inverse():
    # one (K, V, n, n) stack: every entry is -(A + ikB)^{-1} (A - ikB) of its
    # pair and wavenumber, unitary, and S(-k) is its adjoint
    rng = np.random.default_rng(217)
    ks = np.array([0.3, 1.0, 2.5, 40.0])
    for n in (1, 2, 5):
        pairs = [random_bc(n, rng) for _ in range(3)]
        pairs += [delta_coupling(1.7, mu=0.4) if n == 2 else kirchhoff_standard(n)]
        a_blocks = np.stack([bc.A for bc in pairs])
        b_blocks = np.stack([bc.B for bc in pairs])
        stack = vertex_smatrices(a_blocks, b_blocks, ks)
        assert stack.shape == (len(ks), len(pairs), n, n)
        backward = vertex_smatrices(a_blocks, b_blocks, -ks)
        for i, k in enumerate(ks):
            for v, bc in enumerate(pairs):
                s = stack[i, v]
                direct = -np.linalg.inv(bc.A + 1j * k * bc.B) @ (bc.A - 1j * k * bc.B)
                assert_allclose(s, direct, atol=1e-12)
                assert numkernel.unitarity_defect(s) < 1e-12
                assert_allclose(backward[i, v], s.conj().T, atol=1e-12)
    for n in (1, 3):
        named = vertex_smatrices(np.stack([dirichlet(n).A, neumann(n).A]),
                                 np.stack([dirichlet(n).B, neumann(n).B]), ks)
        assert np.array_equal(named[:, 0], np.broadcast_to(-np.eye(n), (len(ks), n, n)))
        assert np.array_equal(named[:, 1], np.broadcast_to(np.eye(n), (len(ks), n, n)))


def test_vertex_smatrices_are_invariant_under_row_operations():
    # equivalent pairs (CA, CB) have the same S(k): the invariant that
    # canonicalize, scale_invariant and localize read at k = 1
    rng = np.random.default_rng(218)
    ks = [0.5, 1.0, 3.0]
    for i in range(60):
        n = 1 + i % 6
        bc = random_bc(n, rng)
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        reference = vertex_smatrices(bc.A[None], bc.B[None], ks)
        moved = vertex_smatrices((c @ bc.A)[None], (c @ bc.B)[None], ks)
        assert np.abs(moved - reference).max() < 1e-10, i


def test_random_bc_is_always_admissible():
    rng = np.random.default_rng(2024)
    for i in range(500):
        n = 1 + i % 8
        report = validate(random_bc(n, rng))
        assert report.ok


def test_random_bc_seed_reproducible():
    first = random_bc(4, 99)
    second = random_bc(4, 99)
    assert_allclose(first.A, second.A)
    assert_allclose(first.B, second.B)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        u = random_unitary(n, rng)
        assert numkernel.unitarity_defect(u) < 1e-13


def test_von_neumann_parameter_named_values_exact():
    for n in (1, 3, 5):
        w = von_neumann_parameter(neumann(n))
        assert np.array_equal(w, 1j * np.eye(n))
        w = von_neumann_parameter(dirichlet(n))
        assert np.array_equal(w, -np.eye(n))


def test_von_neumann_parameter_unitary_and_guarded():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        w = von_neumann_parameter(random_bc(n, rng))
        assert numkernel.unitarity_defect(w) < 1e-10
    with pytest.raises(InvalidBoundaryCondition):
        von_neumann_parameter(BoundaryCondition(np.zeros((2, 2)), np.zeros((2, 2))))


def test_von_neumann_parameter_is_the_adjoint_unit_smatrix_of_the_shifted_pair():
    rng = np.random.default_rng(207)
    pairs = [dirichlet(3), neumann(2), robin(0.3), kirchhoff_standard(4),
             delta_coupling(1.7, mu=0.4), delta_prime(-0.8), cyclic_coupling(0.4, 5)]
    pairs += [random_bc(1 + i % 6, rng) for i in range(200)]
    for bc in pairs:
        a, b = bc.A - bc.B / np.sqrt(2.0), bc.B / np.sqrt(2.0)
        s_one = -np.linalg.inv(a + 1j * b) @ (a - 1j * b)
        assert np.abs(von_neumann_parameter(bc) - s_one.conj().T).max() <= 1e-14, bc


def test_identity_minus_unitary_pair_reduces_to_neumann():
    # U = I in the Cayley-style parametrization gives (0, 2i I)
    bc = BoundaryCondition(np.zeros((3, 3)), 2j * np.eye(3))
    assert equivalent(bc, neumann(3))


def test_localize_single_block_for_coupled_junction():
    part = localize(kirchhoff_standard(4))
    assert part.blocks == ((0, 1, 2, 3),)


def test_localize_finds_block_structure():
    b1 = robin(0.4)
    b2 = delta_coupling(1.2)
    a = np.zeros((3, 3), dtype=complex)
    b = np.zeros((3, 3), dtype=complex)
    a[:1, :1] = b1.A
    b[:1, :1] = b1.B
    a[1:, 1:] = b2.A
    b[1:, 1:] = b2.B
    part = localize(BoundaryCondition(a, b))
    assert part.blocks == ((0,), (1, 2))


def test_localize_tracks_endpoint_permutation():
    rng = np.random.default_rng(17)
    left = random_bc(2, rng)
    right = random_bc(3, rng)
    a = np.zeros((5, 5), dtype=complex)
    b = np.zeros((5, 5), dtype=complex)
    a[:2, :2] = left.A
    b[:2, :2] = left.B
    a[2:, 2:] = right.A
    b[2:, 2:] = right.B
    perm = [3, 0, 4, 1, 2]  # new endpoint j carries old endpoint perm[j]
    bc = BoundaryCondition(a[:, perm], b[:, perm])
    where = {old: new for new, old in enumerate(perm)}
    expected = {tuple(sorted(where[e] for e in (0, 1))),
                tuple(sorted(where[e] for e in (2, 3, 4)))}
    part = localize(bc)
    assert {tuple(blk) for blk in part.blocks} == expected


def test_localize_dirichlet_is_fully_decoupled():
    assert localize(dirichlet(4)).blocks == ((0,), (1,), (2,), (3,))
