import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from artifact import numkernel
from artifact.numkernel import (as_complex_matrix, determinant, pseudoinverse,
                                unitarity_defect)


def _random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


@st.composite
def complex_matrices(draw, max_dim=6):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2 ** 31))
    return _random_complex(np.random.default_rng(seed), rows, cols)


def test_as_complex_matrix_coerces_and_checks():
    m = as_complex_matrix([[1, 2], [3, 4]], "m")
    assert m.dtype == np.complex128
    with pytest.raises(ValueError):
        as_complex_matrix([1, 2, 3], "m")
    with pytest.raises(ValueError):
        as_complex_matrix([[np.inf, 0], [0, 1]], "m")
    with pytest.raises(ValueError):
        as_complex_matrix([[np.nan, 0], [0, 1]], "m")


def test_determinant_known_values():
    assert determinant(np.empty((0, 0))) == 1.0
    assert_allclose(determinant(np.array([[1.0, 2.0], [3.0, 4.0]])), -2.0)
    rng = np.random.default_rng(11)
    a = _random_complex(rng, 4, 4)
    b = _random_complex(rng, 4, 4)
    assert_allclose(determinant(a @ b), determinant(a) * determinant(b),
                    rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(complex_matrices())
def test_pseudoinverse_penrose_equations(m):
    p = pseudoinverse(m)
    assert p.shape == (m.shape[1], m.shape[0])
    assert_allclose(m @ p @ m, m, atol=1e-10)
    assert_allclose(p @ m @ p, p, atol=1e-10)
    assert_allclose((m @ p).conj().T, m @ p, atol=1e-10)
    assert_allclose((p @ m).conj().T, p @ m, atol=1e-10)


def test_pseudoinverse_rank_deficient_and_zero():
    rng = np.random.default_rng(3)
    u = _random_complex(rng, 5, 2)
    v = _random_complex(rng, 2, 4)
    m = u @ v  # rank two
    p = pseudoinverse(m)
    assert_allclose(m @ p @ m, m, atol=1e-10)
    z = np.zeros((3, 4))
    assert_allclose(pseudoinverse(z), np.zeros((4, 3)))
    # inverse of an invertible matrix
    sq = _random_complex(rng, 4, 4) + 4.0 * np.eye(4)
    assert_allclose(pseudoinverse(sq) @ sq, np.eye(4), atol=1e-10)


def test_unitarity_defect():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(_random_complex(rng, 5, 5))
    assert unitarity_defect(q) < 1e-14
    assert_allclose(unitarity_defect(2.0 * np.eye(3)), 3.0)


def test_spectral_norms_equal_the_norm_reference():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 6):
        stack = _random_complex(rng, 4 * n, n).reshape(4, n, n)
        norms = numkernel.spectral_norms(stack)
        assert np.array_equal(norms, np.linalg.norm(stack, 2, axis=(1, 2)))
        for m, norm in zip(stack, norms):
            assert numkernel.spectral_norm(m) == norm
            assert (numkernel.hermiticity_defect(m)
                    == np.linalg.norm(m - m.conj().T, 2))
        assert np.array_equal(numkernel.unitarity_defects(stack), [
            np.linalg.norm(m.conj().T @ m - np.eye(n), 2) for m in stack])
    assert numkernel.spectral_norm(np.zeros((0, 3))) == 0.0
    assert numkernel.hermiticity_defect(np.zeros((0, 0))) == 0.0
