import functools

import numpy as np
import pytest

from upbkit import (
    CanonicalAngles,
    DensityMatrix,
    PartitionCut,
    build_canonical,
    complement_basis,
    eigh,
    fidelity,
    fidelity_projector_form,
    partial_trace,
    partial_transpose,
    psd_sqrt,
    shifts,
    state_of,
)
from upbkit.linalg import kron_all, random_density_matrix, trace_distance

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return DensityMatrix((2, 2), np.outer(v, v.conj()))


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron_all([np.eye(2), np.eye(2)]), np.eye(4))

    def test_projectors(self):
        p = np.diag([1.0, 0.0])
        assert np.array_equal(kron_all([p, p]), np.diag([1.0, 0, 0, 0]))

    def test_pauli_product(self):
        # direct 4x4 hand expansion of sigma_x (x) sigma_z
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1
        expected[1, 3] = -1
        expected[2, 0] = 1
        expected[3, 1] = -1
        assert np.abs(kron_all([SX, SZ]) - expected).max() == 0

    @pytest.mark.parametrize("shape", [(2,), (3,), (2, 2)])
    def test_matches_numpy_kron_bitwise(self, shape):
        rng = np.random.default_rng(61)
        for n in (1, 2, 3):
            factors = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(n)]
            assert np.array_equal(kron_all(factors), functools.reduce(np.kron, factors))


class TestPartialTrace:
    def test_canonical_state_marginal_is_maximally_mixed(self):
        rho = state_of(build_canonical(CanonicalAngles(0.9, 1.7, 2.3)))
        for party in range(3):
            marg = partial_trace(rho, {party})
            assert np.abs(marg.matrix - np.eye(2) / 2).max() < 1e-12

    def test_pure_product(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1
        rho = DensityMatrix((2, 2), np.outer(v, v.conj()))
        marg = partial_trace(rho, {0})
        assert np.abs(marg.matrix - np.diag([1.0, 0.0])).max() < 1e-14

    def test_bell_marginal(self):
        marg = partial_trace(bell_state(), {0})
        assert np.abs(marg.matrix - np.eye(2) / 2).max() < 1e-14

    def test_trace_preserved(self):
        rng = np.random.default_rng(0)
        rho = random_density_matrix(rng, (2, 2, 2))
        for keep in ({0}, {1}, {2}, {0, 2}):
            assert abs(partial_trace(rho, keep).matrix.trace() - 1) < 1e-12

    def test_empty_keep_rejected(self):
        rho = random_density_matrix(np.random.default_rng(1), (2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, set())
        with pytest.raises(ValueError):
            partial_trace(rho, {5})


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(2)
        a = random_density_matrix(rng, (2,))
        b = random_density_matrix(rng, (4,))
        rho = DensityMatrix((2, 4), np.kron(a.matrix, b.matrix))
        pt = partial_transpose(rho, PartitionCut((0,), (1,)))
        w = np.linalg.eigvalsh(pt)
        assert w.min() > -1e-12
        assert np.abs(np.sort(w) - np.sort(np.linalg.eigvalsh(rho.matrix))).max() < 1e-12

    def test_bell_negative_eigenvalue(self):
        pt = partial_transpose(bell_state(), PartitionCut((0,), (1,)))
        assert abs(np.linalg.eigvalsh(pt).min() + 0.5) < 1e-12

    def test_bound_entangled_state_is_ppt_on_every_cut(self):
        rho = state_of(shifts())
        for cut in (((0,), (1, 2)), ((1,), (0, 2)), ((2,), (0, 1))):
            pt = partial_transpose(rho, PartitionCut(*cut))
            assert np.linalg.eigvalsh(pt).min() >= -1e-10

    def test_involution_is_exact(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(rng, (2, 2, 2))
        cut = PartitionCut((0,), (1, 2))
        back = partial_transpose(
            partial_transpose(rho, cut), cut, dims=(2, 2, 2)
        )
        assert np.array_equal(back, rho.matrix)

    def test_invalid_cut(self):
        rho = random_density_matrix(np.random.default_rng(4), (2, 2, 2))
        with pytest.raises(ValueError):
            partial_transpose(rho, PartitionCut((0,), (1,)))


class TestEigh:
    def test_identity(self):
        w, _ = eigh(np.eye(2))
        assert np.allclose(w, [1, 1])

    def test_pauli_x(self):
        w, v = eigh(SX)
        assert np.allclose(w, [-1, 1])
        minus, plus = v[:, 0], v[:, 1]
        assert abs(abs(np.vdot(plus, [1, 1] / np.sqrt(2))) - 1) < 1e-12
        assert abs(abs(np.vdot(minus, [1, -1] / np.sqrt(2))) - 1) < 1e-12

    def test_canonical_state_spectrum(self):
        rho = state_of(build_canonical(CanonicalAngles(2.0, 0.4, 1.1)))
        w, _ = eigh(rho.matrix)
        assert np.abs(w - np.array([0, 0, 0, 0, 0.25, 0.25, 0.25, 0.25])).max() < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            h = (g + g.conj().T) / 2
            w, v = eigh(h)
            assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPsdSqrt:
    def test_identity(self):
        assert np.abs(psd_sqrt(np.eye(3)) - np.eye(3)).max() < 1e-14

    def test_diagonal(self):
        assert np.abs(psd_sqrt(np.diag([4.0, 0.0])) - np.diag([2.0, 0.0])).max() < 1e-14

    def test_projector_algebra(self):
        rho = state_of(build_canonical(CanonicalAngles(1.3, 1.9, 0.6)))
        assert np.abs(psd_sqrt(rho.matrix) - 2 * rho.matrix).max() < 1e-12

    def test_square_reconstructs(self):
        rng = np.random.default_rng(6)
        m = random_density_matrix(rng, (2, 2)).matrix
        root = psd_sqrt(m)
        assert np.abs(root @ root - m).max() < 1e-9

    def test_true_negative_rejected(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -1e-6]))


class TestFidelity:
    def test_self(self):
        rho = random_density_matrix(np.random.default_rng(7), (2, 2))
        assert abs(fidelity(rho, rho) - 1) < 1e-12

    def test_orthogonal_supports(self):
        a = DensityMatrix((2,), np.diag([1.0, 0.0]))
        b = DensityMatrix((2,), np.diag([0.0, 1.0]))
        assert fidelity(a, b) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = random_density_matrix(rng, (2, 2))
            b = random_density_matrix(rng, (2, 2))
            assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-9

    def test_agrees_with_projector_form(self, shifts_class_upb, third_class_upb):
        rho_s = state_of(shifts_class_upb)
        rho_t = state_of(third_class_upb)
        p_perp = np.eye(8) - third_class_upb.span_projector
        f1 = fidelity(rho_t, rho_s)
        f2 = fidelity_projector_form(p_perp, rho_s)
        assert 0 < f1 < 1
        assert abs(f1 - f2) < 1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            fidelity(random_density_matrix(rng, (2,)), random_density_matrix(rng, (4,)))


class TestFidelityProjectorForm:
    def test_target_itself(self, third_class_upb):
        rho_t = state_of(third_class_upb)
        p_perp = np.eye(8) - third_class_upb.span_projector
        assert abs(fidelity_projector_form(p_perp, rho_t) - 1) < 1e-12

    def test_state_on_span(self, third_class_upb):
        p_perp = np.eye(8) - third_class_upb.span_projector
        member = third_class_upb.members[0].tensor
        rho = DensityMatrix((2, 2, 2), np.outer(member, member.conj()))
        assert fidelity_projector_form(p_perp, rho) < 1e-9

    def test_maximally_mixed(self, third_class_upb):
        p_perp = np.eye(8) - third_class_upb.span_projector
        rho = DensityMatrix((2, 2, 2), np.eye(8) / 8)
        assert abs(fidelity_projector_form(p_perp, rho) - np.sqrt(2) / 2) < 1e-12

    def test_agreement_on_random_states(self, third_class_upb):
        rng = np.random.default_rng(10)
        rho_t = state_of(third_class_upb)
        p_perp = np.eye(8) - third_class_upb.span_projector
        for _ in range(50):
            rho = random_density_matrix(rng, (2, 2, 2))
            assert abs(fidelity_projector_form(p_perp, rho) - fidelity(rho_t, rho)) < 1e-9

    def test_non_projector_rejected(self):
        rho = DensityMatrix((2, 2, 2), np.eye(8) / 8)
        with pytest.raises(ValueError):
            fidelity_projector_form(np.eye(8) * 0.5, rho)


class TestComplementBasis:
    def test_single_qubit(self):
        comp = complement_basis([np.array([1.0, 0.0])])
        assert comp.shape == (2, 1)
        assert abs(abs(comp[1, 0]) - 1) < 1e-14

    def test_upb_members(self):
        u = shifts()
        comp = complement_basis([m.tensor for m in u.members])
        assert comp.shape == (8, 4)
        assert np.abs(comp.conj().T @ comp - np.eye(4)).max() < 1e-12
        for m in u.members:
            assert np.abs(comp.conj().T @ m.tensor).max() < 1e-12

    def test_dimension_count_for_five_vectors_in_c9(self):
        from upbkit.qutrit import bundled_upb

        tiles = bundled_upb("tiles")
        comp = complement_basis([m.tensor for m in tiles.members])
        assert comp.shape == (9, 4)

    def test_rank_deficient_rejected(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            complement_basis([v, v])


class TestDensityMatrixInvariants:
    def test_non_hermitian_rejected(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            DensityMatrix((2,), m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix((2,), np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix((2,), np.diag([1.5, -0.5]))

    def test_nan_rejected(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            DensityMatrix((2,), m)


def test_trace_distance():
    a = DensityMatrix((2,), np.diag([1.0, 0.0]))
    b = DensityMatrix((2,), np.diag([0.0, 1.0]))
    assert abs(trace_distance(a, b) - 1) < 1e-12
    assert trace_distance(a, a) < 1e-12
