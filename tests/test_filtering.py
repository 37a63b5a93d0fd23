import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_local_filter, random_separable, random_state, trace_distance
from upbkit import CanonicalAngles, DensityMatrix, build_canonical, fidelity, filtering
from upbkit.filtering import (
    ARGMIN_TIE_TOL,
    BOUNDARY_BUDGET,
    BOUNDARY_STARTS,
    GapSearchConfig,
    LocalFilter,
    SeparableSuperoperator,
    apply_filter,
    apply_separable,
    boundary_limit,
    certify_gap,
    maximize_fidelity,
    minimize_span_overlap,
    span_overlap,
)
from upbkit.filtering import (
    _FREEZE_PROBABILITY,
    _INVALID,
    _apply_factors,
    _apply_party,
    _ascent_sweep,
    _block_step,
    _collapsed,
    _fidelity_at,
    _interior_starts,
    _output_states,
    _party_first,
    _party_span,
    _polar,
    _probe_sweep,
    _shared_left,
    _unit_spectral,
    _witness_step,
    _witness_sweep,
    _witness_value,
)
from upbkit.linalg import _sweeps, kron_all, partial_transpose
from upbkit.product_search import (
    SearchConfig,
    Subspace,
    _contractions,
    _descent_sweep,
    _product_step,
    _unit_starts,
    find_product_vectors,
)
from upbkit.serialize import InputError
from upbkit.upb import perp_qubit, state_of

# regression constants recorded at first computation (deterministic seeds)
WITNESS_AT_SOURCE = 0.07199523679041778
DELTA_REFERENCE = 0.0275559
FIDELITY_REFERENCE = 0.9812328
# smallest weight a product state puts on the (pi/3)^3 span
PRODUCT_MINIMUM = 0.027555901447727
# the same, pmin((pi/3)^3), to 30 digits: a critical point of the weight on
# the torus of real qubit states, polished with mpmath at 60 digits
PRODUCT_MINIMUM_DIGITS = "0.0275559014477268871719631889097"

# default_rng(77) pair 33: its witness infimum is an interior minimum below
# the product-state minimum, which few restarts reach
PAIR_33 = (
    (0.35155584690440755, 0.932752259065921, 0.6944000128576957),
    (1.270951206992894, 1.0246653369959153, 1.308131448318956),
)
PAIR_33_INTERIOR_MINIMUM = 0.0421852911
PAIR_33_PRODUCT_MINIMUM = 0.0455631996
# default_rng(77) pair 3: at seed 3 its interior and boundary minima are
# bitwise equal, a rounding tie
PAIR_3 = (
    (2.6085514957079368, 0.6438513451313517, 1.130460942800539),
    (1.1683923933552922, 1.2641559869198375, 0.5179543412032981),
)

FINEST = ((0,), (1,), (2,))
FAST = GapSearchConfig(restarts=40, budget=2000, seed=11)


def product_weight(qubits: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Weight each (n, 3, 2) product state puts on the span of the (8, m)
    orthonormal ``span``, as the witness of its one-column image."""
    psi = np.array([kron_all(q) for q in qubits])[:, :, None]
    return _witness_value(psi, span)[0]


def witness_basis(choice: str, target, rng: np.random.Generator) -> np.ndarray:
    """The basis ``B`` of a witness ``||B^dag X C||^2 / ||X C||^2``: the
    target's span or complement basis, or a random orthonormal (8, m) one."""
    if choice == "span":
        return target.span_basis
    if choice == "complement":
        return target.complement_basis
    m = int(rng.integers(1, 8))
    return np.linalg.qr(rng.standard_normal((8, m)) + 1j * rng.standard_normal((8, m)))[0]


def surrogate(fac: np.ndarray, unitary: np.ndarray, source, target) -> np.ndarray:
    """``Re tr(U T^dag X C) / (sqrt(r) ||X C||_F)`` for a fixed ``U``: the
    fidelity ascent's block steps maximize it, and it equals the fidelity
    where ``U`` is the polar factor of ``T^dag X C``."""
    y = _apply_factors(fac, source.complement_basis)
    tcomp = target.complement_basis
    linear = np.einsum("nij,nji->n", unitary, tcomp.conj().T @ y).real
    return linear / np.sqrt(tcomp.shape[1] * (np.abs(y) ** 2).sum(axis=(1, 2)))


def block_step(fac: np.ndarray, q: int, unitary: np.ndarray, source, target) -> np.ndarray:
    """:func:`_block_step` under the polar factor ``U``, with the image of
    ``C`` under the other two factors and ``conj(T) U^T`` formed afresh."""
    tu = target.complement_basis.conj() @ np.swapaxes(unitary, 1, 2)
    return _block_step(fac, q, _apply_factors(fac, source.complement_basis, skip=q), tu)


def plain_sweeps(state: tuple, sweeps: int, sweep) -> tuple:
    """``sweeps`` sweeps on the whole batch, no restart retired: a restart
    that a sweep ends keeps that sweep's row from then on."""
    done = np.zeros(len(state[0]), dtype=bool)
    for _ in range(sweeps):
        new, moving = sweep(state)
        state = tuple(np.where(done.reshape(-1, *[1] * (a.ndim - 1)), a, b) for a, b in zip(state, new))
        done |= ~moving
    return state


def same_rows(a: tuple, b: tuple) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def recording(call, sizes: list):
    """``call`` that appends the batch size of every call to ``sizes``; its
    first argument is the batch, an array or a tuple of arrays."""
    def run(state, *args):
        sizes.append(len(state[0]) if isinstance(state, tuple) else len(state))
        return call(state, *args)
    return run


def two_half_apply_party(f: np.ndarray, m: np.ndarray, q: int) -> np.ndarray:
    """:func:`_apply_party` with each half of party ``q``'s output formed by
    its own expression: the reference form of the fused product."""
    t = m.reshape(m.shape[0], 2 ** q, 2, -1)
    f = f[:, :, :, None, None]
    out = np.empty((len(f), 2 ** q, 2, t.shape[-1]), dtype=complex)
    out[:, :, 0], out[:, :, 1] = (f[:, i, 0] * t[:, :, 0] + f[:, i, 1] * t[:, :, 1] for i in (0, 1))
    return out.reshape(len(f), 8, -1)


def range_subspace(state: DensityMatrix, tol: float = 1e-10) -> Subspace:
    w, v = np.linalg.eigh(state.matrix)
    return Subspace(state.dims, v[:, w > tol])


class TestLocalFilter:
    def test_identity(self):
        f = LocalFilter([np.eye(2)] * 3)
        assert np.array_equal(f.operator, np.eye(8))

    def test_from_raw_normalizes(self):
        rng = np.random.default_rng(40)
        raw = [10 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) for _ in range(3)]
        f = LocalFilter.from_raw(raw)
        for factor in f.factors:
            assert abs(np.linalg.norm(factor, 2) - 1) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            LocalFilter([np.eye(2) * 2] * 3)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            LocalFilter([np.eye(3)] * 3)


class TestSeparableSuperoperator:
    def test_sum_constraint_enforced(self):
        f = LocalFilter([np.eye(2)] * 3)
        with pytest.raises(ValueError):
            SeparableSuperoperator([f, f], [1.0, 1.0])

    def test_from_filters_normalizes(self):
        rng = np.random.default_rng(41)
        filters = [random_local_filter(rng) for _ in range(5)]
        e = SeparableSuperoperator.from_filters(filters, [1.0] * len(filters))
        total = sum(op.conj().T @ op for op in e.kraus_operators())
        top = np.linalg.eigvalsh(total).max()
        assert top <= 1 + 1e-9

    def test_ensemble_cap(self):
        f = LocalFilter([np.eye(2)] * 3)
        with pytest.raises(ValueError):
            SeparableSuperoperator([f] * 8193, [0.0] * 8193)


class TestApplyFilter:
    def test_identity(self, shifts_class_upb):
        rho = state_of(shifts_class_upb)
        state, p = apply_filter(LocalFilter([np.eye(2)] * 3), rho)
        assert abs(p - 1) < 1e-12
        assert np.abs(state.matrix - rho.matrix).max() < 1e-12

    def test_kernel_aligned_filter(self, shifts_class_upb):
        rho = state_of(shifts_class_upb)
        proj0 = np.array([[1.0, 0], [0, 0]], dtype=complex)
        state, p = apply_filter(LocalFilter([proj0] * 3), rho)
        assert state is None
        assert p <= 1e-14

    def test_nondegenerate_filter_output_has_product_free_range(self, shifts_class_upb):
        rng = np.random.default_rng(42)
        rho = state_of(shifts_class_upb)
        cfg = SearchConfig(grid_resolution=8)
        for _ in range(5):
            f = random_local_filter(rng)
            state, p = apply_filter(f, rho)
            assert p > 1e-14
            w = np.linalg.eigvalsh(state.matrix)
            assert (w > 1e-10).sum() == 4
            assert find_product_vectors(range_subspace(state), config=cfg) == []


class TestApplySeparable:
    def test_identity_channel(self, shifts_class_upb):
        rho = state_of(shifts_class_upb)
        e = SeparableSuperoperator([LocalFilter([np.eye(2)] * 3)], [1.0])
        state, p = apply_separable(e, rho)
        assert abs(p - 1) < 1e-12
        assert np.abs(state.matrix - rho.matrix).max() < 1e-12

    def test_mixture_is_a_state(self, shifts_class_upb):
        rng = np.random.default_rng(43)
        rho = state_of(shifts_class_upb)
        e = SeparableSuperoperator.from_filters(
            [random_local_filter(rng), random_local_filter(rng)], [0.5, 0.5]
        )
        state, p = apply_separable(e, rho)
        assert 0 < p <= 1 + 1e-9
        assert abs(state.matrix.trace() - 1) < 1e-12
        assert np.linalg.eigvalsh(state.matrix).min() > -1e-12

    def test_random_superoperators_never_reach_the_target(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(44)
        rho_s = state_of(shifts_class_upb)
        rho_t = state_of(third_class_upb)
        for _ in range(40):
            e = random_separable(rng)
            state, p = apply_separable(e, rho_s)
            if p <= 1e-14:
                continue
            assert fidelity(rho_t, state) < 1 - 1e-6


class TestSpanOverlap:
    def test_target_state_scores_zero(self, third_class_upb):
        assert span_overlap(third_class_upb, state_of(third_class_upb)) == 0.0

    def test_maximally_mixed(self, third_class_upb):
        rho = DensityMatrix((2, 2, 2), np.eye(8) / 8)
        assert abs(span_overlap(third_class_upb, rho) - 0.5) < 1e-12

    def test_value_at_inequivalent_source(self, shifts_class_upb, third_class_upb):
        rho_s = state_of(shifts_class_upb)
        # independent oracle: the defining sum over target members
        direct = sum(
            float((m.tensor.conj() @ rho_s.matrix @ m.tensor).real)
            for m in third_class_upb.members
        )
        value = span_overlap(third_class_upb, rho_s)
        assert abs(value - direct) < 1e-12
        assert abs(value - WITNESS_AT_SOURCE) < 1e-12
        assert value > 0

    def test_linearity_over_ensembles(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(45)
        rho_s = state_of(shifts_class_upb)
        for _ in range(100):
            e = random_separable(rng, max_filters=6)
            total = np.zeros((8, 8), dtype=complex)
            rhs = 0.0
            p_sum = 0.0
            for op in e.kraus_operators():
                term = op @ rho_s.matrix @ op.conj().T
                p_l = float(term.trace().real)
                total += term
                p_sum += p_l
                if p_l > 1e-14:
                    rhs += p_l * span_overlap(third_class_upb, DensityMatrix((2, 2, 2), term / p_l))
            if p_sum <= 1e-14:
                continue
            lhs = p_sum * span_overlap(third_class_upb, DensityMatrix((2, 2, 2), total / p_sum))
            assert abs(lhs - rhs) < 1e-10


class TestDegenerateFilters:
    def test_rank_deficient_filters_leak_product_vectors(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(46)
        rho = state_of(shifts_class_upb)
        cfg = SearchConfig(grid_resolution=8)
        found = 0
        while found < 50:
            party = int(rng.integers(0, 3))
            factors = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
            factors[party] = np.outer(random_state(rng), random_state(rng).conj())
            f = LocalFilter.from_raw(factors)
            state, p = apply_filter(f, rho)
            if state is None:
                continue
            found += 1
            hits = find_product_vectors(range_subspace(state), config=cfg)
            assert hits, "rank-deficient filter output should expose a product vector"
            assert span_overlap(third_class_upb, state) > 0

    def test_rank_one_first_factor_preserves_ppt(self, shifts_class_upb):
        rng = np.random.default_rng(47)
        rho = state_of(shifts_class_upb)
        right = (1, 2)
        for _ in range(20):
            factors = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
            factors[0] = np.outer(random_state(rng), random_state(rng).conj())
            state, p = apply_filter(LocalFilter.from_raw(factors), rho)
            if state is None:
                continue
            assert np.linalg.eigvalsh(partial_transpose(state, right)).min() >= -1e-10


class TestBoundaryLimit:
    def test_single_weight_gives_pure_state(self, shifts_class_upb):
        rng = np.random.default_rng(48)
        targets = [random_state(rng) for _ in range(3)]
        perts = [random_state(rng) for _ in range(3)]
        lim = boundary_limit(shifts_class_upb, 0, targets, perts, (1.0, 0.0, 0.0))
        psi = np.kron(perts[0], np.kron(targets[1], targets[2]))
        expected = np.outer(psi, psi.conj())
        assert np.abs(lim.matrix - expected).max() < 1e-12

    def test_trace_one(self, shifts_class_upb):
        rng = np.random.default_rng(49)
        lim = boundary_limit(
            shifts_class_upb, 2,
            [random_state(rng) for _ in range(3)],
            [random_state(rng) for _ in range(3)],
            (0.3, 0.5, 0.2),
        )
        assert abs(lim.matrix.trace() - 1) < 1e-12

    def test_zero_weights_rejected(self, shifts_class_upb):
        rng = np.random.default_rng(50)
        with pytest.raises(ValueError):
            boundary_limit(
                shifts_class_upb, 0,
                [random_state(rng) for _ in range(3)],
                [random_state(rng) for _ in range(3)],
                (0.0, 0.0, 0.0),
            )

    def test_filters_converge_to_the_closed_form(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(51)
        rho = state_of(shifts_class_upb)
        member = 1
        targets = [random_state(rng) for _ in range(3)]
        perts = [random_state(rng) for _ in range(3)]
        weights = (0.6, 0.3, 0.8)
        lim = boundary_limit(shifts_class_upb, member, targets, perts, weights)
        mf = shifts_class_upb.members[member].factors
        distances = []
        for eps in (1e-3, 1e-4, 1e-5):
            factors = [
                np.outer(t, f.conj()) + eps * np.sqrt(w) * np.outer(q, perp_qubit(f).conj())
                for t, f, q, w in zip(targets, mf, perts, weights)
            ]
            state, p = apply_filter(LocalFilter.from_raw(factors), rho)
            distances.append(trace_distance(state, lim))
        assert distances[0] > distances[1] > distances[2]
        assert distances[2] <= 1e-4
        assert span_overlap(third_class_upb, lim) > 0


class TestKernels:
    """The pools' batched kernels against plain numpy."""

    def test_unit_spectral(self):
        # the top singular value comes from tr^2 - 4 det, which cancels when
        # the two singular values nearly coincide, as on unitaries
        rng = np.random.default_rng(62)
        gaussian = rng.standard_normal((1000, 2, 2)) + 1j * rng.standard_normal((1000, 2, 2))
        q, r = np.linalg.qr(rng.standard_normal((1000, 2, 2)) + 1j * rng.standard_normal((1000, 2, 2)))
        diagonal = np.diagonal(r, axis1=1, axis2=2)
        haar = q * (diagonal / np.abs(diagonal))[:, None, :]
        batch = _unit_spectral(np.concatenate([gaussian[:3], np.zeros((2, 2, 2)), gaussian[3:]]))
        assert np.array_equal(batch[3:5], np.zeros((2, 2, 2)))
        gaussian_norms = np.linalg.norm(np.concatenate([batch[:3], batch[5:]]), 2, axis=(1, 2))
        assert np.abs(gaussian_norms - 1).max() < 1e-14
        assert np.abs(np.linalg.norm(_unit_spectral(haar), 2, axis=(1, 2)) - 1).max() < 2e-8

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 9), k=st.integers(1, 6), q=st.sampled_from([0, 1, 2]), seed=st.integers(0, 2**32 - 1))
    def test_party_first_is_moveaxis(self, n, k, q, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, 8, k)) + 1j * rng.standard_normal((n, 8, k))
        reference = np.moveaxis(m.reshape(n, 2, 2, 2, k), q + 1, 1).reshape(n, 2, -1)
        assert np.array_equal(_party_first(m, q), reference)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 9), k=st.integers(1, 6), q=st.sampled_from([0, 1, 2]), seed=st.integers(0, 2**32 - 1))
    def test_apply_factors_is_the_kronecker_product(self, n, k, q, seed):
        # party q is skipped: its factor acts as the identity
        rng = np.random.default_rng(seed)
        fac = _interior_starts(rng, n + 1)[1:]
        basis = rng.standard_normal((8, k)) + 1j * rng.standard_normal((8, k))
        out = _apply_factors(fac, basis, skip=q)
        for row, factors in zip(out, fac):
            factors = list(factors)
            factors[q] = np.eye(2)
            reference = kron_all(factors) @ basis
            assert np.abs(row - reference).max() <= 1e-14 * np.linalg.norm(reference)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 200),
        shape=st.sampled_from([(4, 8, 4), (8, 4, 4), (2, 8, 4), (8, 4, 8)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_left_is_the_per_matrix_product(self, n, shape, seed):
        # bit for bit at every batch size, so a row's value never depends on
        # its batch; the pools' products are the first two shapes
        rng = np.random.default_rng(seed)
        r, m, k = shape
        a = rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m))
        b = rng.standard_normal((n, m, k)) + 1j * rng.standard_normal((n, m, k))
        out = _shared_left(a, b)
        assert out.flags.c_contiguous
        assert np.array_equal(out, np.array([a @ x for x in b]))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 200),
        k=st.integers(1, 8),
        q=st.sampled_from([0, 1, 2]),
        shared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_apply_party_is_the_two_half_form(self, n, k, q, shared, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        rows = 1 if shared else n
        m = rng.standard_normal((rows, 8, k)) + 1j * rng.standard_normal((rows, 8, k))
        assert np.array_equal(_apply_party(f, m, q), two_half_apply_party(f, m, q))


class TestObjectives:
    """The batched optimizer objectives agree with the public functions they
    stand in for, at random parameters."""

    def test_product_objective_matches_unit_weight_limits(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(53)
        for member in range(shifts_class_upb.n):
            targets = np.array([random_state(rng) for _ in range(3)])
            perts = np.array([random_state(rng) for _ in range(3)])
            for party in range(3):
                lim = boundary_limit(shifts_class_upb, member, targets, perts, np.eye(3)[party])
                product = targets.copy()
                product[party] = perts[party]
                value = product_weight(product[None], third_class_upb.span_basis)[0]
                assert abs(value - span_overlap(third_class_upb, lim)) < 1e-12

    def test_limits_are_bounded_below_by_their_product_terms(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(55)
        for member in range(shifts_class_upb.n):
            for _ in range(5):
                targets = [random_state(rng) for _ in range(3)]
                perts = [random_state(rng) for _ in range(3)]
                terms = [
                    span_overlap(third_class_upb, boundary_limit(shifts_class_upb, member, targets, perts, e))
                    for e in np.eye(3)
                ]
                lim = boundary_limit(shifts_class_upb, member, targets, perts, rng.uniform(0.0, 1.0, 3))
                assert span_overlap(third_class_upb, lim) >= min(terms) - 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        angles=st.lists(st.floats(0.1, np.pi - 0.1), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_interior_objectives_match_apply_filter(self, angles, seed):
        # the pools' image objectives against the dense references
        source = build_canonical(CanonicalAngles(*angles[:3]))
        target = build_canonical(CanonicalAngles(*angles[3:]))
        rho, rho_t = state_of(source), state_of(target)
        fac = _interior_starts(np.random.default_rng(seed), 6)
        y = _apply_factors(fac, source.complement_basis)
        overlap, prob = _witness_value(y, target.span_basis)
        neg_fidelity, _ = _fidelity_at(y, target.complement_basis.conj().T)
        for i in range(len(fac)):
            state, p = apply_filter(LocalFilter.from_raw(list(fac[i])), rho)
            assert p > 1e-14
            assert abs(prob[i] - p) < 1e-12
            assert abs(overlap[i] - span_overlap(target, state)) < 1e-12
            assert abs(neg_fidelity[i] + fidelity(rho_t, state)) < 1e-12


class TestFidelityAscent:
    @settings(max_examples=20, deadline=None)
    @given(
        angles=st.lists(st.floats(0.1, np.pi - 0.1), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_steps_never_lower_the_surrogate(self, angles, seed):
        # with the sweep's polar factor U held, each step raises the
        # surrogate g, which equals the fidelity at the sweep's start and
        # never exceeds it
        source = build_canonical(CanonicalAngles(*angles[:3]))
        target = build_canonical(CanonicalAngles(*angles[3:]))
        basis, tdag = source.complement_basis, target.complement_basis.conj().T
        fac = _interior_starts(np.random.default_rng(seed), 8)
        for _ in range(3):
            value, unitary = _fidelity_at(_apply_factors(fac, basis), tdag)
            g = surrogate(fac, unitary, source, target)
            assert np.abs(g + value).max() < 1e-12
            for q in range(3):
                fac = block_step(fac, q, unitary, source, target)
                new = surrogate(fac, unitary, source, target)
                assert (new >= g - 1e-12).all()
                assert (new <= -_fidelity_at(_apply_factors(fac, basis), tdag)[0] + 1e-12).all()
                g = new

    @settings(max_examples=20, deadline=None)
    @given(
        angles=st.lists(st.floats(0.1, np.pi - 0.1), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sweeps_never_lower_the_fidelity(self, angles, seed):
        # a sweep ends at the extrapolated point or at the plain block steps'
        # point; either way no restart loses fidelity.  It scores the
        # extrapolated point on every row and the end point only on the rows
        # that reject it, so a row mixed up between the two batches would
        # store another point's value or polar factor
        source = build_canonical(CanonicalAngles(*angles[:3]))
        target = build_canonical(CanonicalAngles(*angles[3:]))
        basis, tdag = source.complement_basis, target.complement_basis.conj().T
        fac = _interior_starts(np.random.default_rng(seed), 12)
        state = (fac, *_fidelity_at(_apply_factors(fac, basis), tdag), np.ones(len(fac)))
        for _ in range(30):
            new, _ = _ascent_sweep(state, basis, tdag)
            value, unitary = _fidelity_at(_apply_factors(new[0], basis), tdag)
            assert (new[1] <= state[1] + 1e-12).all()  # negative fidelity
            assert np.abs(new[1] - value).max() < 1e-12
            assert np.abs(new[2] - unitary).max() < 1e-12
            state = new

    def test_polar_factor(self):
        rng = np.random.default_rng(61)
        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        zs = np.concatenate([
            gaussian(16, 4, 4),
            gaussian(16, 4, 2) @ gaussian(16, 2, 4),
            gaussian(16, 4, 1) @ gaussian(16, 1, 4),
            np.zeros((2, 4, 4)),
        ])
        nuclear, unitary = _polar(zs)
        for z, nu, u in zip(zs, nuclear, unitary):
            scale = np.linalg.norm(z, 2)
            reference = np.linalg.svd(z, compute_uv=False).sum()
            assert abs(np.trace(u @ z).real - reference) <= 1e-12 * scale
            assert abs(nu - reference) <= 1e-12 * scale
            assert np.linalg.norm(u, 2) <= 1 + 1e-12
        assert np.array_equal(unitary[-2:], np.zeros((2, 4, 4)))

    def test_kernel_aligned_restart_is_kept_and_isolated(self, shifts_class_upb, third_class_upb):
        # |t0,t1,t2><S_0| annihilates the source state, and with two such
        # rank-1 factors fixed the Gram of the third party's step is singular
        rng = np.random.default_rng(56)
        member = shifts_class_upb.members[0].factors
        aligned = np.array([np.outer(random_state(rng), f.conj()) for f in member])
        fac = _interior_starts(rng, 6)
        batch = np.concatenate([fac, aligned[None]])
        basis, tdag = shifts_class_upb.complement_basis, third_class_upb.complement_basis.conj().T
        for _ in range(4):
            _, fac_unitary = _fidelity_at(_apply_factors(fac, basis), tdag)
            _, batch_unitary = _fidelity_at(_apply_factors(batch, basis), tdag)
            for q in range(3):
                fac = block_step(fac, q, fac_unitary, shifts_class_upb, third_class_upb)
                batch = block_step(batch, q, batch_unitary, shifts_class_upb, third_class_upb)
        values, _ = _fidelity_at(_apply_factors(batch, basis), tdag)
        assert np.isfinite(batch).all() and np.isfinite(values).all()
        assert np.array_equal(batch[-1], aligned)
        assert values[-1] == _INVALID
        alone, _ = _fidelity_at(_apply_factors(fac, basis), tdag)
        assert np.abs(batch[:-1] - fac).max() < 1e-15
        assert np.abs(values[:-1] - alone).max() < 1e-15


class TestWitnessDescent:
    @pytest.mark.parametrize("choice", ["span", "complement", "random"])
    @settings(max_examples=20, deadline=None)
    @given(
        angles=st.lists(st.floats(0.1, np.pi - 0.1), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_steps_never_raise_the_witness(self, choice, angles, seed):
        # the witness step and the product-state step both minimize the
        # weight on the span of any orthonormal basis B
        source = build_canonical(CanonicalAngles(*angles[:3]))
        target = build_canonical(CanonicalAngles(*angles[3:]))
        rng = np.random.default_rng(seed)
        basis, span = source.complement_basis, witness_basis(choice, target, rng)
        contracts = _contractions(span, (2, 2, 2), FINEST)
        fac = _interior_starts(rng, 8)
        qubits = np.array([[random_state(rng) for _ in range(3)] for _ in range(8)])
        value, prob = _witness_value(_apply_factors(fac, basis), span)
        weight = product_weight(qubits, span)
        for _ in range(3):
            for q in range(3):
                partial = _apply_factors(fac, basis, skip=q)
                fac, carried, prob = _witness_step(fac, value, prob, q, partial, *_party_span(span, q))
                factors = list(np.swapaxes(qubits, 0, 1))
                factors[q], _ = _product_step(factors, q, contracts[q])
                qubits = np.stack(factors, axis=1)
                new, new_prob = _witness_value(_apply_factors(fac, basis), span)
                new_weight = product_weight(qubits, span)
                assert (new <= value + 1e-12).all()
                assert np.abs(carried - new).max() < 1e-12 and np.abs(prob - new_prob).max() < 1e-15
                assert (new_weight <= weight + 1e-12).all()
                value, weight = carried, new_weight

    @settings(max_examples=20, deadline=None)
    @given(
        angles=st.lists(st.floats(0.1, np.pi - 0.1), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_span_and_complement_witnesses_sum_to_one(self, angles, seed):
        source = build_canonical(CanonicalAngles(*angles[:3]))
        target = build_canonical(CanonicalAngles(*angles[3:]))
        y = _apply_factors(_interior_starts(np.random.default_rng(seed), 8), source.complement_basis)
        inside, _ = _witness_value(y, target.span_basis)
        outside, _ = _witness_value(y, target.complement_basis)
        assert np.abs(inside + outside - 1).max() < 1e-12

    def _aligned(self, upb, rng):
        # |t0,t1,t2><S_0| annihilates the source state
        return np.array([np.outer(random_state(rng), f.conj()) for f in upb.members[0].factors])

    def test_restart_below_the_freeze_probability_is_kept(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(57)
        near = self._aligned(shifts_class_upb, rng) + 1e-4 * _interior_starts(rng, 4)[1:]
        basis, span = shifts_class_upb.complement_basis, third_class_upb.span_basis
        value, prob = _witness_value(_apply_factors(near, basis), span)
        assert ((prob > 1e-14) & (prob < _FREEZE_PROBABILITY)).all()
        assert (value < _INVALID).all()
        state = (near.copy(), value, prob)
        for _ in range(3):
            for q in range(3):
                state = _witness_step(*state, q, _apply_factors(state[0], basis, skip=q), *_party_span(span, q))
        assert same_rows(state, (near, value, prob))

    def test_kernel_aligned_restart_is_kept_and_isolated(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(58)
        aligned = self._aligned(shifts_class_upb, rng)
        fac = _interior_starts(rng, 6)
        batch = np.concatenate([fac, aligned[None]])
        basis, span = shifts_class_upb.complement_basis, third_class_upb.span_basis
        fac_state = (fac, *_witness_value(_apply_factors(fac, basis), span))
        batch_state = (batch, *_witness_value(_apply_factors(batch, basis), span))
        for _ in range(4):
            for q in range(3):
                fac_state = _witness_step(*fac_state, q, _apply_factors(fac_state[0], basis, skip=q), *_party_span(span, q))
                batch_state = _witness_step(*batch_state, q, _apply_factors(batch_state[0], basis, skip=q), *_party_span(span, q))
        fac, batch = fac_state[0], batch_state[0]
        values, _ = _witness_value(_apply_factors(batch, basis), span)
        assert np.isfinite(batch).all() and np.isfinite(values).all()
        assert np.array_equal(batch[-1], aligned)
        assert values[-1] == _INVALID
        alone, _ = _witness_value(_apply_factors(fac, basis), span)
        assert np.abs(batch[:-1] - fac).max() < 1e-15
        assert np.abs(values[:-1] - alone).max() < 1e-15


class TestRankOneHandOff:
    """A witness restart whose factors collapse to a rank-one filter ``|v><u|``
    finishes on the boundary probe's product-state descent."""

    @settings(max_examples=20, deadline=None)
    @given(
        angles=st.lists(st.floats(0.1, np.pi - 0.1), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_witness_step_on_a_rank_one_filter_is_the_product_step(self, angles, seed):
        # |v><u| outputs |v>, so with two factors rank one every output is
        # xi (x) |v_r v_s><v_r v_s|, and the least witness over party q's
        # factor is the least weight of a product state with those two factors
        source = build_canonical(CanonicalAngles(*angles[:3]))
        target = build_canonical(CanonicalAngles(*angles[3:]))
        rng = np.random.default_rng(seed)
        basis, span = source.complement_basis, target.span_basis
        fac = np.array([[np.outer(random_state(rng), random_state(rng).conj()) for _ in range(3)]
                        for _ in range(16)])
        _, prob = _witness_value(_apply_factors(fac, basis), span)
        fac, prob = fac[prob >= _FREEZE_PROBABILITY], prob[prob >= _FREEZE_PROBABILITY]
        assert len(fac) and _collapsed(fac, prob).all()
        qubits = _output_states(fac)
        contracts = _contractions(span, (2, 2, 2), FINEST)
        for q in range(3):
            partial = _apply_factors(fac, basis, skip=q)
            _, least, _ = _witness_step(fac, np.full(len(fac), _INVALID), prob, q, partial, *_party_span(span, q))
            _, weight = _product_step(qubits, q, contracts[q])
            assert np.abs(least - weight).max() < 1e-12

    def test_probe_rows_are_unchanged_and_collapsed_restarts_are_finished(
        self, shifts_class_upb, third_class_upb, monkeypatch
    ):
        calls = []

        def record(state, sweeps, sweep):
            out = _sweeps(state, sweeps, sweep)
            calls.append((state, tuple(a.copy() for a in out)))
            return out
        monkeypatch.setattr(filtering, "_sweeps", record)
        _, _, interior, boundary = minimize_span_overlap(shifts_class_upb, third_class_upb, FAST)
        (_, pool), (joint, out) = calls
        done = _collapsed(pool[0], pool[2])
        assert done.sum() >= FAST.restarts // 2
        # the hand-off starts from the witness value, and its rows follow the
        # probe's 64 random starts, which end as they do alone
        assert np.array_equal(joint[-1][BOUNDARY_STARTS:], pool[1][done])
        descent = _descent_sweep(third_class_upb.span_basis, (2, 2, 2), FINEST)
        *_, alone = _sweeps(tuple(a[:BOUNDARY_STARTS] for a in joint), BOUNDARY_BUDGET // 12,
                            lambda s: _probe_sweep(s, descent))
        assert alone.tolist() == boundary
        finished = tuple(a[BOUNDARY_STARTS:] for a in out)
        assert finished[-1].tolist() == np.array(interior)[done].tolist()
        more, _ = descent(finished)
        assert (finished[-1] - more[-1] <= 1e-14).all()

    def test_collapsed_restarts_leave_the_witness_pool(self, shifts_class_upb, third_class_upb, monkeypatch):
        # run to the gain stop in the witness pool, these restarts take 2942
        # restart-sweeps; leaving it once collapsed, 966
        sizes = []
        monkeypatch.setattr(filtering, "_witness_sweep", recording(_witness_sweep, sizes))
        minimize_span_overlap(shifts_class_upb, third_class_upb, GapSearchConfig(seed=3))
        assert sum(sizes) <= 1500


class TestSweeps:
    @settings(max_examples=10, deadline=None)
    @given(
        angles=st.lists(st.floats(0.1, np.pi - 0.1), min_size=6, max_size=6),
        restarts=st.integers(16, 24),
        budget=st.integers(600, 1200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_retiring_fixed_restarts_matches_the_plain_loop(self, angles, restarts, budget, seed):
        source = build_canonical(CanonicalAngles(*angles[:3]))
        target = build_canonical(CanonicalAngles(*angles[3:]))
        rng = np.random.default_rng(seed)
        fac = _interior_starts(rng, restarts)
        qubits = np.array([[random_state(rng) for _ in range(3)] for _ in range(restarts)])
        basis, span, tdag = source.complement_basis, target.span_basis, target.complement_basis.conj().T
        y, beta, parties = _apply_factors(fac, basis), np.ones(restarts), [_party_span(span, q) for q in range(3)]
        pools = [
            ((fac, *_witness_value(y, span), beta), budget // 48, lambda s: _witness_sweep(s, basis, span, parties)),
            ((fac, *_fidelity_at(y, tdag), beta), budget // 48, lambda s: _ascent_sweep(s, basis, tdag)),
            ((*np.swapaxes(qubits, 0, 1), np.full(restarts, np.inf)), budget // 12,
             _descent_sweep(span, (2, 2, 2), FINEST)),
        ]
        for state, sweeps, sweep in pools:
            assert same_rows(_sweeps(state, sweeps, sweep), plain_sweeps(state, sweeps, sweep))

    def test_batch_retires_down_to_a_single_restart(self, shifts_class_upb, third_class_upb, monkeypatch):
        # kernel-aligned restarts keep their factors under the fidelity step,
        # while a random restart still gains fidelity for 20 sweeps
        rng = np.random.default_rng(59)
        member = shifts_class_upb.members[0].factors
        aligned = [np.array([np.outer(random_state(rng), f.conj()) for f in member]) for _ in range(5)]
        batch = np.concatenate([np.array(aligned), _interior_starts(rng, 2)[1:]])
        sizes = []
        monkeypatch.setattr(filtering, "_block_step", recording(_block_step, sizes))
        basis, tdag = shifts_class_upb.complement_basis, third_class_upb.complement_basis.conj().T
        state = (batch, *_fidelity_at(_apply_factors(batch, basis), tdag), np.ones(len(batch)))
        sweep = lambda s: _ascent_sweep(s, basis, tdag)
        out = _sweeps(state, 20, sweep)
        assert sizes[:3] == [6, 6, 6] and sizes[3:] == [1] * 57
        assert same_rows(out, plain_sweeps(state, 20, sweep))
        assert np.array_equal(out[0][:5], batch[:5])

    def test_all_frozen_batch_returns_after_one_sweep(self, shifts_class_upb, third_class_upb, monkeypatch):
        rng = np.random.default_rng(60)
        member = shifts_class_upb.members[0].factors
        aligned = np.array([np.outer(random_state(rng), f.conj()) for f in member])
        near = aligned + 3e-5 * _interior_starts(rng, 5)[1:]
        basis, span = shifts_class_upb.complement_basis, third_class_upb.span_basis
        value, prob = _witness_value(_apply_factors(near, basis), span)
        assert ((prob > 1e-10) & (prob < 1e-8)).all()
        sizes = []
        monkeypatch.setattr(filtering, "_witness_step", recording(_witness_step, sizes))
        parties = [_party_span(span, q) for q in range(3)]
        out = _sweeps((near, value, prob, np.ones(len(near))), 100, lambda s: _witness_sweep(s, basis, span, parties))
        assert sizes == [4, 4, 4]
        assert np.array_equal(out[0], near)

    def test_fidelity_restarts_stop_within_half_the_cap(self, shifts_class_upb, third_class_upb, monkeypatch):
        # 200 restarts of up to 5000 // 48 = 104 sweeps: 20 800 without the stop
        sizes = []
        monkeypatch.setattr(filtering, "_ascent_sweep", recording(_ascent_sweep, sizes))
        config = GapSearchConfig(seed=3)
        maximize_fidelity(shifts_class_upb, third_class_upb, config)
        assert len(sizes) <= config.budget // 48
        assert sum(sizes) <= config.restarts * (config.budget // 48) // 2


class TestBoundaryProbe:
    @settings(max_examples=10, deadline=None)
    @given(
        angles=st.lists(st.floats(0.1, np.pi - 0.1), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gain_stop_agrees_with_the_weight_stop(self, angles, seed):
        target = build_canonical(CanonicalAngles(*angles))
        starts = _unit_starts(np.random.default_rng(seed), BOUNDARY_STARTS, (2, 2, 2))
        descent = _descent_sweep(target.span_basis, (2, 2, 2), FINEST)
        *_, probe = _sweeps((*starts, np.full(BOUNDARY_STARTS, np.inf)), BOUNDARY_BUDGET // 12,
                            lambda s: _probe_sweep(s, descent))
        *_, fixed = _sweeps((*starts, np.full(BOUNDARY_STARTS, np.inf)), 4000, descent)
        assert abs(probe.min() - fixed.min()) < 1e-12

    def test_probe_runs_to_its_cap_near_the_box_boundary(self):
        # at the hypothesis example (1.5625, 0.25, 0.25), seed 0, every start
        # still gains more than the stop's 1e-14 per sweep at the cap
        target = build_canonical(CanonicalAngles(1.5625, 0.25, 0.25))
        starts = _unit_starts(np.random.default_rng(0), BOUNDARY_STARTS, (2, 2, 2))
        descent = _descent_sweep(target.span_basis, (2, 2, 2), FINEST)
        sizes = []
        _sweeps((*starts, np.full(BOUNDARY_STARTS, np.inf)), BOUNDARY_BUDGET // 12,
                recording(lambda s: _probe_sweep(s, descent), sizes))
        assert sizes == [BOUNDARY_STARTS] * (BOUNDARY_BUDGET // 12)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the probe's sweep cap binds near the box boundary: its minimum ends "
        "1.0172578925049525e-12 above the 4000-sweep descent's"))
    def test_probe_reaches_the_descent_near_the_box_boundary(self):
        target = build_canonical(CanonicalAngles(1.5625, 0.25, 0.25))
        starts = _unit_starts(np.random.default_rng(0), BOUNDARY_STARTS, (2, 2, 2))
        descent = _descent_sweep(target.span_basis, (2, 2, 2), FINEST)
        *_, probe = _sweeps((*starts, np.full(BOUNDARY_STARTS, np.inf)), BOUNDARY_BUDGET // 12,
                            lambda s: _probe_sweep(s, descent))
        *_, fixed = _sweeps((*starts, np.full(BOUNDARY_STARTS, np.inf)), 4000, descent)
        assert abs(probe.min() - fixed.min()) < 1e-12

    def test_reference_target_stops_within_20_sweeps(self, shifts_class_upb, third_class_upb, monkeypatch):
        # run to a bitwise fixed point, the probe took 40 sweeps here
        sizes = []
        monkeypatch.setattr(filtering, "_probe_sweep", recording(_probe_sweep, sizes))
        minimize_span_overlap(shifts_class_upb, third_class_upb, FAST)
        assert len(sizes) <= 20


class TestOptimizers:
    def test_minimize_vanishes_for_the_same_class(self, shifts_class_upb):
        delta, _, _, _ = minimize_span_overlap(shifts_class_upb, shifts_class_upb, FAST)
        assert delta < 1e-10

    def test_minimize_gap_regression(self, shifts_class_upb, third_class_upb):
        delta, _, _, _ = minimize_span_overlap(shifts_class_upb, third_class_upb, FAST)
        assert delta > 1e-3
        assert abs(delta - DELTA_REFERENCE) < 0.1 * DELTA_REFERENCE

    def test_boundary_probe_reaches_the_product_state_minimum(self, shifts_class_upb, third_class_upb):
        delta, _, _, _ = minimize_span_overlap(shifts_class_upb, third_class_upb, FAST)
        assert abs(delta - PRODUCT_MINIMUM) < 1e-12

    def test_no_step_below_the_freeze_probability_undercuts_the_product_minimum(
        self, shifts_class_upb, third_class_upb
    ):
        # a step to success probability ~3e-9 scores rounding noise in
        # ||S^dag X C||^2 / ||X C||^2, here 7e-15 below the product-state
        # minimum that bounds the orbit boundary from below
        delta, _, _, _ = minimize_span_overlap(shifts_class_upb, third_class_upb, GapSearchConfig(seed=3))
        assert delta >= 0.027555901447726856 - 1e-15

    def test_rare_interior_basin_of_pair_33(self):
        # about 1 in 140 restarts reaches this basin; the extrapolated
        # descent must not lose it
        source, target = (build_canonical(CanonicalAngles(*a)) for a in PAIR_33)
        delta, kind, _, boundary = minimize_span_overlap(source, target, GapSearchConfig(seed=3))
        assert kind == "interior"
        assert abs(delta - PAIR_33_INTERIOR_MINIMUM) < 1e-9
        assert abs(min(boundary) - PAIR_33_PRODUCT_MINIMUM) < 1e-9

    def test_rounding_tie_is_labelled_boundary(self):
        source, target = (build_canonical(CanonicalAngles(*a)) for a in PAIR_3)
        delta, kind, interior, boundary = minimize_span_overlap(source, target, GapSearchConfig(seed=3))
        assert abs(min(interior) - min(boundary)) <= ARGMIN_TIE_TOL
        assert kind == "boundary"
        assert delta == min(min(interior), min(boundary))

    def test_maximize_reaches_one_for_the_same_class(self, shifts_class_upb):
        f, _, _ = maximize_fidelity(shifts_class_upb, shifts_class_upb, FAST)
        assert f > 1 - 1e-9

    def test_maximize_fidelity_regression(self, shifts_class_upb, third_class_upb):
        f, state, _ = maximize_fidelity(shifts_class_upb, third_class_upb, FAST)
        assert f <= 1 - 1e-4
        assert abs(f - FIDELITY_REFERENCE) < 5e-3
        # the support formula's value is the general Uhlmann fidelity of the
        # re-scored argmax state
        assert abs(fidelity(state_of(third_class_upb), state) - f) <= 1e-12

    def test_boundary_states_never_beat_the_interior_max(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(52)
        f_hat, _, _ = maximize_fidelity(shifts_class_upb, third_class_upb, FAST)
        rho_t = state_of(third_class_upb)
        for _ in range(100):
            member = int(rng.integers(0, 4))
            lim = boundary_limit(
                shifts_class_upb, member,
                [random_state(rng) for _ in range(3)],
                [random_state(rng) for _ in range(3)],
                rng.uniform(0.05, 1.0, 3),
            )
            assert fidelity(rho_t, lim) <= f_hat + 1e-6


class TestCertify:
    def test_equivalent_pair_rejected(self, shifts_class_upb):
        from upbkit.upb import scrambled

        other, _, _ = scrambled(shifts_class_upb, np.random.default_rng(53))
        with pytest.raises(InputError, match="^source and target are equivalent; the gap is undefined$"):
            certify_gap(shifts_class_upb, other, FAST)

    def test_certificate_fields(self, shifts_class_upb, third_class_upb):
        cert = certify_gap(shifts_class_upb, third_class_upb, FAST)
        assert cert.status == "empirical"
        assert cert.delta_min > 1e-3
        assert cert.epsilon == cert.delta_min / 2
        assert cert.consistent
        assert cert.fidelity_max <= 1 - cert.epsilon + cert.config.slack
        assert cert.span_overlap_at_argmax >= cert.delta_min
        assert cert.perp_weight_at_argmax <= 1 - cert.delta_min + 1e-12
        assert cert.perp_root_trace_at_argmax <= 2 * math.sqrt(1 - cert.delta_min) + 1e-9
        assert abs(cert.perp_root_trace_at_argmax / 2 - cert.fidelity_max) < 1e-9
        assert len(cert.interior_optima) == FAST.restarts
        assert len(cert.fidelity_optima) == FAST.restarts
        assert len(cert.boundary_optima) == BOUNDARY_STARTS
        json.dumps(cert.to_document())  # serializable

    def test_delta_is_the_least_optimum_and_the_boundary_optima_the_product_minimum(
        self, shifts_class_upb, third_class_upb
    ):
        cert = certify_gap(shifts_class_upb, third_class_upb, FAST)
        pooled = cert.interior_optima + cert.boundary_optima + (cert.span_overlap_at_argmax,)
        assert cert.delta_min == min(pooled)
        assert all(abs(b - PRODUCT_MINIMUM) <= 1e-15 for b in cert.boundary_optima)

    @pytest.mark.parametrize("pair, seed", [
        (((np.pi / 2,) * 3, (np.pi / 3,) * 3), 3),
        (((np.pi / 2,) * 3, (np.pi / 3,) * 3), 7),
        (((np.pi / 2,) * 3, (np.pi / 3,) * 3), 101),
        (PAIR_33, 3),
    ], ids=["reference-3", "reference-7", "reference-101", "pair33-3"])
    def test_fidelity_argmax_is_a_flat_point(self, pair, seed):
        # at the fidelity argmax F <= sqrt(1 - w) is tight: the output's
        # compression onto the target's support is proportional to rho_T;
        # measured within 1.1e-15 at these pairs
        source, target = (build_canonical(CanonicalAngles(*a)) for a in pair)
        cert = certify_gap(source, target, GapSearchConfig(seed=seed))
        assert abs(cert.fidelity_max ** 2 + cert.span_overlap_at_argmax - 1) < 1e-14

    @pytest.mark.parametrize("seed", [3, 7, 101])
    def test_reference_delta_is_the_product_minimum(self, shifts_class_upb, third_class_upb, seed):
        # at the reference pair the argmin is the boundary, where delta is
        # pmin((pi/3)^3); measured within 1e-16 at these seeds
        cert = certify_gap(shifts_class_upb, third_class_upb, GapSearchConfig(seed=seed))
        assert cert.argmin_kind == "boundary"
        assert abs(Fraction(cert.delta_min) - Fraction(PRODUCT_MINIMUM_DIGITS)) <= 1e-15

    def test_nearby_pair_has_smaller_gap(self, shifts_class_upb, third_class_upb):
        near = build_canonical(CanonicalAngles(np.pi / 2 + 0.01, np.pi / 2, np.pi / 2))
        cert_near = certify_gap(shifts_class_upb, near, FAST)
        cert_far = certify_gap(shifts_class_upb, third_class_upb, FAST)
        assert cert_near.delta_min < cert_far.delta_min

    def test_sampled_inequivalent_pairs_are_consistent(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            a = rng.uniform(0.2, np.pi - 0.2, 3)
            b = rng.uniform(0.2, np.pi - 0.2, 3)
            if np.abs(a - b).max() < 1e-2:
                b = (b + 0.3) % (np.pi - 0.2) + 0.1
            cert = certify_gap(
                build_canonical(CanonicalAngles(*a)),
                build_canonical(CanonicalAngles(*b)),
                FAST,
            )
            assert cert.consistent
            assert cert.delta_min > 0
