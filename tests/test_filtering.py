import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_local_filter, random_separable, random_state
from upbkit import CanonicalAngles, DensityMatrix, build_canonical, fidelity
from upbkit.filtering import (
    EquivalentPairError,
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
    _block_step,
    _interior_starts,
    _overlap_objective,
    _qubit_step,
    _support_fidelity,
    _sweeps,
    _witness_step,
    _witness_value,
)
from upbkit.linalg import PartitionCut, fidelity_projector_form, kron_all, partial_transpose, trace_distance
from upbkit.product_search import SearchConfig, Subspace, find_product_vectors
from upbkit.upb import perp_qubit, state_of

# regression constants recorded at first computation (deterministic seeds)
WITNESS_AT_SOURCE = 0.07199523679041778
DELTA_REFERENCE = 0.0275559
FIDELITY_REFERENCE = 0.9812328
# smallest weight a product state puts on the (pi/3)^3 span
PRODUCT_MINIMUM = 0.027555901447727

FAST = GapSearchConfig(restarts=40, budget=2000, boundary_restarts=16, boundary_budget=1000, seed=11)


def product_weight(qubits: np.ndarray, target) -> np.ndarray:
    """Weight each (n, 3, 2) product state puts on the target's span, as the
    witness of its one-column image."""
    psi = np.array([kron_all(q) for q in qubits])[:, :, None]
    return _witness_value(psi, target.span_basis)[0]


def plain_sweeps(state: np.ndarray, sweeps: int, step) -> np.ndarray:
    """``sweeps`` sweeps of three steps on the whole batch, no restart retired."""
    for _ in range(sweeps):
        for q in range(3):
            state = step(state, q)
    return state


def recording(step, sizes: list):
    """``step`` that appends the batch size of every call to ``sizes``."""
    def run(state, q):
        sizes.append(len(state))
        return step(state, q)
    return run


def range_subspace(state: DensityMatrix, tol: float = 1e-10) -> Subspace:
    w, v = np.linalg.eigh(state.matrix)
    return Subspace(state.dims, v[:, w > tol])


class TestLocalFilter:
    def test_identity(self):
        f = LocalFilter.identity()
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
        f = LocalFilter.identity()
        with pytest.raises(ValueError):
            SeparableSuperoperator([f, f], [1.0, 1.0])

    def test_from_filters_normalizes(self):
        rng = np.random.default_rng(41)
        filters = [random_local_filter(rng) for _ in range(5)]
        e = SeparableSuperoperator.from_filters(filters)
        total = sum(op.conj().T @ op for op in e.kraus_operators())
        top = np.linalg.eigvalsh(total).max()
        assert top <= 1 + 1e-9

    def test_ensemble_cap(self):
        f = LocalFilter.identity()
        with pytest.raises(ValueError):
            SeparableSuperoperator([f] * 8193, [0.0] * 8193)


class TestApplyFilter:
    def test_identity(self, shifts_class_upb):
        rho = state_of(shifts_class_upb)
        state, p = apply_filter(LocalFilter.identity(), rho)
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
        e = SeparableSuperoperator([LocalFilter.identity()], [1.0])
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
                    rhs += p_l * span_overlap(third_class_upb, term / p_l)
            if p_sum <= 1e-14:
                continue
            lhs = p_sum * span_overlap(third_class_upb, total / p_sum)
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
        cut = PartitionCut((0,), (1, 2))
        for _ in range(20):
            factors = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
            factors[0] = np.outer(random_state(rng), random_state(rng).conj())
            state, p = apply_filter(LocalFilter.from_raw(factors), rho)
            if state is None:
                continue
            assert np.linalg.eigvalsh(partial_transpose(state, cut)).min() >= -1e-10


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
                value = product_weight(product[None], third_class_upb)[0]
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

    def test_interior_objectives_match_apply_filter(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(54)
        rho = state_of(shifts_class_upb)
        perp = np.eye(8) - third_class_upb.span_projector
        fac = _interior_starts(rng, 6)
        overlap, prob = _overlap_objective(fac, shifts_class_upb, third_class_upb)
        neg_fidelity, _ = _support_fidelity(fac, shifts_class_upb, third_class_upb)
        for i in range(len(fac)):
            state, p = apply_filter(LocalFilter.from_raw(list(fac[i])), rho)
            assert p > 1e-14
            assert abs(prob[i] - p) < 1e-12
            assert abs(overlap[i] - span_overlap(third_class_upb, state)) < 1e-12
            assert abs(neg_fidelity[i] + fidelity_projector_form(perp, state)) < 1e-12


class TestFidelityAscent:
    @settings(max_examples=20, deadline=None)
    @given(
        angles=st.lists(st.floats(0.1, np.pi - 0.1), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_steps_never_lower_the_fidelity(self, angles, seed):
        source = build_canonical(CanonicalAngles(*angles[:3]))
        target = build_canonical(CanonicalAngles(*angles[3:]))
        fac = _interior_starts(np.random.default_rng(seed), 8)
        value, _ = _support_fidelity(fac, source, target)
        for _ in range(3):
            for q in range(3):
                fac = _block_step(fac, q, source, target)
                new, _ = _support_fidelity(fac, source, target)
                assert (new <= value + 1e-12).all()  # negative fidelity
                value = new

    def test_kernel_aligned_restart_is_kept_and_isolated(self, shifts_class_upb, third_class_upb):
        # |t0,t1,t2><S_0| annihilates the source state, and with two such
        # rank-1 factors fixed the Gram of the third party's step is singular
        rng = np.random.default_rng(56)
        member = shifts_class_upb.members[0].factors
        aligned = np.array([np.outer(random_state(rng), f.conj()) for f in member])
        fac = _interior_starts(rng, 6)
        batch = np.concatenate([fac, aligned[None]])
        for _ in range(4):
            for q in range(3):
                fac = _block_step(fac, q, shifts_class_upb, third_class_upb)
                batch = _block_step(batch, q, shifts_class_upb, third_class_upb)
        values, _ = _support_fidelity(batch, shifts_class_upb, third_class_upb)
        assert np.isfinite(batch).all() and np.isfinite(values).all()
        assert np.array_equal(batch[-1], aligned)
        assert values[-1] == _INVALID
        alone, _ = _support_fidelity(fac, shifts_class_upb, third_class_upb)
        assert np.abs(batch[:-1] - fac).max() < 1e-15
        assert np.abs(values[:-1] - alone).max() < 1e-15


class TestWitnessDescent:
    @settings(max_examples=20, deadline=None)
    @given(
        angles=st.lists(st.floats(0.1, np.pi - 0.1), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_steps_never_raise_the_witness(self, angles, seed):
        source = build_canonical(CanonicalAngles(*angles[:3]))
        target = build_canonical(CanonicalAngles(*angles[3:]))
        rng = np.random.default_rng(seed)
        fac = _interior_starts(rng, 8)
        qubits = np.array([[random_state(rng) for _ in range(3)] for _ in range(8)])
        value, _ = _overlap_objective(fac, source, target)
        weight = product_weight(qubits, target)
        for _ in range(3):
            for q in range(3):
                fac = _witness_step(fac, q, source, target)
                qubits = _qubit_step(qubits, q, target)
                new, _ = _overlap_objective(fac, source, target)
                new_weight = product_weight(qubits, target)
                assert (new <= value + 1e-12).all()
                assert (new_weight <= weight + 1e-12).all()
                value, weight = new, new_weight

    def _aligned(self, upb, rng):
        # |t0,t1,t2><S_0| annihilates the source state
        return np.array([np.outer(random_state(rng), f.conj()) for f in upb.members[0].factors])

    def test_restart_below_the_freeze_probability_is_kept(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(57)
        near = self._aligned(shifts_class_upb, rng) + 1e-4 * _interior_starts(rng, 4)[1:]
        value, prob = _overlap_objective(near, shifts_class_upb, third_class_upb)
        assert ((prob > 1e-14) & (prob < _FREEZE_PROBABILITY)).all()
        assert (value < _INVALID).all()
        fac = near.copy()
        for _ in range(3):
            for q in range(3):
                fac = _witness_step(fac, q, shifts_class_upb, third_class_upb)
        assert np.array_equal(fac, near)

    def test_kernel_aligned_restart_is_kept_and_isolated(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(58)
        aligned = self._aligned(shifts_class_upb, rng)
        fac = _interior_starts(rng, 6)
        batch = np.concatenate([fac, aligned[None]])
        for _ in range(4):
            for q in range(3):
                fac = _witness_step(fac, q, shifts_class_upb, third_class_upb)
                batch = _witness_step(batch, q, shifts_class_upb, third_class_upb)
        values, _ = _overlap_objective(batch, shifts_class_upb, third_class_upb)
        assert np.isfinite(batch).all() and np.isfinite(values).all()
        assert np.array_equal(batch[-1], aligned)
        assert values[-1] == _INVALID
        alone, _ = _overlap_objective(fac, shifts_class_upb, third_class_upb)
        assert np.abs(batch[:-1] - fac).max() < 1e-15
        assert np.abs(values[:-1] - alone).max() < 1e-15


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
        pools = [
            (fac, budget // 48, lambda f, q: _witness_step(f, q, source, target)),
            (fac, budget // 48, lambda f, q: _block_step(f, q, source, target)),
            (qubits, budget // 12, lambda v, q: _qubit_step(v, q, target)),
        ]
        for state, sweeps, step in pools:
            assert np.array_equal(_sweeps(state, sweeps, step), plain_sweeps(state, sweeps, step))

    def test_batch_retires_down_to_a_single_restart(self, shifts_class_upb, third_class_upb):
        # kernel-aligned restarts keep their factors under the fidelity step,
        # while a random restart still moves at the ulp level
        rng = np.random.default_rng(59)
        member = shifts_class_upb.members[0].factors
        aligned = [np.array([np.outer(random_state(rng), f.conj()) for f in member]) for _ in range(5)]
        batch = np.concatenate([np.array(aligned), _interior_starts(rng, 2)[1:]])
        sizes = []
        step = recording(lambda f, q: _block_step(f, q, shifts_class_upb, third_class_upb), sizes)
        out = _sweeps(batch, 20, step)
        assert sizes[:3] == [6, 6, 6] and sizes[3:] == [1] * 57
        assert np.array_equal(out, plain_sweeps(batch, 20, step))
        assert np.array_equal(out[:5], batch[:5])

    def test_all_frozen_batch_returns_after_one_sweep(self, shifts_class_upb, third_class_upb):
        rng = np.random.default_rng(60)
        member = shifts_class_upb.members[0].factors
        aligned = np.array([np.outer(random_state(rng), f.conj()) for f in member])
        near = aligned + 3e-5 * _interior_starts(rng, 5)[1:]
        _, prob = _overlap_objective(near, shifts_class_upb, third_class_upb)
        assert ((prob > 1e-10) & (prob < 1e-8)).all()
        sizes = []
        step = recording(lambda f, q: _witness_step(f, q, shifts_class_upb, third_class_upb), sizes)
        out = _sweeps(near, 100, step)
        assert sizes == [4, 4, 4]
        assert np.array_equal(out, near)


class TestOptimizers:
    def test_minimize_vanishes_for_the_same_class(self, shifts_class_upb):
        delta, point, _, _ = minimize_span_overlap(shifts_class_upb, shifts_class_upb, FAST)
        assert delta < 1e-10

    def test_minimize_gap_regression(self, shifts_class_upb, third_class_upb):
        delta, point, _, _ = minimize_span_overlap(shifts_class_upb, third_class_upb, FAST)
        assert delta > 1e-3
        assert abs(delta - DELTA_REFERENCE) < 0.1 * DELTA_REFERENCE
        if point.kind == "interior":
            assert point.probability > 1e-14
            op = point.filter.operator
            rho = state_of(shifts_class_upb)
            rebuilt = op @ rho.matrix @ op.conj().T / point.probability
            assert np.abs(rebuilt - point.state.matrix).max() < 1e-10
        assert isinstance(point.state, DensityMatrix)

    def test_boundary_probe_reaches_the_product_state_minimum(self, shifts_class_upb, third_class_upb):
        delta, point, _, _ = minimize_span_overlap(shifts_class_upb, third_class_upb, FAST)
        assert abs(delta - PRODUCT_MINIMUM) < 1e-12

    def test_no_step_below_the_freeze_probability_undercuts_the_product_minimum(
        self, shifts_class_upb, third_class_upb
    ):
        # a step to success probability ~3e-9 scores rounding noise in
        # ||S^dag X C||^2 / ||X C||^2, here 7e-15 below the product-state
        # minimum that bounds the orbit boundary from below
        delta, _, _, _ = minimize_span_overlap(shifts_class_upb, third_class_upb, GapSearchConfig(seed=3))
        assert delta >= 0.027555901447726856 - 1e-15

    def test_maximize_reaches_one_for_the_same_class(self, shifts_class_upb):
        f, point, _ = maximize_fidelity(shifts_class_upb, shifts_class_upb, FAST)
        assert f > 1 - 1e-9

    def test_maximize_fidelity_regression(self, shifts_class_upb, third_class_upb):
        f, point, _ = maximize_fidelity(shifts_class_upb, third_class_upb, FAST)
        assert f <= 1 - 1e-4
        assert abs(f - FIDELITY_REFERENCE) < 5e-3
        assert isinstance(point.state, DensityMatrix)

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
        with pytest.raises(EquivalentPairError):
            certify_gap(shifts_class_upb, other, FAST)

    def test_certificate_fields(self, shifts_class_upb, third_class_upb):
        cert = certify_gap(shifts_class_upb, third_class_upb, FAST)
        assert cert.status == "empirical"
        assert cert.delta_min > 1e-3
        assert cert.epsilon == cert.delta_min / 2
        assert cert.consistent
        assert cert.fidelity_max <= 1 - cert.epsilon + cert.slack
        assert cert.span_overlap_at_argmax >= cert.delta_min
        assert cert.perp_weight_at_argmax <= cert.perp_weight_bound + 1e-12
        assert cert.perp_root_trace_at_argmax <= cert.perp_root_trace_bound + 1e-9
        assert abs(cert.perp_root_trace_at_argmax / 2 - cert.fidelity_max) < 1e-9
        assert len(cert.interior_optima) == FAST.restarts
        assert len(cert.fidelity_optima) == FAST.restarts
        assert len(cert.boundary_optima) == FAST.boundary_restarts
        json.dumps(cert.to_document())  # serializable

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
