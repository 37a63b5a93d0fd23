import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upbkit import UPB, CanonicalAngles, ProductState, build_canonical, product_search, shifts
from upbkit.graphs import enumerate_colorings, realize_coloring
from upbkit.product_search import (
    RankAmbiguityError,
    SearchConfig,
    Subspace,
    find_product_vectors,
    is_extendible,
    normalize_partition,
    residual,
)
from upbkit.product_search import (
    _group_dims,
    _interleave,
    _refine,
    _residual_fn,
    _rows_times,
    _start_params,
    _states_from_params,
)
from upbkit.qutrit import bundled_upb

TRIPARTITE = [(0,), (1,), (2,)]
CUTS = ([(0,), (1, 2)], [(1,), (0, 2)], [(2,), (0, 1)])
PARTITIONS = (((0,), (1,), (2,)),) + tuple(normalize_partition(c, 3) for c in CUTS)


def span_subspace(upb) -> Subspace:
    return Subspace(upb.dims, upb.span_basis)


def random_subspace(rng, dims, k) -> Subspace:
    total = int(np.prod(dims))
    g = rng.standard_normal((total, k)) + 1j * rng.standard_normal((total, k))
    q, _ = np.linalg.qr(g)
    return Subspace(dims, q)


def plain_refine(params, residual_fn, max_iterations):
    """Damped Gauss-Newton over the whole batch until every start is done,
    with no start leaving it: the reference for :func:`_refine`."""
    h = 1e-7
    n, p = params.shape
    r = residual_fn(params)
    rn2 = np.einsum("nr,nr->n", r, r)
    lam = np.full(n, 1e-8)
    eye = np.eye(p)
    for _ in range(max_iterations):
        active = rn2 > 1e-26
        if not active.any():
            break
        jac = np.empty((n, r.shape[1], p))
        for k in range(p):
            shifted = params.copy()
            shifted[:, k] += h
            jac[:, :, k] = (residual_fn(shifted) - r) / h
        jtj = np.einsum("nrp,nrq->npq", jac, jac)
        jtr = np.einsum("nrp,nr->np", jac, r)
        w = np.linalg.eigvalsh(jtj)
        cond = w[:, -1] / np.clip(w[:, 0], 1e-300, None)
        ill = (cond > 1e8) | (w[:, 0] <= 0)
        lhs = jtj + (lam[:, None, None] + 1e-9) * eye
        step_gn = -np.linalg.solve(lhs, jtr[:, :, None])[:, :, 0]
        step_gn = np.where(active[:, None], step_gn, 0.0)
        trial_gn = params + step_gn
        r_gn = residual_fn(trial_gn)
        rn2_gn = np.einsum("nr,nr->n", r_gn, r_gn)
        jg = np.einsum("nrp,np->nr", jac, jtr)
        denom = np.clip(np.einsum("nr,nr->n", jg, jg), 1e-300, None)
        alpha = np.einsum("np,np->n", jtr, jtr) / denom
        step_gd = -alpha[:, None] * jtr
        step_gd = np.where((active & ill)[:, None], step_gd, 0.0)
        trial_gd = params + step_gd
        r_gd = residual_fn(trial_gd)
        rn2_gd = np.einsum("nr,nr->n", r_gd, r_gd)
        take_gd = ill & (rn2_gd < rn2_gn)
        trial = np.where(take_gd[:, None], trial_gd, trial_gn)
        r_trial = np.where(take_gd[:, None], r_gd, r_gn)
        rn2_trial = np.where(take_gd, rn2_gd, rn2_gn)
        better = (rn2_trial < rn2) & active
        params = np.where(better[:, None], trial, params)
        r = np.where(better[:, None], r_trial, r)
        rn2 = np.where(better, rn2_trial, rn2)
        lam = np.clip(np.where(better, lam * 0.3, lam * 10.0), 1e-12, 1e9)
    return params, np.sqrt(rn2)


def same_bits(a: tuple, b: tuple) -> bool:
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def recording(residual_fn, sizes: list):
    """``residual_fn`` that appends the batch size of every call to ``sizes``."""
    def run(params):
        sizes.append(len(params))
        return residual_fn(params)
    return run


def iteration_sizes(sizes: list, partition, dims=(2, 2, 2)) -> list:
    """Live starts per Gauss-Newton iteration, from the batch sizes of all
    residual calls: one call at the start, then per iteration one per
    parameter (the Jacobian) and two trial steps."""
    calls = 2 * sum(d - 1 for d in _group_dims(dims, partition)) + 2
    assert (len(sizes) - 1) % calls == 0
    return sizes[1::calls]


def random_vector(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def product_subspace(rng, dims, partition, n_products, n_random) -> Subspace:
    """A random subspace spanned by ``n_products`` random product vectors
    (for ``partition``) and ``n_random`` random vectors."""
    total = int(np.prod(dims))
    cols = [
        _interleave(dims, partition, [random_vector(rng, d).reshape(1, -1) for d in _group_dims(dims, partition)])[0]
        for _ in range(n_products)
    ]
    cols += [random_vector(rng, total) for _ in range(n_random)]
    return Subspace.orthonormalized(dims, np.column_stack(cols))


class TestResidual:
    def test_members_lie_in_their_span(self, third_class_upb):
        sub = span_subspace(third_class_upb)
        for m in third_class_upb.members:
            assert residual(m.factors, sub) <= 1e-14

    def test_flipped_member_is_outside(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            u = build_canonical(CanonicalAngles(*rng.uniform(0.1, np.pi - 0.1, 3)))
            sub = span_subspace(u)
            flipped = [np.array([0, 1.0]), np.array([1.0, 0]), np.array([1.0, 0])]
            assert residual(flipped, sub) > 1e-3

    def test_full_space_gives_zero(self):
        sub = Subspace((2, 2), np.eye(4))
        rng = np.random.default_rng(31)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert residual([a, b], sub) == 0.0

    def test_dimension_mismatch(self, third_class_upb):
        sub = span_subspace(third_class_upb)
        with pytest.raises(ValueError):
            residual([np.ones(3), np.ones(2), np.ones(2)], sub)


class TestFindProductVectors:
    def test_span_contains_exactly_the_members(self):
        rng = np.random.default_rng(32)
        for _ in range(6):
            u = build_canonical(CanonicalAngles(*rng.uniform(0.1, np.pi - 0.1, 3)))
            sub = span_subspace(u)
            hits = find_product_vectors(sub, TRIPARTITE)
            assert len(hits) == 4
            for h in hits:
                assert any(h.matches(m.factors, 1e-8) for m in u.members)

    def test_bipartite_cuts_also_give_only_members(self, third_class_upb):
        sub = span_subspace(third_class_upb)
        for cut in CUTS:
            hits = find_product_vectors(sub, cut)
            assert len(hits) == 4
            for h in hits:
                assert any(h.matches(m.factors, 1e-8) for m in third_class_upb.members)

    def test_complement_is_product_free(self, third_class_upb):
        sub = span_subspace(third_class_upb).complement()
        assert find_product_vectors(sub, TRIPARTITE) == []

    def test_random_subspaces_are_generically_product_free(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            sub = random_subspace(rng, (2, 2, 2), 4)
            assert find_product_vectors(sub, TRIPARTITE) == []

    def test_determinism(self, third_class_upb):
        sub = span_subspace(third_class_upb)
        cfg = SearchConfig(seed=77)
        a = find_product_vectors(sub, TRIPARTITE, cfg)
        b = find_product_vectors(sub, TRIPARTITE, cfg)
        assert len(a) == len(b)
        for ha, hb in zip(a, b):
            assert ha.residual == hb.residual
            for fa, fb in zip(ha.factors, hb.factors):
                assert np.array_equal(fa, fb)

    def test_hit_residuals_reproduce(self, third_class_upb):
        sub = span_subspace(third_class_upb)
        for h in find_product_vectors(sub, TRIPARTITE):
            assert abs(residual(h.factors, sub, h.partition) - h.residual) <= 1e-12

    def test_dedup_soundness(self, third_class_upb):
        sub = span_subspace(third_class_upb)
        hits = find_product_vectors(sub, TRIPARTITE)
        for i, a in enumerate(hits):
            for b in hits[i + 1:]:
                overlaps = [abs(np.vdot(x, y)) for x, y in zip(a.factors, b.factors)]
                assert not all(ov > 1 - 1e-6 for ov in overlaps)

    def test_full_space_rejected(self):
        sub = Subspace((2, 2), np.eye(4))
        with pytest.raises(ValueError):
            find_product_vectors(sub, [(0,), (1,)])


class TestRefine:
    """The retiring Gauss-Newton loop against the plain one."""

    @settings(max_examples=25, deadline=None)
    @given(
        case=st.integers(0, len(PARTITIONS)),
        n_products=st.integers(0, 4),
        n_random=st.integers(1, 3),
        iterations=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_retiring_starts_matches_the_plain_loop(self, case, n_products, n_random, iterations, seed):
        rng = np.random.default_rng(seed)
        if case == len(PARTITIONS):
            dims, partition = (3, 3), ((0,), (1,))
        else:
            dims, partition = (2, 2, 2), PARTITIONS[case]
        sub = product_subspace(rng, dims, partition, n_products, n_random)
        starts = _start_params(rng, 48, _group_dims(dims, partition))
        fn = _residual_fn(sub, partition)
        assert same_bits(_refine(starts, fn, iterations), plain_refine(starts, fn, iterations))

    def test_qutrit_span(self):
        sub = Subspace((3, 3), bundled_upb("tiles").span_basis)
        partition = ((0,), (1,))
        starts = _start_params(np.random.default_rng(35), 64, (3, 3))
        fn = _residual_fn(sub, partition)
        params, resnorm = _refine(starts, fn, 40)
        assert (resnorm <= 1e-9).any()
        assert same_bits((params, resnorm), plain_refine(starts, fn, 40))

    def test_batch_retires_down_to_a_single_start(self):
        u = build_canonical(CanonicalAngles(1, 2, 0.5))
        sub = span_subspace(u)
        partition = PARTITIONS[0]
        starts = _start_params(np.random.default_rng(SearchConfig().seed), 768, (2, 2, 2))
        fn = _residual_fn(sub, partition)
        sizes = []
        out = _refine(starts, recording(fn, sizes), 60)
        assert iteration_sizes(sizes, partition)[-1] == 1
        assert same_bits(out, plain_refine(starts, fn, 60))

    def test_start_on_a_member_comes_back_unchanged(self):
        rng = np.random.default_rng(36)
        partition = PARTITIONS[1]
        gdims = _group_dims((2, 2, 2), partition)
        starts = _start_params(rng, 16, gdims)
        on = starts[:1]
        product = _interleave((2, 2, 2), partition, _states_from_params(on, gdims))[0]
        sub = Subspace.orthonormalized((2, 2, 2), np.column_stack([product] + [random_vector(rng, 8) for _ in range(3)]))
        fn = _residual_fn(sub, partition)
        r = fn(starts)
        rn2 = np.einsum("nr,nr->n", r, r)
        assert rn2[0] <= 1e-26
        params, resnorm = _refine(starts, fn, 60)
        assert params[0].tobytes() == on[0].tobytes()
        assert resnorm[0] == np.sqrt(rn2[0])
        assert same_bits((params, resnorm), plain_refine(starts, fn, 60))

    def test_one_row_product_matches_its_batch_row(self):
        rng = np.random.default_rng(37)
        for d, k in ((8, 4), (9, 4), (9, 5), (8, 7)):
            v = random_vector(rng, (6, d))
            m = random_vector(rng, (d, k))
            full = _rows_times(v, m)
            for i in range(len(v)):
                assert _rows_times(v[i:i + 1], m).tobytes() == full[i:i + 1].tobytes()

    def test_converged_starts_stop_evaluating(self, monkeypatch):
        # at most a quarter of the 60 x 1024 rows the plain loop evaluates
        # per Jacobian column on the cut 0|1,2 of a canonical UPB
        sizes = []
        monkeypatch.setattr(product_search, "_residual_fn", lambda s, p: recording(_residual_fn(s, p), sizes))
        u = build_canonical(CanonicalAngles(1, 2, 0.5))
        partition = PARTITIONS[1]
        assert len(find_product_vectors(span_subspace(u), partition)) == 4
        assert sizes[0] == 1024
        assert sum(iteration_sizes(sizes, partition)) <= 60 * 1024 // 4


class TestIsExtendible:
    def test_upb_is_unextendible(self):
        assert is_extendible(shifts().members) is None
        for triple in (
            (1e-4, 3.1, 2.0),
            (0.011216122791543099, 0.17226426314641657, 0.13037093544558162),
        ):
            assert is_extendible(build_canonical(CanonicalAngles(*triple)).members) is None

    def test_partial_family_extends_to_omitted_member(self):
        u = shifts()
        hit = is_extendible(u.members[:3])
        assert hit is not None
        assert hit.residual <= 1e-12

    def test_rank_decision_within_rounding_raises(self):
        # |A> lies 5e-10 off |0>: whether the family extends hinges on it
        with pytest.raises(RankAmbiguityError):
            is_extendible(build_canonical(CanonicalAngles(1e-9, 1.0, 1.0)).members)

    def test_non_orthonormal_rejected(self):
        k0 = np.array([1.0, 0.0])
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        members = [ProductState([k0, k0, k0]), ProductState([plus, k0, k0])]
        with pytest.raises(ValueError):
            is_extendible(members)


@pytest.fixture(scope="module")
def survivors():
    return enumerate_colorings().survivors


class TestExtendibilityCrossCheck:
    """The exact split rule against a Gauss-Newton search of the complement."""

    @staticmethod
    def _agree(members):
        hit = is_extendible(members)
        sub = Subspace(members[0].dims, UPB(members).complement_basis)
        # criterion 4's former search setting, which found every realized
        # survivor's extension
        found = find_product_vectors(sub, config=SearchConfig(grid_resolution=10, max_iterations=40))
        assert (hit is None) == (found == [])
        if hit is not None:
            assert hit.residual <= 1e-12
            assert residual(hit.factors, sub) <= 1e-12

    @settings(max_examples=12, deadline=None)
    @given(
        index=st.integers(0, 2**31 - 1),
        seed=st.integers(0, 2**31 - 1),
        size=st.integers(3, 5),
    )
    def test_survivor_subsets(self, survivors, index, seed, size):
        members = realize_coloring(survivors[index % len(survivors)], seed=seed)
        self._agree(members[:size])

    @settings(max_examples=8, deadline=None)
    @given(angles=st.lists(st.floats(0.05, np.pi - 0.05), min_size=3, max_size=3))
    def test_canonical_upbs(self, angles):
        self._agree(build_canonical(CanonicalAngles(*angles)).members)


class TestConfigAndTypes:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(grid_resolution=4)
        with pytest.raises(ValueError):
            SearchConfig(residual_tol=-1)
        with pytest.raises(ValueError):
            SearchConfig(max_iterations=0)

    def test_partition_validation(self):
        assert normalize_partition([(2,), (0, 1)], 3) == ((0, 1), (2,))
        with pytest.raises(ValueError):
            normalize_partition([(0,), (1,)], 3)
        with pytest.raises(ValueError):
            normalize_partition([(0,), (0, 1)], 2)

    def test_subspace_validation(self):
        with pytest.raises(ValueError):
            Subspace((2, 2), np.ones((4, 2)))
        with pytest.raises(ValueError):
            Subspace((2, 2), np.eye(3))

    def test_hit_tensor_interleaving(self, third_class_upb):
        # a hit on the middle-party cut must reassemble in ambient order
        sub = span_subspace(third_class_upb)
        hits = find_product_vectors(sub, [(1,), (0, 2)])
        for h in hits:
            member = next(
                m for m in third_class_upb.members if h.matches(m.factors, 1e-6)
            )
            assert abs(abs(np.vdot(h.tensor, member.tensor)) - 1) < 1e-8

    def test_orthonormalized_constructor(self):
        rng = np.random.default_rng(34)
        vecs = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        sub = Subspace.orthonormalized((2, 2, 2), vecs)
        assert sub.dim == 3
        with pytest.raises(ValueError):
            Subspace.orthonormalized((2, 2, 2), np.column_stack([vecs[:, 0], vecs[:, 0]]))
