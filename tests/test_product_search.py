import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upbkit import UPB, CanonicalAngles, ProductState, build_canonical, shifts
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

TRIPARTITE = [(0,), (1,), (2,)]
CUTS = ([(0,), (1, 2)], [(1,), (0, 2)], [(2,), (0, 1)])


def span_subspace(upb) -> Subspace:
    return Subspace(upb.dims, upb.span_basis)


def random_subspace(rng, dims, k) -> Subspace:
    total = int(np.prod(dims))
    g = rng.standard_normal((total, k)) + 1j * rng.standard_normal((total, k))
    q, _ = np.linalg.qr(g)
    return Subspace(dims, q)


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
