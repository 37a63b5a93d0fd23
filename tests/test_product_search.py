import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upbkit import UPB, CanonicalAngles, ProductState, build_canonical, product_search, shifts
from upbkit.graphs import enumerate_colorings, realize_coloring
from upbkit.linalg import _sweeps
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
    _contractions,
    _descent_sweep,
    _group_dims,
    _interleave,
    _product_step,
    _qubit_lowest,
)
from upbkit.qutrit import bundled_upb
from upbkit.serialize import InputError

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


def plain_descent(basis, dims, partition, starts, sweeps):
    """Sweeps of the exact product step over the whole batch, no start
    retired: the reference for :func:`_descent_sweep` under :func:`_sweeps`.
    A start is done once a sweep does not lower its weight or leaves it at
    most 1e-26, and keeps that sweep's row from then on."""
    contracts = _contractions(basis, dims, partition)
    factors = list(starts)
    weight = np.full(len(factors[0]), np.inf)
    done = np.zeros(len(weight), dtype=bool)
    for _ in range(sweeps):
        new = list(factors)
        for g in range(len(partition)):
            new[g], new_weight = _product_step(new, g, contracts[g])
        stop = ~(new_weight < weight) | (new_weight <= 1e-26)
        factors = [np.where(done[:, None], a, b) for a, b in zip(factors, new)]
        weight = np.where(done, weight, new_weight)
        done |= stop
    return (*factors, weight)


def same_bits(a: tuple, b: tuple) -> bool:
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def recording(sweep, sizes: list):
    """``sweep`` that appends the number of live starts of every call to ``sizes``."""
    def run(state):
        sizes.append(len(state[0]))
        return sweep(state)
    return run


def random_vector(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def random_starts(rng, n, gdims) -> list:
    """``n`` random unit vectors per group."""
    return [v / np.linalg.norm(v, axis=1, keepdims=True) for v in (random_vector(rng, (n, d)) for d in gdims)]


def product_subspace(rng, dims, partition, n_products, n_random) -> Subspace:
    """A random subspace spanned by ``n_products`` random product vectors
    (for ``partition``) and ``n_random`` random vectors."""
    total = int(np.prod(dims))
    cols = [
        _interleave(dims, partition, [random_vector(rng, d).reshape(1, -1) for d in _group_dims(dims, partition)])[0]
        for _ in range(n_products)
    ]
    cols += [random_vector(rng, total) for _ in range(n_random)]
    return Subspace(dims, np.linalg.qr(np.column_stack(cols))[0])


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

    @pytest.mark.parametrize("bad", [np.zeros(2), np.array([np.nan, 1.0])])
    def test_zero_or_nan_factor_is_refused(self, third_class_upb, bad):
        sub = span_subspace(third_class_upb)
        with pytest.raises(ValueError, match="factor 1 "):
            residual([np.ones(2), bad, np.ones(2)], sub)


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
        # the identity basis, and the complement of a zero-dimensional subspace
        for sub in (Subspace((2, 2), np.eye(4)), Subspace((2, 2), np.zeros((4, 0))).complement()):
            with pytest.raises(InputError, match="^subspace is the full space; every product vector lies in it$"):
                find_product_vectors(sub, [(0,), (1,)])

    def test_zero_dimensional_subspace_rejected(self):
        with pytest.raises(InputError, match="^subspace is zero-dimensional: there is no product vector to find$"):
            find_product_vectors(Subspace((2, 2), np.zeros((4, 0))))

    @pytest.mark.parametrize("angles, cut", [
        # near angle 0, and the three cuts of a corner triple near pi
        ((0.011216122791543099, 0.17226426314641657, 0.13037093544558162), [(0,), (1, 2)]),
        ((0.0025901115366864977, 0.18178528686075837, 2.4797231213987847), [(1,), (0, 2)]),
        ((0.061258591080970565, 2.8664764071248348, 3.0905401772040566), [(1,), (0, 2)]),
        ((3.106002591379464, 3.025985331813, 3.10245551912218), [(2,), (0, 1)]),
    ])
    def test_cuts_near_the_box_boundary_give_every_member(self, angles, cut):
        u = build_canonical(CanonicalAngles(*angles))
        hits = find_product_vectors(span_subspace(u), cut)
        assert len(hits) == 4
        for h in hits:
            assert any(h.matches(m.factors, 1e-8) for m in u.members)


def lowest_errors(h: np.ndarray) -> tuple[float, float]:
    """For :func:`_qubit_lowest`'s vector ``v`` of the 2x2 Hermitian ``h``:
    ``||(h - lambda_min) v||`` with ``lambda_min`` from ``eigh``, and
    ``| ||v|| - 1 |``."""
    v = _qubit_lowest(h[None, 0, 0].real, h[None, 0, 1], h[None, 1, 1].real)[0]
    return np.linalg.norm(h @ v - np.linalg.eigvalsh(h)[0] * v), abs(np.linalg.norm(v) - 1)


class TestQubitLowest:
    """The closed-form lowest eigenvector of a qubit step against ``eigh``."""

    @settings(max_examples=200, deadline=None)
    @given(
        # entries of 0 or at least 1e-100 keep the Gram above the subnormal
        # range, where a residual of 1e-13 ||H|| is not representable
        entries=st.lists(st.floats(-1, 1).filter(lambda x: x == 0 or abs(x) >= 1e-100), min_size=8, max_size=8),
        exponent=st.integers(-20, 20),
    )
    def test_random_psd(self, entries, exponent):
        g = (np.array(entries[:4]) + 1j * np.array(entries[4:])).reshape(2, 2)
        h = (g.conj().T @ g) * 10.0 ** exponent
        residual_norm, norm_error = lowest_errors(h)
        assert residual_norm <= 1e-13 * np.linalg.norm(h, 2)
        assert norm_error <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["zero", "identity", "diagonal", "reversed", "rank one", "ratio 1e-30"]),
        scale=st.floats(1e-10, 1e10),
        angles=st.lists(st.floats(0, 2 * np.pi), min_size=3, max_size=3),
    )
    def test_degenerate(self, kind, scale, angles):
        theta, phi, psi = angles
        u = np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
        w = np.column_stack([u, [-u[1].conj(), u[0].conj()]]) * np.exp(1j * psi)
        h = {
            "zero": np.zeros((2, 2)),
            "identity": scale * np.eye(2),
            "diagonal": np.diag([scale, scale * np.cos(theta) ** 2]),
            "reversed": np.diag([scale * np.cos(theta) ** 2, scale]),
            "rank one": scale * np.outer(u, u.conj()),
            "ratio 1e-30": (w * [scale, scale * 1e-30]) @ w.conj().T,
        }[kind].astype(complex)
        residual_norm, norm_error = lowest_errors(h)
        assert residual_norm <= 1e-13 * np.linalg.norm(h, 2)
        assert norm_error <= 1e-15

    def test_subnormal_gram_gives_a_unit_vector(self):
        h = np.array([[3e-318, 1e-318 + 2e-318j], [1e-318 - 2e-318j, 4e-318]])
        assert lowest_errors(h)[1] <= 1e-15


class TestRefine:
    """Refining the search starts: the exact product-state descent, with
    starts retired through the sweep driver, against the plain sweep loop."""

    @settings(max_examples=25, deadline=None)
    @given(
        case=st.integers(0, len(PARTITIONS)),
        n_products=st.integers(0, 4),
        n_random=st.integers(1, 3),
        n_starts=st.integers(1, 48),
        sweeps=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_retiring_starts_matches_the_plain_loop(self, case, n_products, n_random, n_starts, sweeps, seed):
        rng = np.random.default_rng(seed)
        if case == len(PARTITIONS):
            dims, partition = (3, 3), ((0,), (1,))
        else:
            dims, partition = (2, 2, 2), PARTITIONS[case]
        sub = product_subspace(rng, dims, partition, n_products, n_random)
        starts = random_starts(rng, n_starts, _group_dims(dims, partition))
        basis = sub.perp_basis
        retiring = _sweeps((*starts, np.full(n_starts, np.inf)), sweeps, _descent_sweep(basis, dims, partition))
        assert same_bits(retiring, plain_descent(basis, dims, partition, starts, sweeps))

    def test_qutrit_span(self):
        sub = Subspace((3, 3), bundled_upb("tiles").span_basis)
        partition = ((0,), (1,))
        starts = random_starts(np.random.default_rng(35), 64, (3, 3))
        out = _sweeps((*starts, np.full(64, np.inf)), 40, _descent_sweep(sub.perp_basis, (3, 3), partition))
        assert (out[-1] <= 1e-18).any()
        assert same_bits(out, plain_descent(sub.perp_basis, (3, 3), partition, starts, 40))

    def _on_a_product_vector(self, rng, dims, partition, n_starts):
        """Random starts whose first lies on a product vector of a random
        subspace, and that subspace."""
        starts = random_starts(rng, n_starts, _group_dims(dims, partition))
        product = _interleave(dims, partition, [s[:1] for s in starts])[0]
        cols = [product] + [random_vector(rng, int(np.prod(dims))) for _ in range(3)]
        return starts, Subspace(dims, np.linalg.qr(np.column_stack(cols))[0])

    def test_batch_retires_down_to_a_single_start(self):
        # six starts on the subspace's one product vector retire after a
        # sweep, and one random start runs on alone
        rng = np.random.default_rng(36)
        partition = PARTITIONS[0]
        starts, sub = self._on_a_product_vector(rng, (2, 2, 2), partition, 2)
        phases = np.exp(2j * np.pi * rng.uniform(size=(6, 1)))
        starts = [np.concatenate([s[:1] * phases, s[1:]]) for s in starts]
        sizes = []
        sweep = recording(_descent_sweep(sub.perp_basis, (2, 2, 2), partition), sizes)
        state = (*starts, np.full(7, np.inf))
        out = _sweeps(state, 30, sweep)
        assert sizes[:2] == [7, 1] and len(sizes) > 2
        assert same_bits(out, plain_descent(sub.perp_basis, (2, 2, 2), partition, starts, 30))

    def test_start_on_a_product_vector_retires_after_one_sweep(self):
        rng = np.random.default_rng(37)
        for dims, partition in [((2, 2, 2), p) for p in PARTITIONS] + [((3, 3), ((0,), (1,)))]:
            starts, sub = self._on_a_product_vector(rng, dims, partition, 16)
            sizes = []
            sweep = recording(_descent_sweep(sub.perp_basis, dims, partition), sizes)
            out = _sweeps((*starts, np.full(16, np.inf)), 60, sweep)
            assert sizes[:2] == [16, 15]
            assert out[-1][0] <= 1e-26
            for f, s in zip(out, starts):
                assert abs(abs(np.vdot(f[0], s[0])) - 1) <= 1e-12

    def test_converged_starts_stop_evaluating(self, monkeypatch):
        # at most four sweeps per start on each partition criterion 3 audits
        sizes = []
        monkeypatch.setattr(product_search, "_descent_sweep", lambda *a: recording(_descent_sweep(*a), sizes))
        u = build_canonical(CanonicalAngles(1, 2, 0.5))
        for partition in PARTITIONS:
            sizes.clear()
            assert len(find_product_vectors(span_subspace(u), partition)) == 4
            assert sizes[0] == 16 ** 2 * sum(d - 1 for d in _group_dims((2, 2, 2), partition))
            assert sum(sizes) <= 4 * sizes[0]

    def test_starts_off_the_subspace_stop_once_their_weight_stops_falling(self, monkeypatch):
        # stopped at a bitwise fixed point, this search took 12 433 restart-sweeps
        sizes = []
        monkeypatch.setattr(product_search, "_descent_sweep", lambda *a: recording(_descent_sweep(*a), sizes))
        u = build_canonical(CanonicalAngles(1, 2, 0.5))
        assert find_product_vectors(span_subspace(u).complement()) == []
        assert sum(sizes) <= 12433 // 2


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
            SearchConfig(max_iterations=0)

    def test_partition_validation(self):
        assert normalize_partition([(2,), (0, 1)], 3) == ((0, 1), (2,))
        with pytest.raises(ValueError):
            normalize_partition([(0,), (1,)], 3)
        with pytest.raises(ValueError):
            normalize_partition([(0,), (0, 1)], 2)
        with pytest.raises(ValueError):
            normalize_partition([(0, 1, 2)], 3)

    def test_subspace_validation(self):
        with pytest.raises(ValueError):
            Subspace((2, 2), np.ones((4, 2)))
        with pytest.raises(ValueError):
            Subspace((2, 2), np.eye(3))

    def test_span_is_searched_on_the_complement_the_upb_holds(self, third_class_upb):
        u = third_class_upb
        span = Subspace(u.dims, u.complement_basis).complement()
        assert span.perp_basis.tobytes() == u.complement_basis.tobytes()
        assert abs(span.basis.conj().T @ u.complement_basis).max() < 1e-14
        # the same hits, bit for bit, as a search of the members' span
        for partition in PARTITIONS:
            old, new = find_product_vectors(span_subspace(u), partition), find_product_vectors(span, partition)
            assert [(h.residual, [f.tobytes() for f in h.factors]) for h in new] == \
                [(h.residual, [f.tobytes() for f in h.factors]) for h in old]

    def test_hit_tensor_interleaving(self, third_class_upb):
        # a hit on the middle-party cut must reassemble in ambient order
        sub = span_subspace(third_class_upb)
        hits = find_product_vectors(sub, [(1,), (0, 2)])
        assert len(hits) == 4
        for h in hits:
            member = next(
                m for m in third_class_upb.members if h.matches(m.factors, 1e-6)
            )
            assert h.partition == ((0, 2), (1,))
            ac, b = h.factors
            tensor = np.einsum("b,ac->abc", b, ac.reshape(2, 2)).reshape(-1)
            assert abs(abs(np.vdot(tensor, member.tensor)) - 1) < 1e-8
            assert residual(h.factors, sub, h.partition) < 1e-8
