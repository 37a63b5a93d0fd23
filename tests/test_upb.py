import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from upbkit import (
    UPB,
    CanonicalAngles,
    ProductState,
    build_canonical,
    canonicalize,
    equivalent,
    find_product_vectors,
    orthogonality_graphs,
    partial_trace,
    shifts,
    state_of,
    validate,
)
from upbkit.graphs import PartyGraph
from upbkit.product_search import Subspace
from upbkit.serialize import upb_from_document, upb_to_document
from upbkit.upb import (
    EquivalenceWitness,
    perp_qubit,
    qubit_state,
    scrambled,
    witness_error,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
# the orthogonality graphs of build_canonical's members, per party: the one
# coloring of K4 whose party graphs are all perfect matchings
K4_SURVIVOR = ({(0, 1), (2, 3)}, {(0, 2), (1, 3)}, {(0, 3), (1, 2)})


class TestConstruction:
    def test_shifts_members_orthonormal(self):
        u = shifts()
        stack = np.array([m.tensor for m in u.members])
        assert np.abs(stack @ stack.conj().T - np.eye(4)).max() < 1e-15

    def test_canonical_matches_shifts_up_to_sigma_z(self, shifts_class_upb):
        # I (x) sigma_z (x) I carries the Shifts family onto the canonical
        # (pi/2, pi/2, pi/2) representative member by member
        sz = np.diag([1.0, -1.0]).astype(complex)
        u = np.kron(np.eye(2), np.kron(sz, np.eye(2)))
        for m_shift, m_canon in zip(shifts().members, shifts_class_upb.members):
            mapped = u @ m_shift.tensor
            assert abs(abs(np.vdot(m_canon.tensor, mapped)) - 1) < 1e-12

    def test_canonical_family_is_valid_upb(self, third_class_upb):
        report = validate(third_class_upb)
        assert report.passed

    def test_boundary_angles_rejected(self):
        with pytest.raises(ValueError):
            CanonicalAngles(0.0, np.pi / 2, np.pi / 2)
        with pytest.raises(ValueError):
            CanonicalAngles(np.pi / 2, np.pi, np.pi / 2)

    def test_product_state_requires_unit_factors(self):
        for factor in (np.array([1.0, 1.0]), np.array([np.nan, 0.0])):
            with pytest.raises(ValueError):
                ProductState([factor, KET0, KET0])

    def test_upb_requires_orthonormal_members(self):
        with pytest.raises(ValueError):
            UPB([ProductState([KET0, KET0, KET0]), ProductState([KET0, KET0, PLUS])])


class TestStateOf:
    def test_spectrum(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = build_canonical(CanonicalAngles(*rng.uniform(0.1, np.pi - 0.1, 3)))
            w = np.linalg.eigvalsh(state_of(u).matrix)
            assert np.abs(w - np.array([0, 0, 0, 0, 0.25, 0.25, 0.25, 0.25])).max() < 1e-12

    def test_marginals_maximally_mixed(self, third_class_upb):
        rho = state_of(third_class_upb)
        for p in range(3):
            assert np.abs(partial_trace(rho, {p}).matrix - np.eye(2) / 2).max() <= 1e-12

    def test_members_in_kernel(self, third_class_upb):
        rho = state_of(third_class_upb).matrix
        for m in third_class_upb.members:
            assert abs(m.tensor.conj() @ rho @ m.tensor) < 1e-13


class TestOrthogonalityGraphs:
    def test_shifts_party_a(self):
        ga, gb, gc = orthogonality_graphs(shifts())
        assert ga.edges == frozenset({(0, 1), (2, 3)})

    def test_union_is_complete(self, third_class_upb):
        gs = orthogonality_graphs(third_class_upb)
        union = set().union(*(g.edges for g in gs))
        assert union == {(i, j) for i in range(4) for j in range(i + 1, 4)}

    def test_qubit_families_give_matchings(self):
        # distinct single-qubit states: orthogonality pairs them off, so each
        # graph is disjoint edges plus isolated vertices
        rng = np.random.default_rng(12)
        for _ in range(20):
            states = [random_state(rng) for _ in range(3)]
            states += [perp_qubit(states[0]), perp_qubit(states[1])]
            members = [ProductState([s, KET0, KET0]) for s in states]
            ga = orthogonality_graphs(members)[0]
            degrees = [0] * 5
            for i, j in ga.edges:
                degrees[i] += 1
                degrees[j] += 1
            assert max(degrees) <= 1


class TestCanonicalize:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            th = rng.uniform(0.05, np.pi - 0.05, 3)
            angles, witness = canonicalize(build_canonical(CanonicalAngles(*th)))
            assert np.abs(np.array(angles.as_tuple()) - th).max() < 1e-9
            assert witness.max_error < 1e-9

    def test_shifts(self):
        angles, _ = canonicalize(shifts())
        assert np.abs(np.array(angles.as_tuple()) - np.pi / 2).max() < 1e-12

    def test_scramble_recover(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            th = rng.uniform(0.05, np.pi - 0.05, 3)
            u = build_canonical(CanonicalAngles(*th))
            mixed, _, _ = scrambled(u, rng)
            angles, witness = canonicalize(mixed)
            assert np.abs(np.array(angles.as_tuple()) - th).max() < 1e-8
            assert witness.max_error < 1e-8

    def test_degenerate_family_rejected(self):
        # |A> = |0> collapses theta_A onto the boundary
        b = qubit_state(1.1)
        c = qubit_state(2.0)
        members = [
            ProductState([KET0, KET0, KET0]),
            ProductState([KET1, b, c]),
            ProductState([KET0, KET1, perp_qubit(c)]),
            ProductState([KET1, perp_qubit(b), KET1]),
        ]
        with pytest.raises(ValueError, match="boundary"):
            canonicalize(UPB(members))

    def test_member_without_a_partner_rejected(self):
        # every member shares |0> with member 0 on party A
        members = [ProductState([KET0, b, c]) for b in (KET0, KET1) for c in (KET0, KET1)]
        with pytest.raises(ValueError, match="not a valid UPB"):
            canonicalize(UPB(members))

    @pytest.mark.parametrize("party", [0, 1, 2])
    @pytest.mark.parametrize("angle", [1e-9, np.pi - 1e-9])
    def test_angle_within_the_boundary_tolerance_rejected(self, party, angle):
        th = [1.2, 2.0, 0.7]
        th[party] = angle
        mixed, _, _ = scrambled(build_canonical(CanonicalAngles(*th)), np.random.default_rng(19))
        with pytest.raises(ValueError, match="boundary"):
            canonicalize(mixed)

    @pytest.mark.parametrize("party", [0, 1, 2])
    @pytest.mark.parametrize("angle", [1e-7, np.pi - 1e-7])
    def test_angle_near_the_boundary_recovered(self, party, angle):
        th = [1.2, 2.0, 0.7]
        th[party] = angle
        mixed, _, _ = scrambled(build_canonical(CanonicalAngles(*th)), np.random.default_rng(19))
        angles, _ = canonicalize(mixed)
        assert np.abs(np.array(angles.as_tuple()) - th).max() < 1e-8

    @settings(max_examples=50, deadline=None)
    @given(
        angles=st.lists(st.floats(0.05, np.pi - 0.05), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scrambled_triple_recovered(self, angles, seed):
        mixed, _, _ = scrambled(build_canonical(CanonicalAngles(*angles)), np.random.default_rng(seed))
        recovered, witness = canonicalize(mixed)
        assert np.abs(np.array(recovered.as_tuple()) - angles).max() < 1e-8
        assert witness.max_error <= 1e-8

    @settings(max_examples=50, deadline=None)
    @given(
        angles=st.lists(st.floats(0.05, np.pi - 0.05), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scrambled_graphs_are_the_k4_survivor(self, angles, seed):
        # canonicalize reads the member order off these graphs: scrambled
        # member j is canonical member witness.permutation[j]
        mixed, _, _ = scrambled(build_canonical(CanonicalAngles(*angles)), np.random.default_rng(seed))
        perm = canonicalize(mixed)[1].permutation
        relabelled = tuple(
            {tuple(sorted((perm[i], perm[j]))) for i, j in g.edges} for g in orthogonality_graphs(mixed)
        )
        assert relabelled == K4_SURVIVOR

    def test_k4_survivor_has_no_extension_split(self):
        # a split puts each party's members into one (component, side) class
        # of that party's graph; any split would extend every realization
        classes = [PartyGraph(4, frozenset(edges)).sides() for edges in K4_SURVIVOR]
        for split in itertools.product(range(3), repeat=4):
            assert any(len({classes[p][k] for k in range(4) if split[k] == p}) > 1 for p in range(3))


class TestEquivalent:
    def test_reflexive_identity_permutation(self, shifts_class_upb):
        w = equivalent(shifts_class_upb, shifts_class_upb)
        assert w is not None
        assert w.permutation == (0, 1, 2, 3)
        assert w.max_error < 1e-10

    def test_distinct_angles_not_equivalent(self, shifts_class_upb):
        other = build_canonical(CanonicalAngles(np.pi / 3, np.pi / 2, np.pi / 2))
        assert equivalent(shifts_class_upb, other) is None

    def test_scrambled_pair_found(self):
        rng = np.random.default_rng(15)
        u = build_canonical(CanonicalAngles(0.8, 2.2, 1.4))
        mixed, _, _ = scrambled(u, rng)
        w = equivalent(u, mixed)
        assert w is not None
        assert w.max_error < 1e-8
        assert witness_error(w, u, mixed) < 1e-8

    def test_symmetric_and_transitive(self):
        rng = np.random.default_rng(16)
        base = build_canonical(CanonicalAngles(1.9, 0.7, 2.8))
        s, _, _ = scrambled(base, rng)
        t, _, _ = scrambled(base, rng)
        w_st = equivalent(s, t)
        w_ts = equivalent(t, s)
        w_sb = equivalent(s, base)
        w_bt = equivalent(base, t)
        assert w_st is not None and w_ts is not None
        # symmetry: both directions witness the same relation
        assert witness_error(w_ts, t, s) < 1e-8
        # transitivity: composing s->base with base->t witnesses s->t
        perm = tuple(w_bt.permutation[w_sb.permutation[j]] for j in range(4))
        unitaries = tuple(u2 @ u1 for u1, u2 in zip(w_sb.unitaries, w_bt.unitaries))
        composed = EquivalenceWitness(perm, unitaries, 0.0)
        assert witness_error(composed, s, t) < 1e-8


class TestUnitaryMapProperty:
    def test_witness_scalars_map_span_to_span(self):
        rng = np.random.default_rng(17)
        base = build_canonical(CanonicalAngles(2.1, 1.0, 0.5))
        target, _, _ = scrambled(base, rng)
        w = equivalent(base, target)
        p_perp = np.eye(8) - target.span_projector
        for _ in range(50):
            scalar = rng.standard_normal() + 1j * rng.standard_normal()
            x = scalar * np.kron(w.unitaries[0], np.kron(w.unitaries[1], w.unitaries[2]))
            for m in base.members:
                assert np.linalg.norm(p_perp @ (x @ m.tensor)) < 1e-8
            for u in w.unitaries:
                gram = u.conj().T @ u
                assert np.abs(gram / gram[0, 0] - np.eye(2)).max() < 1e-10

    def test_non_unitary_operators_never_map_span_to_span(self):
        rng = np.random.default_rng(18)
        base = build_canonical(CanonicalAngles(2.1, 1.0, 0.5))
        target, _, _ = scrambled(base, rng)
        p_perp = np.eye(8) - target.span_projector
        for _ in range(100):
            factors = []
            while len(factors) < 3:
                f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                s = np.linalg.svd(f, compute_uv=False)
                # nondegenerate and visibly non-unitary
                if s[1] > 0.05 and s[0] / s[1] > 1.2:
                    factors.append(f / s[0])
            x = np.kron(factors[0], np.kron(factors[1], factors[2]))
            worst = max(
                np.linalg.norm(p_perp @ (x @ m.tensor)) for m in base.members
            )
            assert worst > 1e-6


class TestValidate:
    def test_shifts_pass(self):
        report = validate(shifts())
        assert report.passed
        assert report.orthonormality_error < 1e-15
        assert report.extension is None

    def test_partial_family_is_extendible(self):
        u = shifts()
        partial = UPB(u.members[:3])
        report = validate(partial)
        assert not report.unextendible
        assert not report.member_count_ok
        assert report.extension is not None
        # the omitted member is among the product vectors of the complement
        sub = Subspace((2, 2, 2), partial.complement_basis)
        hits = find_product_vectors(sub)
        omitted = u.members[3]
        assert any(h.matches(omitted.factors, 1e-8) for h in hits)

    def test_degenerate_family_is_extendible(self):
        b = qubit_state(1.1)
        c = qubit_state(2.0)
        members = [
            ProductState([KET0, KET0, KET0]),
            ProductState([KET1, b, c]),
            ProductState([KET0, KET1, perp_qubit(c)]),
            ProductState([KET1, perp_qubit(b), KET1]),
        ]
        report = validate(UPB(members))
        assert not report.unextendible
        assert report.extension.residual <= 1e-12


class TestSerialization:
    def test_round_trip(self, third_class_upb):
        doc = upb_to_document(third_class_upb)
        back = upb_from_document(doc)
        for a, b in zip(third_class_upb.members, back.members):
            assert np.abs(a.tensor - b.tensor).max() < 1e-15

    def test_canonical_shorthand(self):
        u = upb_from_document({"canonical": [1.0, 2.0, 0.5]})
        angles, _ = canonicalize(u)
        assert np.allclose(angles.as_tuple(), (1.0, 2.0, 0.5), atol=1e-12)

    def test_malformed_document(self):
        with pytest.raises(ValueError):
            upb_from_document({"dims": [2, 2, 2]})
        with pytest.raises(ValueError):
            upb_from_document({"canonical": [1.0, 2.0]})
