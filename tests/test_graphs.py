import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import canonical_form, heavy_classes, heavy_parties
from upbkit import graphs
from upbkit.graphs import (
    K5_EDGES,
    PARTY_LABELS,
    ColoringScan,
    EdgeColoring,
    PartyGraph,
    RealizationError,
    enumerate_colorings,
    extension_split,
    is_valid_party_graph,
    realize_coloring,
)
from upbkit.linalg import kron_all
from upbkit.product_search import is_extendible

# the two admissible heavy graphs: a five-vertex path and a four-cycle plus
# an isolated vertex (canonical labelings from exhaustive enumeration)
PATH_FORM = canonical_form(PartyGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})))
CYCLE_FORM = canonical_form(PartyGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})))


@st.composite
def bipartite_colorings(draw) -> EdgeColoring:
    # bit p of vertex v's code is v's side in party p's 2-coloring; an edge
    # takes a party whose sides it crosses, which distinct codes guarantee.
    # Every bipartite coloring arises this way.
    codes = draw(st.lists(st.integers(0, 7), min_size=5, max_size=5, unique=True))
    labels = []
    for i, j in K5_EDGES:
        parties = [PARTY_LABELS[p] for p in range(3) if (codes[i] ^ codes[j]) >> p & 1]
        labels.append(draw(st.sampled_from(parties)))
    return EdgeColoring(tuple(labels))


@pytest.fixture(scope="module")
def scan() -> ColoringScan:
    return enumerate_colorings()


class TestPartyConstraints:
    def test_path_is_valid(self):
        g = PartyGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))
        assert is_valid_party_graph(g)

    def test_triangle_has_odd_cycle(self):
        g = PartyGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        assert g.sides() is None
        assert not is_valid_party_graph(g)

    def test_star_has_valence_violation(self):
        # bipartite, so only the valence of vertex 0 rules it out
        g = PartyGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
        assert g.sides() is not None
        assert not is_valid_party_graph(g)

    def test_five_cycle_is_odd(self):
        g = PartyGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))
        assert g.sides() is None
        assert not is_valid_party_graph(g)

    def test_sides_of_a_path_and_a_four_cycle(self):
        path = PartyGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))
        assert path.sides() == [(0, 0), (0, 1), (0, 0), (0, 1), (0, 0)]
        cycle = PartyGraph(5, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
        assert cycle.sides() == [(0, 0), (1, 0), (1, 1), (1, 0), (1, 1)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            PartyGraph(3, frozenset({(1, 1)}))

    def test_monotone_violation(self):
        # adding edges never removes a violation, so single-party labeling
        # suffices for the existence scan
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 1000:
            mask = rng.integers(0, 2, len(K5_EDGES)).astype(bool)
            edges = frozenset(e for e, b in zip(K5_EDGES, mask) if b)
            g = PartyGraph(5, edges)
            if is_valid_party_graph(g):
                continue
            remaining = [e for e in K5_EDGES if e not in edges]
            if not remaining:
                continue
            extra = remaining[int(rng.integers(0, len(remaining)))]
            bigger = PartyGraph(5, edges | {extra})
            assert not is_valid_party_graph(bigger)
            checked += 1


class TestEnumerateValidGraphs:
    def test_exactly_two_classes(self):
        assert heavy_classes() == sorted([PATH_FORM, CYCLE_FORM])


class TestEnumerateColorings:
    def test_scan_is_exhaustive(self, scan):
        assert scan.scanned == 3 ** 10 == 59049

    def test_survivor_count_regression(self, scan):
        assert len(scan.survivors) == 4590

    def test_every_survivor_has_heavy_party(self, scan):
        for coloring in scan.survivors:
            assert heavy_parties(coloring)

    def test_heavy_graphs_fall_into_the_two_classes(self, scan):
        seen = set()
        for coloring in scan.survivors:
            form = canonical_form(coloring.party_graph(heavy_parties(coloring)[0]))
            seen.add(form)
            assert form in (PATH_FORM, CYCLE_FORM)
        assert seen == {PATH_FORM, CYCLE_FORM}

    def test_order_independence(self, scan):
        # re-enumeration reproduces the same survivor set
        again = enumerate_colorings()
        assert [c.labels for c in again.survivors] == [c.labels for c in scan.survivors]


class TestRealizeColoring:
    def test_realization_is_orthonormal_with_margins(self, scan):
        coloring = scan.survivors[0]
        members = realize_coloring(coloring, seed=5)
        stack = np.array([m.tensor for m in members])
        assert np.abs(stack @ stack.conj().T - np.eye(5)).max() < 1e-12
        for (i, j), label in zip(K5_EDGES, coloring.labels):
            p = "ABC".index(label)
            assert abs(np.vdot(members[i].factors[p], members[j].factors[p])) < 1e-14

    def test_different_seeds_same_outcome(self, scan):
        coloring = scan.survivors[100]
        a = realize_coloring(coloring, seed=1)
        b = realize_coloring(coloring, seed=2)
        assert np.abs(a[0].tensor - b[0].tensor).max() > 1e-3
        for members in (a, b):
            hit = is_extendible(members)
            assert hit is not None and hit.residual <= 1e-9

    def test_one_realization_per_survivor_matches_its_split(self, scan):
        # extension_split is the proof; one realization per survivor checks
        # it: the exact extension exists, and its factor on each member's
        # split party is orthogonal to that member
        for idx, coloring in enumerate(scan.survivors):
            split = extension_split(coloring)
            members = realize_coloring(coloring, seed=idx * 10)
            ext = is_extendible(members)
            leak = np.sqrt(
                sum(abs(np.vdot(m.tensor, kron_all(ext.factors))) ** 2 for m in members)
            )
            assert leak <= 1e-9
            for m, label in zip(members, split):
                p = PARTY_LABELS.index(label)
                assert abs(np.vdot(ext.factors[p], m.factors[p])) <= 1e-12

    def test_sampled_survivors_extendible_by_search(self, scan):
        rng = np.random.default_rng(22)
        for idx in rng.choice(len(scan.survivors), size=6, replace=False):
            members = realize_coloring(scan.survivors[idx], seed=int(idx))
            hit = is_extendible(members)
            assert hit is not None and hit.residual <= 1e-9

    def test_unrealizable_margin_fails(self, scan, monkeypatch):
        monkeypatch.setattr(graphs, "REALIZE_MARGIN", 0.49)
        monkeypatch.setattr(graphs, "REALIZE_ATTEMPTS", 5)
        with pytest.raises(RealizationError):
            realize_coloring(scan.survivors[0], seed=3)


class TestExtensionSplit:
    def test_every_survivor_splits(self, scan):
        for coloring in scan.survivors:
            split = extension_split(coloring)
            assert split is not None and len(split) == 5
            for party in PARTY_LABELS:
                sides = coloring.party_graph(party).sides()
                assert len({sides[v] for v in range(5) if split[v] == party}) <= 1

    def test_first_split_in_product_order(self, scan):
        for coloring in scan.survivors[::50]:
            classes = [coloring.party_graph(p).sides() for p in PARTY_LABELS]
            first = next(
                split for split in itertools.product(range(3), repeat=5)
                if all(len({classes[p][v] for v in range(5) if split[v] == p}) <= 1 for p in range(3))
            )
            assert extension_split(coloring) == tuple(PARTY_LABELS[p] for p in first)

    def test_odd_cycle_has_no_realization(self):
        # all ten edges on A: K5 has triangles
        with pytest.raises(ValueError):
            extension_split(EdgeColoring(("A",) * 10))

    @settings(max_examples=60, deadline=None)
    @given(coloring=bipartite_colorings())
    def test_valence_is_a_consequence(self, coloring):
        # a bipartite coloring that breaks the valence rule still splits:
        # the rule only prunes colorings that extend anyway
        graphs = [coloring.party_graph(p) for p in PARTY_LABELS]
        assert all(g.sides() is not None for g in graphs)
        assume(not all(is_valid_party_graph(g) for g in graphs))
        assert extension_split(coloring) is not None


def test_realizations_and_survivor_order_are_pinned(scan):
    # sha256 digests taken before the parity union-find replaced the BFS
    # traversals; the benchmark's refute inputs depend on both
    order = "\n".join("".join(c.labels) for c in scan.survivors)
    assert hashlib.sha256(order.encode()).hexdigest() == (
        "68c6bbb0174d95b6283b24950ee6f9a59d24d4721d5b9cb0c5df04f26b24e5ba"
    )
    h = hashlib.sha256()
    for i in range(0, len(scan.survivors), 7):
        for m in realize_coloring(scan.survivors[i], seed=i):
            h.update(m.tensor.tobytes())
    assert h.hexdigest() == "5643d414f6a52e2cbfb8858d500314f431902583f1b609a6023a75eb20c66aef"


def test_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring(("A",) * 9)
    with pytest.raises(ValueError):
        EdgeColoring(("A",) * 9 + ("X",))
