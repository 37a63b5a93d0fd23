"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion is pinned to its stated tolerance.
"""

import contextlib
import json

import numpy as np
import pytest

from conftest import canonical_form, heavy_classes, heavy_parties, random_separable, random_state, trace_distance
from upbkit import (
    CanonicalAngles,
    build_canonical,
    canonicalize,
    equivalent,
    fidelity,
    find_product_vectors,
    is_extendible,
    partial_trace,
    partial_transpose,
    state_of,
)
from upbkit.cli import main as cli_main
from upbkit.filtering import (
    GapSearchConfig,
    LocalFilter,
    apply_filter,
    apply_separable,
    boundary_limit,
    certify_gap,
    span_overlap,
)
from upbkit.graphs import enumerate_colorings, extension_split, realize_coloring
from upbkit.product_search import Subspace
from upbkit.qutrit import QUTRIT_SEARCH, bundled_upb, extra_product_vectors
from upbkit.upb import perp_qubit, scrambled

TRIPLE_SEED = 20
N_TRIPLES = 20

# artifact-derived regression constants, fixed at first computation with the
# default GapSearchConfig budgets
DELTA_REFERENCE = 0.0275559
FIDELITY_REFERENCE = 0.9812328

CUTS = (((0,), (1, 2)), ((1,), (0, 2)), ((2,), (0, 1)))


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {description}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


@pytest.fixture(scope="module")
def triples():
    rng = np.random.default_rng(TRIPLE_SEED)
    return [rng.uniform(0.0, np.pi, 3) for _ in range(N_TRIPLES)]


@pytest.fixture(scope="module")
def upbs(triples):
    return [build_canonical(CanonicalAngles(*t)) for t in triples]


@pytest.fixture(scope="module")
def gap_pair():
    return (
        build_canonical(CanonicalAngles(np.pi / 2, np.pi / 2, np.pi / 2)),
        build_canonical(CanonicalAngles(np.pi / 3, np.pi / 3, np.pi / 3)),
    )


def test_criterion_1_state_construction(upbs):
    with criterion(1, "rank-4 spectrum, unit trace, maximally mixed marginals"):
        target = np.array([0, 0, 0, 0, 0.25, 0.25, 0.25, 0.25])
        for u in upbs:
            rho = state_of(u)
            assert abs(rho.matrix.trace().real - 1.0) <= 1e-12
            w = np.linalg.eigvalsh(rho.matrix)
            assert np.abs(w - target).max() <= 1e-12
            for party in range(3):
                marg = partial_trace(rho, {party}).matrix
                assert np.abs(marg - np.eye(2) / 2).max() <= 1e-12


def test_criterion_2_ppt_on_every_cut(upbs):
    with criterion(2, "partial transposes PSD across all three bipartite cuts"):
        for u in upbs:
            rho = state_of(u)
            for _, right in CUTS:
                pt = partial_transpose(rho, right)
                assert np.linalg.eigvalsh(pt).min() >= -1e-10


def test_criterion_3_members_are_the_only_product_vectors(upbs):
    with criterion(3, "span searches find exactly the members; complement is empty"):
        partitions = [((0,), (1,), (2,))] + list(CUTS)
        for u in upbs:
            sub = Subspace(u.dims, u.span_basis)
            for partition in partitions:
                hits = find_product_vectors(sub, partition)
                assert len(hits) == 4
                for h in hits:
                    assert any(h.matches(m.factors, 1e-8) for m in u.members)
            assert find_product_vectors(sub.complement(), partitions[0]) == []


def test_criterion_4_five_member_refutation():
    with criterion(4, "coloring scan, two heavy classes, every survivor splits, realizations extend"):
        scan = enumerate_colorings()
        assert scan.scanned == 3 ** 10
        forms = heavy_classes()
        assert len(forms) == 2
        by_class = {f: [] for f in forms}
        for coloring in scan.survivors:
            # the proof: each survivor extends in every realization
            assert extension_split(coloring) is not None
            heavy = heavy_parties(coloring)
            assert heavy
            form = canonical_form(coloring.party_graph(heavy[0]))
            assert form in forms
            by_class[form].append(coloring)
        rng = np.random.default_rng(TRIPLE_SEED + 1)
        for form in forms:
            pool = by_class[form]
            assert pool
            for rep in range(10):
                coloring = pool[int(rng.integers(0, len(pool)))]
                members = realize_coloring(coloring, seed=int(rng.integers(0, 2 ** 31)))
                hit = is_extendible(members)
                assert hit is not None
                assert hit.residual <= 1e-9


def test_criterion_5_angle_recovery_and_separation():
    with criterion(5, "scramble-recover within 1e-8; distinct triples inequivalent"):
        rng = np.random.default_rng(TRIPLE_SEED + 2)
        for _ in range(100):
            th = rng.uniform(0.0, np.pi, 3)
            u = build_canonical(CanonicalAngles(*th))
            mixed, _, _ = scrambled(u, rng)
            angles, witness = canonicalize(mixed)
            assert np.abs(np.array(angles.as_tuple()) - th).max() <= 1e-8
            other = build_canonical(angles)
            assert equivalent(u, other) is not None
        for _ in range(100):
            a = rng.uniform(0.0, np.pi, 3)
            while True:
                b = rng.uniform(0.0, np.pi, 3)
                if np.abs(a - b).max() >= 1e-3:
                    break
            ua = build_canonical(CanonicalAngles(*a))
            ub = build_canonical(CanonicalAngles(*b))
            assert equivalent(ua, ub) is None


def test_criterion_6_separable_superoperators_never_reach_the_target(gap_pair):
    with criterion(6, "random separable superoperators stay below fidelity 1 - 1e-6"):
        source, target = gap_pair
        rho_s = state_of(source)
        rho_t = state_of(target)
        rng = np.random.default_rng(TRIPLE_SEED + 3)
        checked = 0
        for _ in range(200):
            e = random_separable(rng, max_filters=16)
            state, p = apply_separable(e, rho_s)
            if p > 1e-14:
                assert fidelity(rho_t, state) < 1 - 1e-6
                checked += 1
        assert checked > 150


def test_criterion_7_gap_certificate_stability(gap_pair):
    with criterion(7, "gap certificate: stable delta, fidelity ceiling, chain bounds"):
        source, target = gap_pair
        deltas = []
        for seed in (101, 7, 40):
            cert = certify_gap(source, target, GapSearchConfig(seed=seed))
            deltas.append(cert.delta_min)
            assert cert.delta_min > 0
            assert cert.fidelity_max <= 1 - cert.delta_min / 2 + 1e-9
            assert cert.perp_weight_at_argmax <= 1 - cert.delta_min + 1e-9
            assert cert.perp_root_trace_at_argmax <= 2 * np.sqrt(1 - cert.delta_min) + 1e-9
            assert cert.consistent
            assert abs(cert.delta_min - DELTA_REFERENCE) <= 0.1 * DELTA_REFERENCE
            assert abs(cert.fidelity_max - FIDELITY_REFERENCE) <= 5e-3
        spread = (max(deltas) - min(deltas)) / min(deltas)
        assert spread <= 0.10


def test_criterion_8_boundary_limits(gap_pair):
    with criterion(8, "filters collapsing onto a member converge to the closed form"):
        source, target = gap_pair
        rho = state_of(source)
        rng = np.random.default_rng(TRIPLE_SEED + 4)
        for member in range(4):
            targets = [random_state(rng) for _ in range(3)]
            perts = [random_state(rng) for _ in range(3)]
            weights = rng.uniform(0.2, 1.0, 3)
            limit = boundary_limit(source, member, targets, perts, weights)
            mf = source.members[member].factors
            distances = []
            for eps in (1e-3, 1e-4, 1e-5):
                factors = [
                    np.outer(t, f.conj()) + eps * np.sqrt(w) * np.outer(q, perp_qubit(f).conj())
                    for t, f, q, w in zip(targets, mf, perts, weights)
                ]
                state, p = apply_filter(LocalFilter.from_raw(factors), rho)
                assert state is not None
                distances.append(trace_distance(state, limit))
            assert distances[0] > distances[1] > distances[2]
            assert distances[2] <= 1e-4
            assert span_overlap(target, limit) > 0
            for _, right in CUTS:
                pt = partial_transpose(limit, right)
                assert np.linalg.eigvalsh(pt).min() >= -1e-10


def test_criterion_9_two_qutrit_spans():
    with criterion(9, "Tiles and Pyramid spans hold exactly six product vectors"):
        tiles_extra = np.array([2.0, -1.0, 2.0]) / 3.0
        pyramid_extra = np.array([1.0, 0.0, 0.0])
        for name, direction in (("tiles", tiles_extra), ("pyramid", pyramid_extra)):
            u = bundled_upb(name)
            sub = Subspace(u.dims, u.span_basis)
            hits = find_product_vectors(sub, [(0,), (1,)], QUTRIT_SEARCH)
            assert len(hits) == 6
            _, extras = extra_product_vectors(u)
            assert len(extras) == 1
            hit = extras[0]
            assert hit.residual <= 1e-9
            for f in hit.factors:
                assert abs(np.vdot(f, direction)) >= 1 - 1e-8


def test_criterion_10_reproducible_reports(tmp_path):
    with criterion(10, "identical CLI invocations give byte-identical reports"):
        shifts_spec = "canonical:1.5707963267948966,1.5707963267948966,1.5707963267948966"
        third_spec = "canonical:1.0471975511965976,1.0471975511965976,1.0471975511965976"
        argvs = [
            ["equiv", "--a", shifts_spec, "--b", third_spec],
            ["search-pv", "--upb", shifts_spec, "--seed", "17"],
            ["graphs"],
            ["certify", "--source", shifts_spec, "--target", third_spec,
             "--restarts", "10", "--budget", "500", "--seed", "3"],
        ]
        for i, argv in enumerate(argvs):
            paths = [tmp_path / f"r{i}_{k}.json" for k in range(2)]
            for p in paths:
                cli_main(argv + ["--out", str(p)])
            assert paths[0].read_bytes() == paths[1].read_bytes()
            json.loads(paths[0].read_text())
