import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from upbkit import validate
from upbkit.cli import main
from upbkit.linalg import partial_transpose
from upbkit.product_search import residual, Subspace
from upbkit.qutrit import QUTRIT_SEARCH, bundled_upb, extra_product_vectors
from upbkit.serialize import InputError, upb_from_document, upb_to_document
from upbkit.upb import UPB, ProductState, state_of

# the published extra product vectors (up to phase): |0>|0> for pyramid and
# the symmetric direction (2|0> - |1> + 2|2>)^(x2) / 9 for tiles
TILES_EXTRA = np.array([2.0, -1.0, 2.0]) / 3.0
PYRAMID_EXTRA = np.array([1.0, 0.0, 0.0])


def cli_report(argv):
    """Exit code and parsed JSON report of ``upbkit <argv>``."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def tiles():
    return bundled_upb("tiles")


@pytest.fixture(scope="module")
def pyramid():
    return bundled_upb("pyramid")


class TestLoading:
    def test_bundled_families_are_orthonormal(self, tiles, pyramid):
        for u in (tiles, pyramid):
            assert u.dims == (3, 3)
            assert u.n == 5
            stack = np.array([m.tensor for m in u.members])
            assert np.abs(stack @ stack.conj().T - np.eye(5)).max() < 1e-12

    def test_truncated_document_rejected(self, tiles):
        doc = upb_to_document(tiles)
        doc["members"][0] = doc["members"][0][:1]
        with pytest.raises(ValueError):
            upb_from_document(doc)

    def test_unknown_bundle_rejected(self):
        with pytest.raises(ValueError):
            bundled_upb("nonexistent")

    def test_load_from_json_string(self, tiles):
        back = upb_from_document(json.loads(json.dumps(upb_to_document(tiles))))
        assert back.n == 5


class TestExtraProductVectors:
    def test_tiles_extra(self, tiles):
        _, extras = extra_product_vectors(tiles)
        assert len(extras) == 1
        hit = extras[0]
        for f in hit.factors:
            assert abs(abs(np.vdot(f, TILES_EXTRA)) - 1) < 1e-8
        # the printed normalization 1/9 indeed makes the tensor unit norm
        printed = np.kron(np.array([2.0, -1.0, 2.0]), np.array([2.0, -1.0, 2.0])) / 9.0
        assert abs(np.linalg.norm(printed) - 1.0) < 1e-12
        assert residual([TILES_EXTRA, TILES_EXTRA], Subspace(tiles.dims, tiles.span_basis)) <= 1e-9

    def test_pyramid_extra(self, pyramid):
        _, extras = extra_product_vectors(pyramid)
        assert len(extras) == 1
        hit = extras[0]
        for f in hit.factors:
            assert abs(abs(np.vdot(f, PYRAMID_EXTRA)) - 1) < 1e-8
        assert residual([PYRAMID_EXTRA, PYRAMID_EXTRA], Subspace(pyramid.dims, pyramid.span_basis)) <= 1e-9

    def test_spans_hold_exactly_six_product_vectors(self, tiles, pyramid):
        from upbkit.product_search import find_product_vectors

        for u in (tiles, pyramid):
            sub = Subspace(u.dims, u.span_basis)
            hits = find_product_vectors(sub, [(0,), (1,)], QUTRIT_SEARCH)
            assert len(hits) == 6

    def test_pyramid_at_a_seed_where_a_search_missed_a_member(self):
        # the CLI run ``qutrit-extras --upb pyramid --seed 574233326``
        code, out = cli_report(["qutrit-extras", "--upb", "pyramid", "--seed", "574233326"])
        assert code == 0
        assert out["result"]["total_product_vectors"] == 6
        assert out["result"]["n_extras"] == 1

    def test_wrong_party_count_rejected(self, shifts_class_upb):
        with pytest.raises(ValueError):
            extra_product_vectors(shifts_class_upb)

    def test_family_spanning_the_space_rejected(self):
        ket = np.eye(3, dtype=complex)
        full = UPB([ProductState([a, b]) for a in ket for b in ket])
        with pytest.raises(InputError, match="subspace is the full space"):
            extra_product_vectors(full)


class TestQutritStates:
    def test_families_validate_as_upbs(self, tiles, pyramid):
        for u in (tiles, pyramid):
            report = validate(u)
            assert report.orthonormality_error <= 1e-10
            assert report.unextendible

    def test_bound_entangled_states(self, tiles, pyramid):
        for u in (tiles, pyramid):
            rho = state_of(u)
            w = np.linalg.eigvalsh(rho.matrix)
            assert abs(rho.matrix.trace() - 1) < 1e-12
            assert w.min() > -1e-12
            assert (w > 1e-10).sum() == 4
            pt = partial_transpose(rho, (1,))
            assert np.linalg.eigvalsh(pt).min() >= -1e-10
