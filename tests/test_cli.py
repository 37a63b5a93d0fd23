import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import upbkit
from upbkit import cli, qutrit
from upbkit import upb as upb_module
from upbkit.cli import main
from upbkit.filtering import GapSearchConfig
from upbkit.linalg import orthonormality_error
from upbkit.product_search import SearchConfig, Subspace, find_product_vectors, normalize_partition
from upbkit.serialize import InputError, dumps_report, upb_from_document, upb_to_document
from upbkit.upb import UPB, CanonicalAngles, ProductState, build_canonical, canonicalize, shifts

SHIFTS_CLASS = "canonical:1.5707963267948966,1.5707963267948966,1.5707963267948966"
THIRD_CLASS = "canonical:1.0471975511965976,1.0471975511965976,1.0471975511965976"


def partnerless() -> UPB:
    """{|000>, |001>, |010>, |011>}: orthonormal and extendible, and no
    member has a partner on party A, so canonical angles do not label it."""
    ket = np.eye(2, dtype=complex)
    return UPB([ProductState([ket[0], b, c]) for b in ket for c in ket])


@pytest.fixture()
def shifts_file(tmp_path):
    path = tmp_path / "shifts.json"
    path.write_text(dumps_report(upb_to_document(shifts())))
    return str(path)


@pytest.fixture()
def partnerless_file(tmp_path):
    path = tmp_path / "partnerless.json"
    path.write_text(dumps_report(upb_to_document(partnerless())))
    return str(path)


@pytest.fixture()
def full_basis_file(tmp_path):
    # the eight-member computational basis spans the whole space
    ket = np.eye(2, dtype=complex)
    path = tmp_path / "full.json"
    family = UPB([ProductState([a, b, c]) for a in ket for b in ket for c in ket])
    path.write_text(dumps_report(upb_to_document(family)))
    return str(path)


def nudged_file(tmp_path, upb) -> str:
    """``upb`` as a document whose member 1 has its second factor moved by
    3e-11 and renormalized: orthonormal within the loader's 1e-10, not 1e-12."""
    doc = upb_to_document(upb)
    f = np.array([complex(*pair) for pair in doc["members"][1][1]])
    f[0] += 3e-11
    doc["members"][1][1] = [[z.real, z.imag] for z in f / np.linalg.norm(f)]
    error = orthonormality_error(np.array([m.tensor for m in upb_from_document(doc).members]))
    assert 1e-12 < error < 1e-10
    path = tmp_path / "near.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestExitCodes:
    def test_equiv_negative(self, tmp_path):
        code, report = run(
            tmp_path, "equiv", "--a", SHIFTS_CLASS, "--b",
            "canonical:1.0472,1.5708,1.5708",
        )
        assert code == 1
        assert report["result"]["equivalent"] is False

    def test_equiv_positive(self, tmp_path, shifts_file):
        code, report = run(tmp_path, "equiv", "--a", SHIFTS_CLASS, "--b", shifts_file)
        assert code == 0
        assert report["result"]["equivalent"] is True
        assert report["result"]["witness"]["max_error"] < 1e-9

    def test_validate_upb_file(self, tmp_path, shifts_file):
        code, report = run(tmp_path, "validate", "--upb", shifts_file)
        assert code == 0
        assert report["schema"] == 4
        assert report["result"]["passed"] is True
        assert set(report["result"]) == {
            "dims", "n_members", "orthonormality_error", "member_count_ok",
            "unextendible", "extension", "party_graphs", "passed",
        }

    def test_validate_partial_family_fails(self, tmp_path):
        doc = upb_to_document(shifts())
        doc["members"] = doc["members"][:3]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        code, report = run(tmp_path, "validate", "--upb", str(path))
        assert code == 1
        assert report["result"]["unextendible"] is False

    def test_certify_equivalent_pair_is_usage_error(self, shifts_file):
        code = main(["certify", "--source", SHIFTS_CLASS, "--target", shifts_file])
        assert code == 3

    def test_bad_arguments_are_usage_errors(self, tmp_path):
        assert main(["equiv", "--a", "canonical:1.0"]) == 3
        assert main(["no-such-command"]) == 3
        assert main(["build", "--angles", "0.0,1.0,1.0"]) == 3
        assert main(["qutrit-extras", "--upb", "tiles", "--grid", "5"]) == 3
        assert main(["validate", "--upb", "tiles", "--grid", "5"]) == 3
        assert main(["graphs", "--min-edges", "4"]) == 3
        assert main(["qutrit-extras", "--upb", "tiles", "--tol", "-1"]) == 3
        assert main(["search-pv", "--upb", "tiles", "--partition", "0|1|2"]) == 3
        assert main(["search-pv", "--upb", "canonical:1,2,0.5", "--partition", "0,1,2"]) == 3
        assert main(["search-pv", "--upb", "canonical:1,2,0.5", "--partition", "a|b"]) == 3
        assert main(["validate", "--upb", str(tmp_path / "missing.json")]) == 3
        assert main(["validate", "--upb", "canonical:a,b,c"]) == 3
        assert main(["search-pv", "--upb", "canonical:1,2,0.5", "--seed", "-1"]) == 3
        assert main(["search-pv", "--upb", "canonical:1,2,0.5", "--tol", "nan"]) == 3
        assert main(["qutrit-extras", "--upb", "tiles", "--seed", "-1"]) == 3
        assert main(["qutrit-extras", "--upb", "canonical:1,1,1"]) == 3
        assert main(["equiv", "--a", "tiles", "--b", "pyramid"]) == 3
        certify = ["certify", "--source", SHIFTS_CLASS, "--target", THIRD_CLASS]
        assert main(certify + ["--seed", "-1"]) == 3
        assert main(certify + ["--slack", "nan"]) == 3
        assert main(certify + ["--slack", "inf"]) == 3
        assert main(["certify", "--source", "tiles", "--target", THIRD_CLASS]) == 3
        nan_factor = upb_to_document(shifts())
        nan_factor["members"][1][0][0][0] = float("nan")
        long_factor = upb_to_document(shifts())
        long_factor["members"][1][0].append([0.0, 0.0])
        # dims entries are JSON integers, not numbers or strings that int() reads as 2
        fractional, text, boolean = (
            {**upb_to_document(shifts()), "dims": dims} for dims in ([2.9, 2, 2], ["2", 2, 2], [True, 2, 2])
        )
        docs = (
            {"dims": [2, 2, 2]},
            [1, 2],
            {"dims": [2, 2, 2], "members": [1]},
            {"canonical": [0.0, 1.0, 1.0]},
            {"dims": [2, 2, 2], "members": []},
            {"dims": [], "members": [[]]},
            {"dims": [0], "members": [[[]]]},
            {"dims": [2, 0], "members": [[[[1, 0], [0, 0]], []]]},
            nan_factor,
            long_factor,
            fractional,
            text,
            boolean,
        )
        for i, doc in enumerate(docs):
            path = tmp_path / f"not_a_upb{i}.json"
            path.write_text(json.dumps(doc))
            assert main(["validate", "--upb", str(path)]) == 3
            assert main(["equiv", "--a", str(path), "--b", SHIFTS_CLASS]) == 3

    @pytest.mark.parametrize("out", ["missing/u.json", "."])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, out, capsys):
        # a missing directory, and a directory where the file should be
        assert main(["build", "--angles", "1,2,0.5", "--out", str(tmp_path / out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot write report to ")
        assert err.count("\n") == 1

    def test_out_of_memory_is_a_numerical_error(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "find_product_vectors", exhausted)
        assert main(["search-pv", "--upb", "canonical:1,2,0.5"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_numerical_error_exit(self, tmp_path):
        doc = {"dims": [2, 2, 2], "members": [[[[1.0, 0.0], [0.0, 0.0]]] * 3] * 2}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--upb", str(path)]) == 2
        # the extendibility verdict hinges on a rank decision within rounding
        assert main(["validate", "--upb", "canonical:1e-9,1,1"]) == 2


class TestInputErrors:
    @pytest.mark.parametrize("spec", ["canonical:1e-12,1,1", "partnerless"])
    def test_family_without_canonical_angles_is_an_input_error(self, spec, partnerless_file, capsys):
        spec = partnerless_file if spec == "partnerless" else spec
        for argv in (["equiv", "--a", spec, "--b", THIRD_CLASS],
                     ["certify", "--source", spec, "--target", THIRD_CLASS]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and err.count("\n") == 1
        # validate gives the extendibility verdict instead
        assert main(["validate", "--upb", spec]) == 1

    def test_family_spanning_the_space_is_an_input_error(self, full_basis_file, capsys):
        for argv in (["state"], ["search-pv", "--space", "span"], ["search-pv", "--space", "complement"]):
            assert main(argv + ["--upb", full_basis_file]) == 3
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and err.count("\n") == 1
            if argv[-1] == "span":
                assert err == "usage error: subspace is the full space; every product vector lies in it\n"
        assert main(["validate", "--upb", full_basis_file]) == 1

    def test_rank_ambiguity_is_numerical_only_in_validate(self):
        # canonicalize rejects the family as degenerate before any rank decision
        assert main(["equiv", "--a", "canonical:1e-9,1,1", "--b", THIRD_CLASS]) == 3
        assert main(["validate", "--upb", "canonical:1e-9,1,1"]) == 2

    def test_input_error_is_a_value_error(self):
        assert issubclass(InputError, ValueError)

    @pytest.mark.parametrize("check", [
        lambda: CanonicalAngles(0.0, 1.0, 1.0),
        lambda: canonicalize(qutrit.bundled_upb("tiles")),
        lambda: canonicalize(build_canonical(CanonicalAngles(1e-12, 1.0, 1.0))),
        lambda: canonicalize(partnerless()),
        lambda: SearchConfig(grid_resolution=5),
        lambda: SearchConfig(residual_tol=float("nan")),
        lambda: SearchConfig(max_iterations=0),
        lambda: SearchConfig(seed=-1),
        lambda: normalize_partition([(0,), (0, 1)], 2),
        lambda: normalize_partition([(0, 1, 2)], 3),
        lambda: GapSearchConfig(budget=99),
        lambda: GapSearchConfig(seed=-1),
        lambda: GapSearchConfig(slack=float("inf")),
        lambda: qutrit.extra_product_vectors(shifts()),
        lambda: find_product_vectors(Subspace((2, 2), np.zeros((4, 0)))),
    ], ids=[
        "angles", "canonicalize-kind", "canonicalize-boundary", "canonicalize-partner",
        "grid", "tol", "iterations", "search-seed", "partition-cover", "partition-groups",
        "budget", "gap-seed", "slack", "qutrit-parties", "zero-subspace",
    ])
    def test_library_check_raises_input_error(self, check):
        with pytest.raises(InputError):
            check()

    def test_canonicalize_witness_check_raises_input_error(self, monkeypatch):
        # no orthonormal family with one partner per party fails the witness
        # check, so force its error
        monkeypatch.setattr(upb_module, "witness_error", lambda *args: 1.0)
        with pytest.raises(InputError, match="not a valid UPB"):
            canonicalize(shifts())


class TestReports:
    def test_build_emits_upb_document(self, tmp_path):
        code, report = run(tmp_path, "build", "--angles", "1.0,2.0,0.5")
        assert code == 0
        assert report["result"]["dims"] == [2, 2, 2]
        assert len(report["result"]["members"]) == 4
        assert report["config"]["subcommand"] == "build"

    def test_build_output_feeds_back_as_input(self, tmp_path):
        # the CLI must accept its own reports as UPB inputs
        upb_path = tmp_path / "built.json"
        assert main(["build", "--angles", "1.0,2.0,0.5", "--out", str(upb_path)]) == 0
        code, report = run(tmp_path, "equiv", "--a", str(upb_path), "--b", "canonical:1.0,2.0,0.5")
        assert code == 0
        assert report["result"]["equivalent"] is True
        assert main(["validate", "--upb", str(upb_path)]) == 0

    def test_state_emits_density_matrix(self, tmp_path):
        code, report = run(tmp_path, "state", "--upb", SHIFTS_CLASS)
        assert code == 0
        m = report["result"]["matrix"]
        assert len(m) == 8
        trace = sum(m[i][i][0] for i in range(8))
        assert abs(trace - 1) < 1e-12

    def test_search_pv_finds_members(self, tmp_path, shifts_file):
        code, report = run(tmp_path, "search-pv", "--upb", shifts_file, "--space", "span")
        assert code == 0
        assert report["result"]["n_hits"] == 4
        code, report = run(tmp_path, "search-pv", "--upb", shifts_file, "--space", "complement")
        assert code == 0
        assert report["result"]["n_hits"] == 0

    def test_search_pv_partition_flag(self, tmp_path, shifts_file):
        code, report = run(
            tmp_path, "search-pv", "--upb", shifts_file, "--partition", "0|1,2"
        )
        assert code == 0
        assert report["result"]["n_hits"] == 4

    def test_search_pv_on_a_family_orthonormal_only_within_1e_10(self, tmp_path):
        # the span is searched on the complement the UPB holds, so a family
        # the loader accepts is searched, not refused at 1e-12
        path = nudged_file(tmp_path, build_canonical(CanonicalAngles(1.0, 2.0, 0.5)))
        code, _ = run(tmp_path, "validate", "--upb", path)
        assert code == 0
        for partition in ([], ["--partition", "0|1,2"], ["--partition", "1|0,2"], ["--partition", "2|0,1"]):
            code, report = run(tmp_path, "search-pv", "--upb", path, "--space", "span", *partition)
            assert code == 0
            assert report["result"]["n_hits"] == 4

    def test_qutrit_extras_on_a_family_orthonormal_only_within_1e_10(self, tmp_path):
        path = nudged_file(tmp_path, qutrit.bundled_upb("tiles"))
        code, report = run(tmp_path, "qutrit-extras", "--upb", path)
        assert code == 0
        assert report["result"]["n_extras"] == 1
        code, report = run(tmp_path, "search-pv", "--upb", path)
        assert code == 0
        assert report["result"]["n_hits"] == 6

    def test_graphs_report(self, tmp_path):
        code, report = run(tmp_path, "graphs")
        assert code == 0
        assert set(report["result"]) == {"scanned", "survivor_count", "survivors"}
        assert report["result"]["scanned"] == 59049
        assert report["result"]["survivor_count"] == 4590
        survivors = report["result"]["survivors"]
        assert all(len(s["split"]) == 5 and set(s["split"]) <= set("ABC") for s in survivors)
        assert survivors[0] == {"labels": "AABBBABACC", "split": "ACBAB"}
        # pins the survivor order and every split
        pairs = json.dumps([[s["labels"], s["split"]] for s in survivors]).encode()
        assert hashlib.sha256(pairs).hexdigest() == "d6f741bc84c5a31c6e8aca14ff9753359925bb8f335d331fdeb31e89bba56784"

    def test_qutrit_extras_report(self, tmp_path):
        code, report = run(tmp_path, "qutrit-extras", "--upb", "tiles")
        assert code == 0
        assert report["result"]["total_product_vectors"] == 6
        assert report["result"]["n_extras"] == 1

    def test_certify_report(self, tmp_path):
        code, report = run(
            tmp_path, "certify", "--source", SHIFTS_CLASS, "--target", THIRD_CLASS,
            "--restarts", "12", "--budget", "600",
        )
        assert code == 0
        assert report["result"]["consistent"] is True
        assert report["result"]["delta_min"] > 1e-3
        assert report["config"]["restarts"] == 12
        result = report["result"]
        assert set(result) == {
            "status", "source_angles", "target_angles", "delta_min", "fidelity_max", "epsilon",
            "slack", "consistent", "argmin_kind", "chain", "optimizer",
        }
        assert set(result["chain"]) == {
            "span_overlap_at_argmax", "perp_weight_at_argmax", "perp_weight_bound",
            "perp_root_trace_at_argmax", "perp_root_trace_bound", "fidelity_bound",
        }
        assert set(result["optimizer"]) == {
            "seed", "restarts", "budget", "boundary_restarts", "boundary_budget",
            "interior_optima", "boundary_optima", "fidelity_optima",
        }
        assert result["optimizer"]["boundary_restarts"] == 64
        assert result["optimizer"]["boundary_budget"] == 3000
        assert len(result["optimizer"]["boundary_optima"]) == 64

    def test_text_format(self, tmp_path, capsys):
        code = main(["equiv", "--a", SHIFTS_CLASS, "--b", SHIFTS_CLASS, "--format", "text"])
        captured = capsys.readouterr()
        assert code == 0
        assert "equivalent: True" in captured.out


class TestReproducibility:
    def test_identical_argv_gives_identical_bytes(self, tmp_path, shifts_file):
        argvs = [
            ["equiv", "--a", SHIFTS_CLASS, "--b", THIRD_CLASS],
            ["search-pv", "--upb", shifts_file, "--seed", "5"],
            ["certify", "--source", SHIFTS_CLASS, "--target", THIRD_CLASS,
             "--restarts", "8", "--budget", "400", "--seed", "9"],
        ]
        for i, argv in enumerate(argvs):
            a = tmp_path / f"a{i}.json"
            b = tmp_path / f"b{i}.json"
            main(argv + ["--out", str(a)])
            main(argv + ["--out", str(b)])
            assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def _bytes_under_threads(argv) -> list[bytes]:
        """Standard output of ``upbkit <argv>`` in fresh processes under 1
        and 2 BLAS threads."""
        src = str(Path(upbkit.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from upbkit.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
                env=env, capture_output=True, timeout=300, check=True,
            )
            outputs.append(proc.stdout)
        return outputs

    def test_certify_bytes_do_not_depend_on_the_blas_thread_count(self):
        outputs = self._bytes_under_threads(
            ["certify", "--source", SHIFTS_CLASS, "--target", THIRD_CLASS,
             "--restarts", "12", "--budget", "600", "--seed", "9"])
        assert outputs[0]
        assert outputs[0] == outputs[1]

    def test_search_pv_cut_bytes_do_not_depend_on_the_blas_thread_count(self):
        outputs = self._bytes_under_threads(
            ["search-pv", "--upb", "canonical:0.3,2.9,1.7", "--partition", "1|0,2", "--seed", "5"])
        assert outputs[0]
        assert outputs[0] == outputs[1]
