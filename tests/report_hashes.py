"""Print the exit code and SHA-256 of ``cli.main``'s stdout for a fixed argv list.

Run from the repository root with ``upbkit`` importable::

    PYTHONPATH=src python tests/report_hashes.py > hashes.txt

Each line is ``<exit code> <stdout SHA-256> <stderr SHA-256, first 16> <argv>``.
The argv cover every subcommand: ``search-pv`` in both spaces on four
partitions, ``validate``, ``state`` and ``build`` of three canonical triples;
``qutrit-extras`` and ``search-pv`` on Tiles and Pyramid at two seeds; small
``certify`` runs, ``equiv`` and ``graphs``; full-space bases, malformed and
missing files; scrambled files; and default-budget certificates of four
pairs at two seeds, and of ``PAIR_33`` from scrambled files.
Two checkouts, or two BLAS thread counts, produce the same report bytes on
this list exactly when their outputs are equal, so ``diff`` of the two
outputs is a byte-identity check of the CLI.  The UPB files the argv name are
written into a fresh working directory under fixed relative names, so the
``config`` each report embeds is the same on every run.  Not collected by
pytest (the file name has no ``test_`` prefix).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import shlex
import tempfile

import numpy as np

from conftest import PAIR_33
from upbkit.cli import main
from upbkit.serialize import dumps_report, upb_to_document
from upbkit.upb import UPB, CanonicalAngles, ProductState, build_canonical, scrambled

REFERENCE = ((np.pi / 2,) * 3, (np.pi / 3,) * 3)
TRIPLES = ((1, 2, 0.5), (0.3, 2.9, 1.7), (2.2, 0.7, 1.4))
SCRAMBLED = (*TRIPLES, REFERENCE[0])
PARTITIONS = ("0|1|2", "0|1,2", "1|0,2", "2|0,1")


def canonical(triple) -> str:
    return "canonical:" + ",".join(repr(float(t)) for t in triple)


def write_files() -> None:
    """The UPB files the argv list names, in the working directory."""
    def dump(name, doc):
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(dumps_report(doc))

    rng = np.random.default_rng(5)  # source first
    for name, triple in zip(("pair33_source.json", "pair33_target.json"), PAIR_33):
        dump(name, upb_to_document(scrambled(build_canonical(CanonicalAngles(*triple)), rng)[0]))
    ket = np.eye(2, dtype=complex)
    dump("full8.json", upb_to_document(UPB([ProductState(list(m)) for m in itertools.product(ket, repeat=3)])))
    ket = np.eye(3, dtype=complex)
    dump("full9.json", upb_to_document(UPB([ProductState(list(m)) for m in itertools.product(ket, repeat=2)])))
    doc = upb_to_document(build_canonical(CanonicalAngles(1, 2, 0.5)))
    doc["members"][1][2] = doc["members"][1][2] + [[0.0, 0.0]]
    dump("mismatch.json", doc)
    for i, dims in enumerate(([], [0, 2, 2], [2.9, 2, 2])):
        doc = upb_to_document(build_canonical(CanonicalAngles(1, 2, 0.5)))
        dump(f"dims{i}.json", dict(doc, dims=dims, members=[[]] if not dims else doc["members"]))
    rng = np.random.default_rng(7)
    for i, triple in enumerate(SCRAMBLED):
        dump(f"scrambled{i}.json", upb_to_document(scrambled(build_canonical(CanonicalAngles(*triple)), rng)[0]))


def argv_list() -> list[list[str]]:
    out = []
    for t in TRIPLES:
        spec = canonical(t)
        out += [["search-pv", "--upb", spec, "--space", space, "--partition", p]
                for space in ("span", "complement") for p in PARTITIONS]
        out += [["validate", "--upb", spec], ["state", "--upb", spec], ["build", "--angles", ",".join(map(str, t))]]
    for name, seed in itertools.product(("tiles", "pyramid"), ("101", "5")):
        out += [["qutrit-extras", "--upb", name, "--seed", seed], ["search-pv", "--upb", name, "--seed", seed]]
    small = ["--restarts", "20", "--budget", "500"]
    out += [
        ["certify", "--source", canonical(REFERENCE[0]), "--target", canonical(REFERENCE[1]), *small],
        ["certify", "--source", canonical(TRIPLES[0]), "--target", canonical(TRIPLES[1]), *small, "--seed", "9"],
        ["certify", "--source", canonical(TRIPLES[0]), "--target", canonical(TRIPLES[0]), *small],
        ["equiv", "--a", "canonical:1,1,1", "--b", "canonical:1,1,1.1"],
        ["equiv", "--a", "canonical:1e-12,1,1", "--b", "canonical:1,1,1"],
        ["graphs"],
    ]
    for path in ("full8.json", "full9.json", "mismatch.json", "missing.json"):
        out += [["validate", "--upb", path], ["state", "--upb", path],
                ["search-pv", "--upb", path, "--space", "span"], ["search-pv", "--upb", path, "--space", "complement"],
                ["qutrit-extras", "--upb", path]]
    out += [["validate", "--upb", f"dims{i}.json"] for i in range(3)]
    for i, triple in enumerate(SCRAMBLED):
        out += [["validate", "--upb", f"scrambled{i}.json"],
                ["equiv", "--a", f"scrambled{i}.json", "--b", canonical(triple)]]
    # default-budget certificates
    pairs = (REFERENCE, ((2.2, 0.7, 1.4), (1, 2, 0.5)), ((1, 2, 0.5), (0.3, 2.9, 1.7)), PAIR_33)
    for s, t in pairs:
        out.append(["equiv", "--a", canonical(s), "--b", canonical(t)])
    for (s, t), seed in itertools.product(pairs, ("3", "11")):
        out.append(["certify", "--source", canonical(s), "--target", canonical(t), "--seed", seed])
    out.append(["certify", "--source", "pair33_source.json", "--target", "pair33_target.json", "--seed", "3"])
    return out


def run(argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    err = hashlib.sha256(stderr.getvalue().encode()).hexdigest()[:16]
    return f"{code} {digest} {err} {shlex.join(argv)}"


def _main() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_files()
            for argv in argv_list():
                print(run(argv), flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    _main()
