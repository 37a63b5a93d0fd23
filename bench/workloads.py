"""The benchmark's workloads: input generation (set-up) and their op streams.

Every input is drawn from the workload seed.  The program sees only the argv
built here and the UPB files written to the work directory during set-up;
each CLI op runs in-process through ``upbkit.cli.main``, so argument parsing,
loading and report serialization cost what they cost a user.  A workload is a
stream of rounds; a round is a list of ops, each timed on its own and checked
by its oracle afterwards.

- ``certify``: the reference gap certificate at default budgets.  Nearly all
  of its time is in ``filtering``; it never calls ``product_search``.
- ``audit``: "members are the only product vectors" for one random canonical
  UPB per round: span searches on the finest partition and on the three
  cuts, then ``validate``, which searches the complement.  Square
  three-qubit ``product_search`` cases only; it never calls ``filtering``.
- ``refute``: per round one five-member extension (``graphs`` plus the
  non-square ``product_search`` fallback), one two-qutrit extras search, and
  ten angle classifications of scrambled UPB files (``upb``, ``serialize``,
  ``cli``).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from upbkit import cli, graphs, product_search
from upbkit.product_search import SearchConfig

POOL = 256  # rounds of inputs drawn per run; a run cycles through them
N_UPB_FILES = 64
CLASSIFY_PER_ROUND = 10
MIN_SHIFT = 1e-3
MAX_SHIFT = 0.1
# audit angles keep this distance from 0 and pi: closer to the boundary the
# default search misses members, e.g. one cut of (0.0112, 0.1723, 0.1304)
# finds 3 of the 4 (see bench/README.md)
AUDIT_MARGIN = 0.05

AUDIT_PARTITIONS = (None, "0|1,2", "1|0,2", "2|0,1")
EXTEND_SEARCH = SearchConfig(grid_resolution=10, max_iterations=40)  # criterion 4


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # a value that must be equal for two runs of the op to count as equal
    fingerprint: Callable[[object], object] = lambda output: output


def cli_call(argv: list[str]) -> tuple[int, str]:
    """``upbkit <argv>`` in-process: exit code and standard output."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def canonical_spec(triple) -> str:
    return "canonical:" + ",".join(repr(float(t)) for t in triple)


SOURCE = canonical_spec([math.pi / 2] * 3)
TARGET = canonical_spec([math.pi / 3] * 3)


def _partition_groups(text: str | None) -> list[list[int]]:
    if text is None:
        return [[0], [1], [2]]
    return [[int(p) for p in chunk.split(",")] for chunk in text.split("|")]


def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def scrambled_document(triple, rng: np.random.Generator) -> dict:
    """The canonical UPB of ``triple`` under random local unitaries and a
    random member order, as a UPB document."""
    us = [_random_unitary(rng, 2) for _ in range(3)]
    members = oracles.canonical_members(triple)
    order = rng.permutation(len(members))
    return {
        "dims": [2, 2, 2],
        "members": [
            [[[float(z.real), float(z.imag)] for z in u @ f] for u, f in zip(us, members[j])]
            for j in order
        ],
    }


def shifted_triple(triple, rng: np.random.Generator) -> list[float]:
    """``triple`` with one angle moved by 1e-3 to 0.1 towards the middle of
    (0, pi), so the class differs by at least 1e-3."""
    out = [float(t) for t in triple]
    k = int(rng.integers(0, 3))
    step = rng.uniform(MIN_SHIFT, MAX_SHIFT)
    out[k] += step if out[k] < math.pi / 2 else -step
    return out


class Workload:
    """Inputs for one run; ``inputs`` records them for the digest."""

    name: str
    inputs: dict

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def digest(self, workdir: Path) -> str:
        h = hashlib.sha256(json.dumps(self.inputs, sort_keys=True).encode())
        for path in sorted(workdir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()


class Certify(Workload):
    name = "certify"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2 ** 31, POOL)]
        self.inputs = {"seeds": self.seeds}

    def round(self, r):
        argv = ["certify", "--source", SOURCE, "--target", TARGET, "--seed", str(self.seeds[r % POOL])]
        return [Op("certify", lambda: cli_call(argv), oracles.check_certify)]


def shifted_halton(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` points of the 3-d Halton sequence under one uniform random shift
    modulo 1.  Each point is uniform on the unit cube, and every prefix covers
    it evenly, so runs of any length see a comparable mix of inputs."""
    points = np.empty((n, 3))
    for axis, base in enumerate((2, 3, 5)):
        for i in range(n):
            k, f, x = i + 1, 1.0, 0.0
            while k:
                f /= base
                x += f * (k % base)
                k //= base
            points[i, axis] = x
    return (points + rng.uniform(0.0, 1.0, 3)) % 1.0


class Audit(Workload):
    name = "audit"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        points = shifted_halton(rng, POOL)
        self.triples = (AUDIT_MARGIN + (math.pi - 2 * AUDIT_MARGIN) * points).tolist()
        self.inputs = {"triples": self.triples}

    def round(self, r):
        triple = self.triples[r % POOL]
        spec = canonical_spec(triple)
        argvs = []
        for partition in AUDIT_PARTITIONS:
            argv = ["search-pv", "--upb", spec, "--space", "span"]
            argvs.append(argv + ["--partition", partition] if partition else argv)
        argvs.append(["validate", "--upb", spec])
        groups = [_partition_groups(p) for p in AUDIT_PARTITIONS]
        return [Op(
            "audit",
            lambda: [cli_call(a) for a in argvs],
            lambda out: oracles.check_audit(triple, groups, out),
        )]


def _extend_output(members, hit):
    factors = [list(m.factors) for m in members]
    return factors, (None if hit is None else (list(hit.factors), hit.residual))


def _extend_fingerprint(output) -> bytes:
    factors, hit = output
    arrays = [f for m in factors for f in m] + ([] if hit is None else list(hit[0]))
    return b"".join(a.tobytes() for a in arrays) + repr(None if hit is None else hit[1]).encode()


class Refute(Workload):
    name = "refute"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        survivors = graphs.enumerate_colorings().survivors
        picks = rng.integers(0, len(survivors), POOL)
        self.extend = [(survivors[int(i)], int(s)) for i, s in zip(picks, rng.integers(0, 2 ** 31, POOL))]
        self.files = []
        for f in range(N_UPB_FILES):
            triple = rng.uniform(0.0, math.pi, 3).tolist()
            path = workdir / f"upb-{f:02d}.json"
            path.write_text(json.dumps(scrambled_document(triple, rng)), encoding="utf-8")
            self.files.append((str(path), triple, shifted_triple(triple, rng)))
        self.inputs = {
            "extend": [("".join(c.labels), s) for c, s in self.extend],
            "files": [(Path(p).name, t, s) for p, t, s in self.files],
        }

    def round(self, r):
        coloring, realize_seed = self.extend[r % POOL]

        def extend():
            members = graphs.realize_coloring(coloring, seed=realize_seed)
            return members, product_search.is_extendible(members, EXTEND_SEARCH)

        # the CLI's default search seed: with other seeds the grid-12 search
        # can miss one of Pyramid's six product vectors (see bench/README.md)
        name = ("tiles", "pyramid")[r % 2]
        qutrit_argv = ["qutrit-extras", "--upb", name]
        ops = [
            Op("extend", lambda: _extend_output(*extend()), lambda out: oracles.check_extend(*out),
               _extend_fingerprint),
            Op("qutrit", lambda: cli_call(qutrit_argv), lambda out: oracles.check_qutrit(name, out)),
        ]
        for k in range(CLASSIFY_PER_ROUND):
            path, triple, shifted = self.files[(CLASSIFY_PER_ROUND * r + k) % N_UPB_FILES]
            same = k % 2 == 0
            argv = ["equiv", "--a", path, "--b", canonical_spec(triple if same else shifted)]
            ops.append(Op(
                "classify",
                lambda argv=argv: cli_call(argv),
                lambda out, triple=triple, same=same: oracles.check_classify(triple, same, out),
            ))
        return ops


WORKLOADS = {w.name: w for w in (Certify, Audit, Refute)}
