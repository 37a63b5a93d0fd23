"""Output oracles for the benchmark's op kinds.

Each check takes an op's output and returns the list of problems it finds; an
empty list means the op passed.  The checks use numpy only, never upbkit, so a
defect in the program cannot also hide in its oracle.  Tolerances are those of
the acceptance criteria in ``tests/test_acceptance.py`` (3, 4, 5, 7 and 9).
"""

from __future__ import annotations

import json
import math

import numpy as np

# criterion 7: the reference certificate for (pi/2)^3 -> (pi/3)^3
DELTA_REFERENCE = 0.0275559
FIDELITY_REFERENCE = 0.9812328
DELTA_RTOL = 0.1
FIDELITY_ATOL = 5e-3
CHAIN_SLACK = 1e-9

MEMBER_MATCH_TOL = 1e-8  # criterion 3
ANGLE_TOL = 1e-8  # criterion 5
RESIDUAL_TOL = 1e-9  # criteria 4 and 9
ORTHOGONALITY_TOL = 1e-8
DIRECTION_TOL = 1e-8  # criterion 9

# criterion 9: the one extra product vector in each bundled two-qutrit span
# has every factor along this direction
QUTRIT_EXTRA_DIRECTION = {
    "tiles": np.array([2.0, -1.0, 2.0]) / 3.0,
    "pyramid": np.array([1.0, 0.0, 0.0]),
}

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def _qubit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)


def _perp(v: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)


def canonical_members(triple) -> list[list[np.ndarray]]:
    """Per-party factors of the canonical UPB with angles ``triple``."""
    a, b, c = (_qubit(t) for t in triple)
    return [
        [KET0, KET0, KET0],
        [KET1, b, c],
        [a, KET1, _perp(c)],
        [_perp(a), _perp(b), KET1],
    ]


def _vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def _kron(factors) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def _report(output, expected_code: int, problems: list[str]) -> dict | None:
    code, text = output
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    try:
        return json.loads(text)["result"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        problems.append(f"no JSON report: {exc!r}")
        return None


def check_certify(output) -> list[str]:
    """Exit 0, consistent, the reference values, and the square-root chain."""
    problems: list[str] = []
    res = _report(output, 0, problems)
    if res is None:
        return problems
    d, f = res["delta_min"], res["fidelity_max"]
    chain = res["chain"]
    if res["consistent"] is not True:
        problems.append("certificate not consistent")
    if not abs(d - DELTA_REFERENCE) <= DELTA_RTOL * DELTA_REFERENCE:
        problems.append(f"delta_min {d} not within 10% of {DELTA_REFERENCE}")
    if not abs(f - FIDELITY_REFERENCE) <= FIDELITY_ATOL:
        problems.append(f"fidelity_max {f} not within 5e-3 of {FIDELITY_REFERENCE}")
    if not d > 0:
        problems.append(f"delta_min {d} not positive")
    elif not (
        f <= 1 - d / 2 + CHAIN_SLACK
        and chain["perp_weight_at_argmax"] <= 1 - d + CHAIN_SLACK
        and chain["perp_root_trace_at_argmax"] <= 2 * math.sqrt(1 - d) + CHAIN_SLACK
    ):
        problems.append("square-root chain bound violated")
    return problems


def _unmatched_members(hits, members, problems: list[str]) -> set[int]:
    """Members no hit matches; records hits that match no member."""
    left = set(range(len(members)))
    for hit in hits:
        factors = [_vector(f) for f in hit["factors"]]
        groups = hit["partition"]
        matched = {
            j for j, m in enumerate(members)
            if all(
                abs(np.vdot(_kron(m[p] for p in g), f)) >= 1 - MEMBER_MATCH_TOL
                for g, f in zip(groups, factors)
            )
        }
        if not matched:
            problems.append(f"hit on {groups} matches no member")
        left -= matched
    return left


def check_audit(triple, partitions, outputs) -> list[str]:
    """Each span search finds exactly the four members; validate passes.

    ``outputs`` holds one ``(code, text)`` per entry of ``partitions`` (the
    span searches, groups as lists of parties) followed by the validate run.
    """
    problems: list[str] = []
    members = canonical_members(triple)
    for partition, output in zip(partitions, outputs):
        res = _report(output, 0, problems)
        if res is None:
            continue
        hits = res["hits"]
        if res["n_hits"] != 4 or len(hits) != 4:
            problems.append(f"{partition}: {len(hits)} hits, expected 4")
        want = sorted(map(tuple, partition))
        if any(sorted(map(tuple, h["partition"])) != want for h in hits):
            problems.append(f"{partition}: hit on another partition")
            continue
        left = _unmatched_members(hits, members, problems)
        if left:
            problems.append(f"{partition}: members {sorted(left)} not found")
    res = _report(outputs[len(partitions)], 0, problems)
    if res is not None and not (
        res["passed"] is True and res["unextendible"] is True and res["extension"] is None
    ):
        problems.append("validate did not pass unextendible with no extension")
    return problems


def check_extend(member_factors, hit) -> list[str]:
    """A product vector orthogonal to five orthonormal product states.

    ``member_factors`` lists each member's per-party factors; ``hit`` is
    ``(factors, residual)`` or None.
    """
    problems: list[str] = []
    tensors = np.array([_kron(m) for m in member_factors])
    if len(tensors) != 5:
        problems.append(f"{len(tensors)} members, expected 5")
    gram_err = np.abs(tensors @ tensors.conj().T - np.eye(len(tensors))).max()
    if not gram_err <= 1e-10:
        problems.append(f"members not orthonormal (error {gram_err})")
    if hit is None:
        problems.append("no extension found")
        return problems
    factors, res = hit
    if not res <= RESIDUAL_TOL:
        problems.append(f"extension residual {res} above {RESIDUAL_TOL}")
    v = _kron(np.asarray(f) / np.linalg.norm(f) for f in factors)
    worst = np.abs(tensors.conj() @ v).max()
    if not worst <= ORTHOGONALITY_TOL:
        problems.append(f"extension overlaps a member by {worst}")
    return problems


def check_qutrit(name: str, output) -> list[str]:
    """Six product vectors in the span, one of them extra, along the known
    direction."""
    problems: list[str] = []
    res = _report(output, 0, problems)
    if res is None:
        return problems
    if res["total_product_vectors"] != 6:
        problems.append(f"{res['total_product_vectors']} product vectors, expected 6")
    extras = res["extras"]
    if res["n_extras"] != 1 or len(extras) != 1:
        problems.append(f"{len(extras)} extras, expected 1")
        return problems
    if not extras[0]["residual"] <= RESIDUAL_TOL:
        problems.append(f"extra residual {extras[0]['residual']} above {RESIDUAL_TOL}")
    direction = QUTRIT_EXTRA_DIRECTION[name]
    for f in extras[0]["factors"]:
        if not abs(np.vdot(_vector(f), direction)) >= 1 - DIRECTION_TOL:
            problems.append("extra not along the known direction")
            break
    return problems


def check_classify(triple, same_class: bool, output) -> list[str]:
    """Recovered angles of the scrambled UPB, and the equivalence verdict
    against the true (``same_class``) or a shifted triple."""
    problems: list[str] = []
    res = _report(output, 0 if same_class else 1, problems)
    if res is None:
        return problems
    if res["equivalent"] is not same_class:
        problems.append(f"equivalent is {res['equivalent']}, expected {same_class}")
    err = max(abs(x - y) for x, y in zip(res["angles_a"], triple))
    if not err <= ANGLE_TOL:
        problems.append(f"recovered angles off by {err}")
    return problems
