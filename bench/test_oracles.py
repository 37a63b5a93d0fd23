"""Self-test of the benchmark's oracles: a valid report passes, and one
doctored report per op kind is counted as failed.

Runs with pytest and needs only numpy: the reports are built here from the
closed forms the oracles check against, not by running upbkit.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
import spans

TRIPLE = (1.1, 2.3, 0.7)


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in v]


def _cli(result, code=0):
    return code, json.dumps({"schema": 1, "config": {}, "result": result, "exit_code": code})


def certify_result():
    d, f = oracles.DELTA_REFERENCE, oracles.FIDELITY_REFERENCE
    return {
        "delta_min": d,
        "fidelity_max": f,
        "consistent": True,
        "chain": {
            "perp_weight_at_argmax": 1 - d - 1e-3,
            "perp_root_trace_at_argmax": 2 * math.sqrt(1 - d) - 1e-3,
        },
    }


def span_result(groups):
    hits = []
    for m in oracles.canonical_members(TRIPLE):
        factors = [oracles._kron(m[p] for p in g) for g in groups]
        hits.append({"partition": groups, "factors": [_pairs(f) for f in factors], "residual": 0.0})
    return {"n_hits": len(hits), "hits": hits}


PARTITIONS = [[[0], [1], [2]], [[0], [1, 2]], [[0, 2], [1]], [[0, 1], [2]]]


def audit_outputs():
    outputs = [_cli(span_result(g)) for g in PARTITIONS]
    outputs.append(_cli({"passed": True, "unextendible": True, "extension": None}))
    return outputs


def extend_inputs():
    """Five computational basis states and the product vector |111>."""
    ket = (oracles.KET0, oracles.KET1)
    labels = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0))
    return [[ket[b] for b in bits] for bits in labels], [oracles.KET1] * 3


def qutrit_result(n_extras=1):
    direction = oracles.QUTRIT_EXTRA_DIRECTION["tiles"].astype(complex)
    extra = {"factors": [_pairs(direction), _pairs(direction)], "residual": 1e-16}
    return {"total_product_vectors": 5 + n_extras, "n_extras": n_extras, "extras": [extra] * n_extras}


def classify_result(angles, equivalent=True):
    return {"equivalent": equivalent, "angles_a": list(angles)}


def test_valid_reports_pass():
    members, hit = extend_inputs()
    tensors = np.array([oracles._kron(m) for m in members])
    assert np.abs(tensors @ tensors.conj().T - np.eye(5)).max() <= 1e-12
    assert oracles.check_certify(_cli(certify_result())) == []
    assert oracles.check_audit(TRIPLE, PARTITIONS, audit_outputs()) == []
    assert oracles.check_extend(members, (hit, 1e-16)) == []
    assert oracles.check_qutrit("tiles", _cli(qutrit_result())) == []
    assert oracles.check_classify(TRIPLE, True, _cli(classify_result(TRIPLE))) == []
    assert oracles.check_classify(TRIPLE, False, _cli(classify_result(TRIPLE, False), code=1)) == []


def test_doubled_delta_fails():
    result = certify_result()
    result["delta_min"] *= 2
    assert oracles.check_certify(_cli(result))


def test_dropped_hit_fails():
    outputs = audit_outputs()
    code, text = outputs[1]
    report = json.loads(text)
    report["result"]["hits"].pop()
    report["result"]["n_hits"] -= 1
    outputs[1] = (code, json.dumps(report))
    assert oracles.check_audit(TRIPLE, PARTITIONS, outputs)
    members, _ = extend_inputs()
    assert oracles.check_extend(members, None)


def test_extra_hit_fails():
    assert oracles.check_qutrit("tiles", _cli(qutrit_result(n_extras=2)))


def test_wrong_angle_fails():
    wrong = (TRIPLE[0], TRIPLE[1] + 1e-6, TRIPLE[2])
    assert oracles.check_classify(TRIPLE, True, _cli(classify_result(wrong)))


@pytest.mark.parametrize("code", [1, 2])
def test_wrong_exit_code_fails(code):
    assert oracles.check_classify(TRIPLE, True, _cli(classify_result(TRIPLE), code=code))


def test_benchmark_json_names_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    layer_stats = {f"{n}.{s}" for n in spans.layer_names() for s in ("calls", "s", "self_s")}
    assert layer_stats <= listed
