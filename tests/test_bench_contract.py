"""The benchmark calls upbkit with fixed names and call shapes
(``realize_coloring(coloring, seed=...)``, ``is_extendible(members,
config)``, ``enumerate_colorings().survivors``, a search's
``subspace.dims``).  Each workload's first round must run, pass its oracles,
and give the same fingerprint when rerun under the tracer, as a traced
benchmark run checks it.  ``bench/run.py`` is not imported: it sets BLAS
thread variables at import."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads"), importlib.import_module("spans")


@pytest.mark.parametrize("name", ["certify", "audit", "refute"])
def test_first_round_passes_its_oracles_traced_and_untraced(bench, name, tmp_path):
    workloads, spans = bench
    wl = workloads.WORKLOADS[name](1, tmp_path)
    tracer = spans.Tracer()
    for op_id, op in enumerate(wl.round(0), start=1):
        output = op.run()
        assert op.check(output) == [], op.kind
        with tracer.installed(), tracer.op(op_id, op.kind):
            traced = op.run()
        assert op.fingerprint(traced) == op.fingerprint(output), op.kind
    # every op ran through at least one traced layer beside its own span
    assert {s[4][0] for s in tracer.spans if not s[0].startswith("op.")} == set(range(1, op_id + 1))
