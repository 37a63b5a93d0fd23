"""The benchmark's traced runs wrap upbkit functions by name; a rename or a
deletion of one of them must fail here rather than in a traced run."""

import importlib.util
from pathlib import Path

import upbkit.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    main = upbkit.cli.main
    # installing runs getattr on every (module, name) in TRACED
    with spans.Tracer().installed():
        assert upbkit.cli.main is not main
    assert upbkit.cli.main is main
