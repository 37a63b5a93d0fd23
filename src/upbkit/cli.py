"""Command-line front end: reproducible experiments with JSON reports.

Every report embeds the full run configuration; identical argv (including
--seed) produces byte-identical output.  Exit codes: 0 success, 1 for
negative outcomes where the command defines failure (invalid UPB,
inequivalent pair, inconsistent certificate), 2 numerical errors, 3 usage
errors.  An input fault is decided where it is raised, as the one
:class:`~upbkit.serialize.InputError`, and exits 3: bad arguments,
unreadable or malformed UPB files, bad config values or partitions, a family
that ``equiv`` or ``certify`` cannot label (not a four-member three-qubit
UPB, degenerate, or not canonical), a family that spans the whole space
in ``state`` or ``search-pv``, and an unwritable ``--out`` path.  Every
other ``ValueError`` exits 2: members that are not orthonormal, or an
extendibility verdict within rounding.  ``validate`` gives the
extendibility verdict itself.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import qutrit
from .filtering import GapSearchConfig, certify_gap
from .graphs import enumerate_colorings, extension_split
from .product_search import DEFAULT_SEED, SearchConfig, Subspace, find_product_vectors
from .serialize import (
    SCHEMA_VERSION,
    InputError,
    dumps_report,
    matrix_to_lists,
    upb_from_document,
    upb_to_document,
    vector_to_lists,
)
from .upb import canonicalize, match_canonical, state_of, validate

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def load_upb_spec(spec: str):
    """A UPB from ``canonical:tA,tB,tC``, a bundled name, or a JSON file path."""
    if spec.startswith("canonical:"):
        return upb_from_document({"canonical": spec[len("canonical:"):].split(",")})
    if spec in qutrit.BUNDLED:
        return qutrit.bundled_upb(spec)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return upb_from_document(json.load(fh))
    except OSError as exc:
        raise InputError(f"cannot read UPB file {spec!r}: {exc}") from exc
    except (json.JSONDecodeError, InputError) as exc:
        raise InputError(f"{spec!r} is not a UPB document: {exc}") from exc


def _parse_partition(text: str | None):
    if text is None:
        return None
    try:
        return [tuple(int(p) for p in chunk.split(",")) for chunk in text.split("|")]
    except ValueError as exc:
        raise InputError(f"bad partition {text!r}: {exc}") from exc


def _search_config(args) -> SearchConfig:
    return SearchConfig(grid_resolution=args.grid, residual_tol=args.tol, seed=args.seed)


def _hit_document(hit) -> dict:
    return {
        "partition": [list(g) for g in hit.partition],
        "factors": [vector_to_lists(f) for f in hit.factors],
        "residual": hit.residual,
    }


def _witness_document(w) -> dict:
    return {
        "permutation": list(w.permutation),
        "unitaries": [matrix_to_lists(u) for u in w.unitaries],
        "max_error": w.max_error,
    }


def _graph_document(g) -> dict:
    return {"n": g.n, "edges": sorted([list(e) for e in g.edges])}


def build_parser() -> _Parser:
    parser = _Parser(prog="upbkit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")

    def add_search_flags(p):
        p.add_argument("--grid", type=int, default=SearchConfig().grid_resolution,
                       help="search resolution: resolution^2 random starts per complex "
                            "dimension of the local states")
        p.add_argument("--tol", type=float, default=SearchConfig().residual_tol,
                       help="acceptance residual for product-vector hits")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("build", help="canonical UPB from an angle triple")
    p.add_argument("--angles", required=True, help="tA,tB,tC in radians")
    add_common(p)

    p = sub.add_parser("validate", help="orthonormality / unextendibility report")
    p.add_argument("--upb", required=True)
    add_common(p)

    p = sub.add_parser("state", help="emit the bound entangled state of a UPB")
    p.add_argument("--upb", required=True)
    add_common(p)

    p = sub.add_parser("equiv", help="decide equivalence of two UPBs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add_common(p)

    p = sub.add_parser("graphs", help="exhaustive five-member coloring scan")
    add_common(p)

    p = sub.add_parser("search-pv", help="product vectors inside a UPB's span or complement")
    p.add_argument("--upb", required=True)
    p.add_argument("--space", choices=("span", "complement"), default="span")
    p.add_argument("--partition", default=None, help="party groups, e.g. 0|1,2")
    add_search_flags(p)
    add_common(p)

    p = sub.add_parser("certify", help="non-convertibility gap certificate")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--restarts", type=int, default=GapSearchConfig().restarts)
    p.add_argument("--budget", type=int, default=GapSearchConfig().budget)
    p.add_argument("--slack", type=float, default=GapSearchConfig().slack)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(p)

    p = sub.add_parser("qutrit-extras", help="extra product vectors in a two-qutrit span")
    p.add_argument("--upb", required=True, help="tiles, pyramid, or a UPB file")
    add_search_flags(p)
    p.set_defaults(grid=qutrit.QUTRIT_SEARCH.grid_resolution)
    add_common(p)

    return parser


def _run_build(args):
    spec = args.angles if args.angles.startswith("canonical:") else "canonical:" + args.angles
    upb = load_upb_spec(spec)
    return EXIT_OK, upb_to_document(upb)


def _run_validate(args):
    upb = load_upb_spec(args.upb)
    report = validate(upb)
    doc = {
        "dims": list(report.dims),
        "n_members": report.n_members,
        "orthonormality_error": report.orthonormality_error,
        "member_count_ok": report.member_count_ok,
        "unextendible": report.unextendible,
        "extension": _hit_document(report.extension) if report.extension else None,
        "party_graphs": [_graph_document(g) for g in report.party_graphs],
        "passed": report.passed,
    }
    return (EXIT_OK if report.passed else EXIT_NEGATIVE), doc


def _run_state(args):
    upb = load_upb_spec(args.upb)
    rho = state_of(upb)
    return EXIT_OK, {"dims": list(rho.dims), "matrix": matrix_to_lists(rho.matrix)}


def _run_equiv(args):
    a, b = load_upb_spec(args.a), load_upb_spec(args.b)
    canon_a, canon_b = canonicalize(a), canonicalize(b)
    witness = match_canonical(a, b, canon_a, canon_b)
    doc = {
        "equivalent": witness is not None,
        "angles_a": list(canon_a[0].as_tuple()),
        "angles_b": list(canon_b[0].as_tuple()),
        "witness": _witness_document(witness) if witness else None,
    }
    return (EXIT_OK if witness is not None else EXIT_NEGATIVE), doc


def _run_graphs(args):
    scan = enumerate_colorings()
    survivors = [{"labels": "".join(c.labels), "split": "".join(extension_split(c))} for c in scan.survivors]
    return EXIT_OK, {"scanned": scan.scanned, "survivor_count": len(survivors), "survivors": survivors}


def _run_search_pv(args):
    upb = load_upb_spec(args.upb)
    sub = Subspace(upb.dims, upb.complement_basis)
    sub = sub.complement() if args.space == "span" else sub
    partition = _parse_partition(args.partition)
    hits = find_product_vectors(sub, partition, _search_config(args))
    doc = {
        "space": args.space,
        "dims": list(upb.dims),
        "n_hits": len(hits),
        "hits": [_hit_document(h) for h in hits],
    }
    return EXIT_OK, doc


def _run_certify(args):
    source, target = load_upb_spec(args.source), load_upb_spec(args.target)
    config = GapSearchConfig(restarts=args.restarts, budget=args.budget, seed=args.seed, slack=args.slack)
    cert = certify_gap(source, target, config)
    return (EXIT_OK if cert.consistent else EXIT_NEGATIVE), cert.to_document()


def _run_qutrit_extras(args):
    upb = load_upb_spec(args.upb)
    all_hits, extras = qutrit.extra_product_vectors(upb, _search_config(args))
    doc = {
        "dims": list(upb.dims),
        "total_product_vectors": len(all_hits),
        "n_extras": len(extras),
        "extras": [_hit_document(h) for h in extras],
    }
    return EXIT_OK, doc


_RUNNERS = {
    "build": _run_build,
    "validate": _run_validate,
    "state": _run_state,
    "equiv": _run_equiv,
    "graphs": _run_graphs,
    "search-pv": _run_search_pv,
    "certify": _run_certify,
    "qutrit-extras": _run_qutrit_extras,
}


def _config_document(args) -> dict:
    skip = {"out", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, report: dict) -> None:
    if args.format == "json":
        text = dumps_report(report)
    else:
        lines = [f"{k}: {v}" for k, v in sorted(report["result"].items()) if not isinstance(v, (list, dict))]
        text = "\n".join([f"# {report['config']['subcommand']}"] + lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write report to {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, result = _RUNNERS[args.subcommand](args)
        report = {
            "schema": SCHEMA_VERSION,
            "config": _config_document(args),
            "result": result,
            "exit_code": code,
        }
        _emit(args, report)
        return code
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("numerical error: out of memory; lower the search budget", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
