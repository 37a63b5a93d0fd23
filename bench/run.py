"""upbkit benchmark runner.

    python3 bench/run.py --workload {certify,audit,refute} --seed N --seconds S --trace {0,1}

A single client runs the workload's rounds in a closed loop (the next op
starts only after the previous one has finished and been checked) until
``--seconds`` have passed; the round in progress when time runs out is
completed.  BLAS runs on one thread.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, with times scaled to a reference
machine speed (see calibrate.py), and the per-layer metrics with
``--trace 1``.  A traced run executes every op twice, untraced and then
traced, and requires both outputs to be equal.  Each run also writes a
record (environment, input digest, metrics) under ``bench/.work/records``,
and a traced run its spans under ``bench/.work/spans``.
"""

import os

# pinned before anything can load numpy: the machine has two cores, and the
# benchmark measures one client on one BLAS thread
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
# not read from workloads.py: importing it loads upbkit, which set-up times
WORKLOAD_NAMES = ("certify", "audit", "refute")
SETUP_CHILDREN = 4  # extra set-ups in fresh interpreters; setup_s is the median
SETUP_SAMPLES = 20  # speed samples that scale one set-up
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> float:
    """The highest of PERCENTILES with at least ten samples beyond it; with
    fewer than twenty samples no percentile above the median has, and the
    median is reported."""
    for q in PERCENTILES:
        if len(values) * (1 - q / 100.0) >= MIN_BEYOND:
            return percentile(values, q)
    return statistics.median(values)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


def set_up(workload: str, seed: int, workdir: Path):
    """Import upbkit and generate the inputs; returns the workload and its
    set-up time in reference seconds."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    seconds = time.perf_counter() - t0
    from calibrate import Kernel, speed_factor

    # set-up is too short to sample during it; the speed right after it
    # stands in
    kernel = Kernel()
    return wl, seconds * speed_factor([kernel() for _ in range(SETUP_SAMPLES)])


def setup_child(workload: str, seed: int) -> int:
    """``--setup-only``: one set-up in this fresh interpreter; prints its time
    and the input digest."""
    workdir = WORK / f"setup-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl, seconds = set_up(workload, seed, workdir)
        print(json.dumps({"setup_s": seconds, "digest": wl.digest(workdir)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def child_setups(workload: str, seed: int, n: int) -> list[dict]:
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Stream:
    """The closed-loop op stream of one run, with per-op samples.

    Untraced, the machine's speed is sampled during the rounds (see
    calibrate.py), and op times leave the sampling out.  A traced run
    reports raw wall times and does not sample."""

    def __init__(self, wl, tracer=None):
        from calibrate import Sampler

        self.wl = wl
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.traced_seconds = 0.0
        self.untraced_seconds = 0.0
        self.round_seconds: list[float] = []
        self.round_busy: list[float] = []  # ops and their checks
        self.round_factors: list[float] = []
        self.sampler = None if tracer else Sampler()
        self.clock = self.sampler.clock if self.sampler else time.perf_counter
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.certificates: list[dict] = []

    def _timed(self, op):
        t0 = self.clock()
        output = op.run()
        return output, self.clock() - t0

    def run_op(self, op) -> float:
        """Run, time and check one op; a failure is recorded and the stream
        goes on."""
        self.attempted += 1
        seconds = None
        try:
            output, seconds = self._timed(op)
            problems = op.check(output)
            if self.tracer is not None:
                with self.tracer.installed(), self.tracer.op(self.attempted, op.kind):
                    traced, traced_seconds = self._timed(op)
                if op.fingerprint(traced) != op.fingerprint(output):
                    problems.append("traced output differs from untraced output")
                self.traced_seconds += traced_seconds
                self.untraced_seconds += seconds
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            problems = [f"raised {exc!r} at {traceback.format_exc(limit=-1).strip()}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{op.kind} op {self.attempted}: {'; '.join(problems)}")
        elif op.kind == "certify":
            self.certificates.append(json.loads(output[1])["result"])
        if seconds is not None:
            self.samples.setdefault(op.kind, []).append(seconds)
        return seconds or 0.0

    def run(self, seconds: float) -> None:
        """Rounds until ``seconds`` have passed."""
        if self.sampler is None:
            return self._rounds(seconds)
        with self.sampler:
            self._rounds(seconds)

    def _rounds(self, seconds: float) -> None:
        t0 = time.perf_counter()
        r = 0
        while True:
            wall, busy = time.perf_counter(), self.clock()
            self.round_seconds.append(sum(self.run_op(op) for op in self.wl.round(r)))
            self.round_busy.append(self.clock() - busy)
            if self.sampler is not None:
                self.round_factors.append(self.sampler.factor(wall, time.perf_counter()))
            r += 1
            if time.perf_counter() - t0 >= seconds:
                return


def end_to_end(stream: Stream, setup_samples: list[float]) -> dict:
    """Times in reference seconds (see calibrate.py)."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    factors = stream.round_factors
    rounds = [t * f for t, f in zip(stream.round_seconds, factors)]
    busy = sum(t * f for t, f in zip(stream.round_busy, factors))
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "round_ref_s.p50": (statistics.median(rounds), "s"),
        "round_ref_s.tail": (tail(rounds), "s"),
        "ops_per_ref_s": ((stream.attempted - stream.failed) / busy, "1/s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def certificate_metrics(result: dict) -> dict[str, float]:
    """Per-certificate filtering metrics: the share of each restart pool's
    optima within 1e-6 of that pool's best, and the nominal evaluation
    budget taken from the certificate's own fields."""
    opt = result["optimizer"]
    out = {}
    for pool, best in (("interior", min), ("boundary", min), ("fidelity", max)):
        optima = opt[f"{pool}_optima"]
        top = best(optima)
        out[f"filtering.{pool}_at_best"] = sum(abs(x - top) <= 1e-6 for x in optima) / len(optima)
    out["filtering.nominal_evals"] = (2 * opt["restarts"] * opt["budget"]
                                      + 4 * opt["boundary_restarts"] * opt["boundary_budget"])
    out["delta_min"] = result["delta_min"]
    out["fidelity_max"] = result["fidelity_max"]
    return out


CERTIFICATE_UNITS = {"filtering.nominal_evals": "count", "delta_min": "1", "fidelity_max": "1"}


def per_layer(stream: Stream, tracer) -> dict:
    from spans import OP_KINDS

    metrics = {k: (v, unit_of(k)) for k, v in tracer.rollup(len(stream.round_seconds)).items()}
    for kind in OP_KINDS:
        xs = stream.samples.get(kind, [])
        metrics[f"{kind}_s.p50"] = (statistics.median(xs) if xs else 0.0, "s")
        if kind != "certify":
            metrics[f"{kind}_s.tail"] = (tail(xs) if xs else 0.0, "s")
    per_cert = [certificate_metrics(c) for c in stream.certificates]
    for name in ("filtering.interior_at_best", "filtering.boundary_at_best", "filtering.fidelity_at_best",
                 "filtering.nominal_evals", "delta_min", "fidelity_max"):
        value = statistics.median(m[name] for m in per_cert) if per_cert else 0.0
        metrics[name] = (value, CERTIFICATE_UNITS.get(name, "ratio"))
    overhead = 1 - stream.untraced_seconds / stream.traced_seconds if stream.traced_seconds else 0.0
    metrics["fail_rate"] = (stream.failed / stream.attempted, "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    return {"calls": "calls/round", "s": "s", "self_s": "s", "hits": "count",
            "report_bytes": "B"}.get(stat, "ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "upbkit" / "__init__.py").is_file():
        print(f"no upbkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_child(args.workload, args.seed)

    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            with tracer.installed():
                wl, setup_s = set_up(args.workload, args.seed, workdir)
        else:
            wl, setup_s = set_up(args.workload, args.seed, workdir)
        digest = wl.digest(workdir)
        # half the fresh set-ups before the loop and half after, so that
        # setup_s samples the machine's load over the whole run
        children = [] if args.trace else child_setups(args.workload, args.seed, SETUP_CHILDREN // 2)
        stream = Stream(wl, tracer)
        stream.run(args.seconds)
        if not args.trace:
            children += child_setups(args.workload, args.seed, SETUP_CHILDREN - SETUP_CHILDREN // 2)
        if any(c["digest"] != digest for c in children):
            print("inputs differ between set-ups of the same seed", file=sys.stderr)
            return 2
        setup_samples = [setup_s] + [c["setup_s"] for c in children]
        metrics = per_layer(stream, tracer) if tracer else end_to_end(stream, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in stream.failures:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": stream.failed == 0,
        "attempted": stream.attempted,
        "failed": stream.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed), "input_digest": digest,
        "rounds": len(stream.round_seconds), "samples": stream.samples,
        "round_seconds": stream.round_seconds, "round_factors": stream.round_factors,
        "speed_samples": len(stream.sampler.samples) if stream.sampler else 0,
        "setup_samples": setup_samples, "failures": stream.failures, "result": result,
    }
    (WORK / "records" / f"{stamp}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "spans" / f"{stamp}.jsonl")
    print(json.dumps({"environment": record["environment"], "input_digest": digest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
