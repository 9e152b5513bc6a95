"""Benchmark of ``lamprigid certify``: time per call, throughput, set-up and memory.

Run from the root of a checkout:

    python3 bench/run.py --workload certify-disguised --seed 1 --seconds 36 --trace 0

One client, one process, one thread, closed loop: the benchmark calls
``lamprigid.cli.main(["certify", <candidate JSON>, ..., "--json"])`` in
process, one call after the other, in passes over the four candidates of the
workload (see ``workloads.py``), always in the same order. It stops
starting passes when the next one would end after ``--seconds`` (at least one
pass runs). Every report is checked against ``oracle.json``. Times are wall
times scaled to a fixed machine speed (see ``speed.py``); the results file
also keeps the raw wall times.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with the outside-in tracer of ``tracer.py`` installed,
checks that traced reports are byte-identical to untraced ones, and prints
the per-layer metrics per pass. The last line of standard output is the JSON
result; ``bench/results/`` receives a results file with provenance (and, when
traced, the spans as JSON lines).
"""

from __future__ import annotations

import os

# Pin the numpy/BLAS thread pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import BENCH_DIR, ROOT, WORKLOADS  # noqa: E402

RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
READY = "ready"


def setup(workload: workloads.Workload, seed: int):
    """Import lamprigid from the checkout and build the inputs of one pass."""
    src = ROOT / "src"
    if not (src / "lamprigid" / "__init__.py").is_file():
        raise SystemExit(f"error: no lamprigid sources under {src}")
    sys.path.insert(0, str(src))
    from lamprigid import cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src)):
        raise SystemExit(f"error: imported lamprigid from {cli.__file__}, not from {src}")
    try:
        oracle = workloads.load_oracle()
        calls = workloads.build_calls(workload, seed, oracle)
    except OSError as exc:
        raise SystemExit(f"error: cannot read benchmark inputs: {exc}")
    expected = {c.candidate: oracle[str(workload.qu_bound)][c.candidate] for c in calls}
    return cli, calls, expected


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Time from starting a fresh process until its first call is ready.

    Returns the scaled times and the raw wall times; each probe is scaled by
    reference bursts taken just before and just after it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    scaled, raw = [], []
    after = speed.reference_burst()
    for _ in range(SETUP_REPEATS):
        before = after
        # time.time(), unlike perf_counter(), is comparable across processes
        start = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        word, _, ready_at = proc.stdout.strip().partition(" ")
        if proc.returncode != 0 or word != READY:
            raise SystemExit(f"error: set-up probe failed (exit {proc.returncode}): "
                             f"{proc.stderr.strip()[-500:]}")
        after = speed.reference_burst()
        raw.append(float(ready_at) - start)
        scaled.append(speed.scaled(raw[-1], (before + after) / 2))
    return scaled, raw


class Loop:
    """Closed-loop passes over the calls, with every answer checked.

    Each call is recorded as (segment, candidate, start, end, wall seconds),
    where the wall time leaves out the speed sampler's own ticks; a segment is
    one `run`.
    """

    def __init__(self, cli, calls, expected):
        self.cli = cli
        self.calls = calls
        self.expected = expected
        self.sampler = speed.SpeedSampler()
        self.records: list[tuple[int, str, float, float, float]] = []
        self.segments = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.reports: dict[str, str] = {}
        self.correct_in: Counter[int] = Counter()  # correct calls by segment

    def run(self, budget_s: float, tracer=None, reference: dict[str, str] | None = None
            ) -> tuple[int, int]:
        """Run passes while the next one is expected to end within budget_s.

        Returns (segment, passes). With a reference, each report must also
        equal the reference report of its candidate byte for byte.
        """
        segment = self.segments
        self.segments += 1
        passes = 0
        with self.sampler:
            start = time.perf_counter()
            while True:
                for call in self.calls:
                    if tracer is not None:
                        tracer.request = self.attempted
                    self._one(segment, call, reference)
                passes += 1
                elapsed = time.perf_counter() - start
                if elapsed * (passes + 1) / passes > budget_s:
                    return segment, passes

    def _one(self, segment: int, call: workloads.Call, reference: dict[str, str] | None
             ) -> None:
        self.attempted += 1
        gc.collect()
        out = io.StringIO()
        ticks = self.sampler.spent
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(list(call.argv))
        except Exception as exc:  # a raising call is a failed call, not a benchmark crash
            problem = f"raised {exc!r}"
        else:
            problem = None
        end = time.perf_counter()
        self.records.append((segment, call.candidate, start, end,
                             end - start - (self.sampler.spent - ticks)))
        stdout = out.getvalue()
        if problem is None:
            problem = workloads.check_call(self.expected[call.candidate], code, stdout)
        if problem is None and reference is not None and stdout != reference.get(call.candidate):
            problem = "report bytes differ from the untraced report"
        if problem is not None:
            self.failures.append(f"{call.candidate}: {problem}")
            return
        self.correct_in[segment] += 1
        self.reports.setdefault(call.candidate, stdout)

    def times(self, segment: int) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Scaled and raw call times of one segment, by candidate."""
        scaled: dict[str, list[float]] = {c.candidate: [] for c in self.calls}
        raw: dict[str, list[float]] = {c.candidate: [] for c in self.calls}
        for seg, candidate, start, end, wall in self.records:
            if seg == segment:
                ref = self.sampler.reference_between(start, end)
                scaled[candidate].append(speed.scaled(wall, ref))
                raw[candidate].append(wall)
        return scaled, raw

    def rate(self, segment: int) -> tuple[float, float]:
        """Correct calls per second of call time in one segment, scaled and raw."""
        scaled, raw = self.times(segment)
        correct = self.correct_in[segment]
        return (correct / sum(map(sum, scaled.values())),
                correct / sum(map(sum, raw.values())))


def _git_commit() -> str | None:
    """HEAD's commit, read from .git directly: `git` itself would search the
    parent directories, outside the checkout, when the checkout has none."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Hash of the program's sources, which names the code in a checkout without git."""
    import hashlib  # loads OpenSSL: imported only after peak_rss_mb is read
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "thread_pools": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                     "MKL_NUM_THREADS")},
    }


def _timing_details(scaled: dict[str, list[float]], raw: dict[str, list[float]]) -> dict:
    return {name: {"samples": len(t), "median": statistics.median(t),
                   "quartiles": statistics.quantiles(t, n=4) if len(t) > 1 else None,
                   "values": t, "raw_median": statistics.median(raw[name]),
                   "raw_values": raw[name]}
            for name, t in scaled.items()}


def end_to_end(args, workload) -> tuple[dict, Loop, dict]:
    cli, calls, expected = setup(workload, args.seed)
    setup_times, setup_raw = measure_setup(args)
    loop = Loop(cli, calls, expected)
    segment, passes = loop.run(args.seconds)
    scaled, raw = loop.times(segment)
    rate, raw_rate = loop.rate(segment)
    metrics = {"certify_per_s": (rate, "1/s")}
    for name in workloads.CANDIDATES:
        metrics[f"certify_s.{name}"] = (statistics.median(scaled[name]), "s")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    details = {
        "passes": passes,
        "raw_certify_per_s": raw_rate,
        "setup_s_samples": setup_times,
        "setup_s_raw_samples": setup_raw,
        "certify_s": _timing_details(scaled, raw),
        "speed_samples": len(loop.sampler.took),
        "reference_s_median": statistics.median(loop.sampler.took),
    }
    return metrics, loop, details


def traced(args, workload) -> tuple[dict, Loop, dict]:
    from tracer import Tracer, layer_metrics
    cli, calls, expected = setup(workload, args.seed)
    loop = Loop(cli, calls, expected)
    plain, plain_passes = loop.run(args.seconds / 2)
    reference = dict(loop.reports)
    tracer = Tracer()
    tracer.install()
    try:
        origin = time.perf_counter()
        traced_segment, passes = loop.run(args.seconds / 2, tracer=tracer, reference=reference)
    finally:
        tracer.uninstall()
    plain_rate, _ = loop.rate(plain)
    traced_rate, _ = loop.rate(traced_segment)
    summary = tracer.summary()
    metrics = layer_metrics(tracer, summary, passes)
    metrics["trace.certify_per_s_ratio"] = (traced_rate / plain_rate if plain_rate else 0.0,
                                            "ratio")
    spans_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write_spans(spans_path, origin)
    per_candidate: dict = {}
    for request, counts in summary.calls_by_request.items():
        if request >= 0:
            per_candidate.setdefault(calls[request % len(calls)].candidate, dict(counts))
    details = {
        "untraced": {"passes": plain_passes, "certify_per_s": plain_rate},
        "traced": {"passes": passes, "certify_per_s": traced_rate,
                   "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))},
        "span_calls_per_request": per_candidate,
    }
    return metrics, loop, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        setup(workload, args.seed)
        print(READY, time.time(), flush=True)
        return 0

    RESULTS_DIR.mkdir(exist_ok=True)
    metrics, loop, details = (traced if args.trace else end_to_end)(args, workload)
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "result": result,
        "fail_frac": len(loop.failures) / loop.attempted,
        "failures": loop.failures[:20],
        **details,
    }
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for failure in loop.failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
