"""menulearn benchmark: end-to-end and per-layer cost of the engines.

Run from the root of a source checkout::

    python3 bench/run.py --workload audit_matrix --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``audit_matrix``, ``comparative_statics`` and ``rank_documents``.  One
process, no threads, closed loop with one client: each op starts when the
previous one has returned.  Every op's output is checked; a failed check or
an exception counts against ``ok_ratio``.

Times are calibrated for host speed (see ``calibrate.py``): each op's and
each set-up's wall time is scaled by a fixed reference loop timed around
it, so the time metrics read as seconds at one fixed host speed.  The raw
wall-clock figures are printed and saved alongside.

``--trace 0`` measures the named workload for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` prints the per-layer metrics instead: it
traces the first ops of every workload (the layers one workload never
calls are measured on the workload that calls them) and then alternates
traced and untraced ops of the named workload to measure the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance, goes to ``.bench_out/`` in the checkout; a traced run also
writes its spans and per-layer summary there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import Calibrator
from tracing import Tracer
from workloads import CHECKS, CRITERIA, PERIOD, REQUIRED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 9
#: Op indices of the tracing-overhead pass start here, so its inputs never
#: meet the per-layer pass's.
OVERHEAD_OFFSET = 1_000_000

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in print order."""
    metrics = [("audit.generate_corpus.busy_s", "s")]
    for criterion in CRITERIA:
        for axiom in REQUIRED[criterion]:
            metrics += [
                (f"audit.{criterion}.{axiom}.busy_s", "s"),
                (f"audit.{criterion}.{axiom}.tuples", "count"),
            ]
    metrics += [
        ("audit.truncated_axioms", "count"),
        ("comparative.credal_subset.busy_s", "s"),
        ("comparative.credal_subset.calls", "count"),
    ]
    for check, _ in CHECKS:
        metrics += [
            (f"comparative.{check}.busy_s", "s"),
            (f"comparative.{check}.tuples", "count"),
            (f"comparative.{check}.antecedents", "count"),
        ]
    metrics += [
        ("fileformat.load_path.busy_s", "s"),
        ("fileformat.bytes", "count"),
        ("rationalize.rank_menus.busy_s", "s"),
        ("rationalize.menus_ranked", "count"),
        ("cli.records.busy_s", "s"),
        ("evaluation.benefit.hits", "count"),
        ("evaluation.benefit.misses", "count"),
        ("evaluation.benefit.hit_ratio", "ratio"),
        ("evaluation.benefit.entries", "count"),
        ("evaluation.mix_menus.hits", "count"),
        ("evaluation.mix_menus.misses", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return metrics


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_program():
    """Import ``menulearn`` afresh from the checkout's sources."""
    for name in [m for m in sys.modules if m == "menulearn" or m.startswith("menulearn.")]:
        del sys.modules[name]
    ml = importlib.import_module("menulearn")
    importlib.import_module("menulearn.cli")
    if not Path(ml.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"menulearn imported from {ml.__file__}, not from {SRC}")
    return ml


class Source:
    """Op inputs in index order, built a chunk at a time between ops."""

    def __init__(self, workload, ml, seed: int, workdir: Path, start: int = 0) -> None:
        self.workload = workload
        self.ml = ml
        self.seed = seed
        self.workdir = workdir
        self.next_index = start
        self.pending: deque = deque()
        self._fill()

    def _fill(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for index in range(self.next_index, self.next_index + self.workload.chunk):
            self.pending.append(self.workload.build(self.ml, self.seed, index, self.workdir))
        self.next_index += self.workload.chunk

    def take(self):
        if not self.pending:
            self._fill()
        return self.pending.popleft()


def set_up(workload, seed: int, workdir: Path):
    """Import the program and build the first chunk of inputs, several times.

    Returns the program, the input source and the median calibrated set-up
    time.
    """
    calibrator = Calibrator()
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        ml = import_program()
        source = Source(workload, ml, seed, workdir)
        times.append(calibrator.scale(time.perf_counter() - start))
    return ml, source, statistics.median(times)


# ---------------------------------------------------------------------------
# Driving ops
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    traced_latencies: list = field(default_factory=list)
    wall_latencies: list = field(default_factory=list)
    failed: int = 0
    digest_ops: int = 0
    rss_mb: float = 0.0
    rss_ops: int = 0
    _hash: object = field(default_factory=hashlib.sha256)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.traced_latencies)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def drive(workload, ml, source, *, seconds=None, ops=None, tracer=None, traced=None,
          digest_ops=0, rss_ops=0) -> Tally:
    """Run ops back to back until *ops* are done or *seconds* have passed.

    ``traced(i)`` says whether op *i* runs under *tracer*.  Only op calls are
    timed; building inputs and checking outputs happen between them.
    Latencies are calibrated; untraced ops' wall times are kept as well.  The
    result digest covers the canonical outputs of the first *digest_ops*
    ops, and peak RSS is read after op *rss_ops*.
    """
    tally = Tally()
    calibrator = Calibrator()
    deadline = None if seconds is None else time.perf_counter() + seconds
    count = 0
    while True:
        if ops is not None and count >= ops:
            break
        if deadline is not None and count and time.perf_counter() >= deadline:
            break
        item = source.take()
        use_tracer = traced is not None and traced(count)
        start = time.perf_counter()
        try:
            if use_tracer:
                with tracer.op(f"op.{workload.name}"):
                    raw = workload.traced_op(ml, item, tracer)
            else:
                raw = workload.op(ml, item)
            elapsed = time.perf_counter() - start
            outcome = workload.outcome(raw)
            ok = workload.check(item, outcome)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            outcome, ok = {"error": True}, False
        (tally.traced_latencies if use_tracer else tally.latencies).append(
            calibrator.scale(elapsed)
        )
        if not use_tracer:
            tally.wall_latencies.append(elapsed)
        tally.failed += not ok
        if count < digest_ops:
            tally._hash.update(json.dumps(outcome, sort_keys=True).encode() + b"\n")
            tally.digest_ops += 1
        workload.release(item)
        count += 1
        if count == rss_ops:
            tally.rss_mb, tally.rss_ops = _peak_rss_mb(), count
    if not tally.rss_ops:
        tally.rss_mb, tally.rss_ops = _peak_rss_mb(), count
    return tally


def _quantile(values: list, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _rate(latencies: list) -> float:
    return len(latencies) / sum(latencies) if latencies else 0.0


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def timed_run(workload, ml, source, seconds: float, setup_s: float) -> dict:
    tally = drive(workload, ml, source, seconds=seconds,
                  digest_ops=workload.layer_ops, rss_ops=workload.rss_ops)
    # Whole periods only, so that every run measures the same mix of op sizes.
    whole = len(tally.latencies) // PERIOD * PERIOD or len(tally.latencies)
    lat = tally.latencies[:whole]
    wall = tally.wall_latencies[:whole]
    values = {
        "ops_per_s": _rate(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": _quantile(lat, workload.tail_pct) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": tally.rss_mb,
        "ok_ratio": 1 - tally.failed / tally.attempted,
    }
    beyond = sum(1 for x in lat if x * 1000 > values["op_tail_ms"])
    notes = [
        f"{tally.attempted} ops in {sum(tally.wall_latencies):.3f} s of op wall time "
        "(closed loop, 1 client)",
        f"uncalibrated: ops_per_s {_rate(wall):.6g}, op_p50_ms "
        f"{statistics.median(wall) * 1000:.6g}, op_tail_ms "
        f"{_quantile(wall, workload.tail_pct) * 1000:.6g}",
        f"metrics over the first {len(lat)} ops, whole periods of {PERIOD} op sizes",
        f"op_tail_ms is p{workload.tail_pct} of {len(lat)} ops ({beyond} beyond it)",
        f"peak_rss_mb read after {tally.rss_ops} ops",
        f"fail_ratio {tally.failed}/{tally.attempted}",
    ]
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "result_digest": {"sha256": tally.digest, "ops": tally.digest_ops},
        "tail_percentile": workload.tail_pct,
        "notes": notes,
        "latencies_s": lat,
        "wall_latencies_s": wall,
    }


def _cache_counters(ml) -> dict:
    """``cache_info()`` of the evaluation memos, where the program still has them."""
    counters = {}
    for key, attr in (("benefit", "_benefit"), ("mix_menus", "_mix_menus")):
        info = getattr(getattr(ml.evaluation, attr, None), "cache_info", None)
        stats = info() if callable(info) else None
        counters[key] = (stats.hits, stats.misses, stats.currsize) if stats else (0, 0, 0)
    return counters


def traced_run(workload, ml, source, seed: int, seconds: float, workdir: Path) -> dict:
    """Per-layer pass over every workload's first ops, then the overhead pass."""
    started = time.perf_counter()
    tracer = Tracer()
    before = _cache_counters(ml)
    own = drive(workload, ml, source, ops=workload.layer_ops, tracer=tracer,
                traced=lambda i: True, digest_ops=workload.layer_ops)
    after = _cache_counters(ml)
    tallies = [own]
    for other in WORKLOADS.values():
        if other is not workload:
            companion = Source(other, ml, seed, workdir)
            tallies.append(drive(other, ml, companion, ops=other.layer_ops,
                                 tracer=tracer, traced=lambda i: True))

    overhead_tracer = Tracer()
    remaining = max(seconds - (time.perf_counter() - started), seconds / 4)
    overhead_source = Source(workload, ml, seed, workdir, start=OVERHEAD_OFFSET)
    overhead = drive(workload, ml, overhead_source, seconds=remaining,
                     tracer=overhead_tracer, traced=lambda i: i % 2 == 1)
    tallies.append(overhead)

    summary = tracer.summary()
    busy: dict[str, float] = {}
    for row in summary:
        busy[row["span"]] = busy.get(row["span"], 0.0) + row["busy_s"]
    values = dict(tracer.counts)
    for name, unit in per_layer_metrics():
        if unit == "s":
            values[name] = busy.get(name.removesuffix(".busy_s"), 0.0)
    for key in ("benefit", "mix_menus"):
        hits, misses, entries = (a - b for a, b in zip(after[key], before[key]))
        values[f"evaluation.{key}.hits"] = hits
        values[f"evaluation.{key}.misses"] = misses
        if key == "benefit":
            lookups = hits + misses
            values["evaluation.benefit.hit_ratio"] = hits / lookups if lookups else 0.0
            values["evaluation.benefit.entries"] = entries
    untraced_rate = _rate(overhead.latencies)
    values["trace.overhead_ratio"] = (
        _rate(overhead.traced_latencies) / untraced_rate if untraced_rate else 0.0
    )
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    notes = [
        f"per-layer pass: first {workload.layer_ops} ops of {workload.name} traced, "
        + ", ".join(f"{w.layer_ops} of {w.name}" for w in WORKLOADS.values() if w is not workload)
        + " for the layers it does not call",
        f"overhead pass: {len(overhead.traced_latencies)} traced and "
        f"{len(overhead.latencies)} untraced ops of {workload.name}",
        f"fail_ratio {failed}/{attempted}",
    ]
    return {
        "metrics": {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in per_layer_metrics()
        },
        "attempted": attempted,
        "failed": failed,
        "result_digest": {"sha256": own.digest, "ops": own.digest_ops},
        "notes": notes,
        "summary": summary,
        "spans": tracer.records(),
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(ml, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "menulearn": getattr(ml, "__version__", "unknown"),
        "commit": _git_commit(),
    }


def _print_summary(summary: list) -> None:
    print(f"{'op kind':<26} {'span':<46} {'calls':>6} {'busy_s':>9} {'self_s':>9} {'share':>6}")
    for row in sorted(summary, key=lambda r: (r["op_kind"], -r["busy_s"])):
        print(f"{row['op_kind']:<26} {row['span']:<46} {row['calls']:>6} "
              f"{row['busy_s']:>9.4f} {row['self_s']:>9.4f} {row['share_of_op_wall']:>6.1%}")
        if "uncovered_s" in row:
            print(f"{row['op_kind']:<26} {'(uncovered by layer spans)':<46} {'':>6} "
                  f"{row['uncovered_s']:>9.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "menulearn" / "__init__.py").is_file():
        print(f"bench: no menulearn sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ml, source, setup_s = set_up(workload, args.seed, workdir)
        if args.trace:
            result = traced_run(workload, ml, source, args.seed, args.seconds, workdir)
        else:
            result = timed_run(workload, ml, source, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["provenance"] = provenance(ml, args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    spans = result.pop("spans", None)
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(result, indent=1))
    if spans is not None:
        (OUT / f"SPANS_{stem}.json").write_text(
            json.dumps({"spans": spans, "summary": result["summary"]})
        )
        _print_summary(result["summary"])

    print("provenance: " + " ".join(f"{k}={v}" for k, v in result["provenance"].items()))
    for note in result["notes"]:
        print(note)
    digest = result["result_digest"]
    print(f"result_digest {digest['sha256']} over the first {digest['ops']} ops")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
