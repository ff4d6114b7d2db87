"""Closed-loop benchmark of the ehzcap solver.

Usage, from the root of a checkout:

    python3 bench/run.py --workload planar-suite --seed 0 --seconds 45 --trace 0

One process, one thread: each operation starts when the previous one has
returned.  The run builds the workload from ``--seed`` (``bench/workloads.py``)
and runs passes over its operations until ``--seconds`` have elapsed, at
least three, so every operation repeats.  Each pass first sets up afresh:
import the package and build every body.  Every output is checked against
its reference value, the solver's own cross-checks, the bounce laws on the
user's bodies, and its bytes in the first pass.

``--trace 0`` reports the end-to-end metrics of untraced passes: set-up
seconds (median of the repetitions), and per-operation seconds, each
operation's median repeat, summed over a pass and as median and tail
across operations.  ``--trace 1`` alternates untraced and traced passes and
reports per-layer metrics from the traced ones (``bench/layertrace.py``)
and the tracing overhead.  Reported seconds are scaled to a reference host
speed by a calibration kernel that runs between operations (see
``calibrate``); the report keeps the unscaled values.

Metrics print one a line, then a JSON report with the machine, the seed and
one row per operation (unscaled seconds), then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  An operation fails in a pass when a repeat raises, misses its
reference, fails a cross-check or changes its output; ``correct`` is false
only for a missed reference or a changed output, not for a raised error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from layertrace import LayerTotals, Tracer, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    REPO_ROOT,
    WORKLOADS,
    build_operations,
    load_reference,
)

EXTRA_SETUPS = 2  # set-ups before the first pass; each pass adds one
MIN_PASSES = 3
SHORT_OP_S = 0.1
REFERENCE_RTOL = 1e-9
TAIL_BEYOND = 10
# Seconds of layers that a listed workload never enters (perturbed-study
# realizes nothing; only spatial-corpus reaches the multiplier witness).
# They read exactly 0 on every run there, so they print but stay out of the
# result line and of BENCHMARK.json; their counts stay in both.
UNLISTED = frozenset({"capacity.witness.s", "billiards.extract.s",
                      "billiards.verify.s", "curves.s"})
CALIBRATE_EVERY = 3  # operations between calibration samples
# Median ``calibrate`` time on the machine the bounds were tuned on, when
# its host was quiet: two vCPUs of an Intel Xeon, Python 3.11.7, NumPy 2.4.6.
CALIBRATION_REFERENCE_S = 0.009


# -- set-up ------------------------------------------------------------------


def import_package():
    """Import ehzcap afresh, so each set-up repetition pays the import."""
    for name in [m for m in sys.modules
                 if m == "ehzcap" or m.startswith("ehzcap.")]:
        del sys.modules[name]
    ez = importlib.import_module("ehzcap")
    importlib.import_module("ehzcap.jsonio")
    return ez


def timed_setup(workload: str, seed: int, reference: dict):
    """One set-up repetition: import the package, build every body."""
    started = time.perf_counter()
    ez = import_package()
    ops = build_operations(ez, workload, seed, reference)
    return ez, ops, time.perf_counter() - started


def traced_setup(workload: str, seed: int, reference: dict, tracer: Tracer):
    """One set-up repetition under the tracer; returns its layer totals."""
    ez = import_package()
    tracer.spans = []
    tracer.install()
    try:
        with tracer.root("setup"):
            ops = build_operations(ez, workload, seed, reference)
    finally:
        tracer.uninstall()
    return ez, ops, layer_totals(tracer.spans)


def calibrate() -> float:
    """Seconds of a fixed kernel that never touches the package: pivots on
    a dense 40 x 60 array in NumPy plus a small Python loop, the mix the
    solver spends its time on.

    Other tenants of a shared host slow whole runs by up to half for
    minutes at a time.  The kernel's median time in a benchmark run shows
    how fast the host let that run go, and every reported time is scaled
    by ``CALIBRATION_REFERENCE_S`` over it.  Paired with each operation's
    median repeat, this cut the spread of corpus_s over eight runs on a
    loaded host from 27% to 7%; fastest times, of the kernel or of the
    operations, tracked each other worse (13-19%).
    """
    start = np.random.RandomState(0).rand(40, 60)
    started = time.perf_counter()
    for _ in range(8):
        tab = start.copy()
        for _ in range(60):
            col = int(np.argmin(tab[-1, :-1]))
            row = int(np.argmin(tab[:-1, -1] / (np.abs(tab[:-1, col]) + 1.0)))
            tab -= np.outer(tab[:, col], tab[row]) * 1e-3
            total = 0
            for i in range(40):
                total += i * i
    return time.perf_counter() - started


# -- operations and checks -------------------------------------------------------


def run_operation(ez, op):
    if op.kind == "capacity":
        return ez.capacity.ehz_capacity(op.table, op.geometry)
    return ez.capacity.capacity_identities(op.table, op.geometry)


def emit(ez, op, result) -> str:
    """The operation's output as the CLI writes it, without timings."""
    if op.kind == "capacity":
        return ez.jsonio.dumps(ez.jsonio.result_to_dict(result))
    return ez.jsonio.dumps(ez.jsonio.identities_to_dict(result))


def _off(value: float, expected: float) -> bool:
    return not abs(value - expected) <= REFERENCE_RTOL * abs(expected)


def check(ez, op, result) -> tuple[str, str]:
    """(outcome, detail): ``ok``, ``failed`` when the solver's own checks
    reject its answer, or ``wrong`` when it misses its reference value."""
    if op.kind == "capacity":
        values = {"value": result.value}
    else:
        values = dict(result.values)
    misses = [f"{name} {values.get(name)!r} != {expected!r}"
              for name, expected in op.reference.items()
              if name not in values or _off(values[name], expected)]
    if misses:
        return "wrong", f"{op.source} reference missed: " + "; ".join(misses)
    if op.kind == "identities":
        if not result.consistent:
            return "failed", ("identity variants disagree by "
                              f"{result.max_relative_deviation!r}")
        return "ok", ""
    q = result.quantities
    if not q.consistent:
        return "failed", ("cross-check quantities disagree: "
                          f"{q.max_relative_deviation!r} ({result.dual_note})")
    if not result.realized:
        return "failed", f"not realized: {result.dual_note}"
    pair = ez.billiards.verify_strong(op.table, op.geometry,
                                      result.billiard_curve, result.dual_curve)
    if not pair.verified:
        return "failed", "bounce laws fail against the user's bodies"
    return "ok", ""


@dataclass
class OpRecord:
    op_id: str
    source: str
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    output: str | None = None
    outcomes: list = field(default_factory=list)
    lps: int | None = None
    pivots: int | None = None


def timed_call(ez, op, tracer: Tracer | None):
    """(result, error, seconds) of one operation, under a root span when
    traced."""
    started = time.perf_counter()
    try:
        if tracer is None:
            result = run_operation(ez, op)
        else:
            with tracer.root():
                result = run_operation(ez, op)
        error = None
    except Exception as exc:  # recorded as the operation's failure
        result, error = None, exc
    return result, error, time.perf_counter() - started


def run_pass(ez, ops, records: list[OpRecord], tracer: Tracer | None,
             calibrations: list[float]):
    """One pass over the operations; traced when a tracer is given.

    An untraced pass repeats an operation back-to-back until it has run
    ``SHORT_OP_S``, so short operations get enough samples for a steady
    median; a traced pass runs each once, so its counts are one
    pass's.  Checks run after the pass, with the tracer removed, so they
    count neither in the layer totals nor in the operation times.
    """
    gc.collect()
    results = []
    roots = []
    if tracer is not None:
        tracer.spans = []
        tracer.install()
    try:
        for k, (op, rec) in enumerate(zip(ops, records)):
            if k % CALIBRATE_EVERY == 0:
                calibrations.append(calibrate())
            spent = 0.0
            while True:
                if tracer is not None:
                    roots.append(len(tracer.spans))
                result, error, elapsed = timed_call(ez, op, tracer)
                spent += elapsed
                (rec.untraced if tracer is None else rec.traced).append(elapsed)
                output = None if error is not None else emit(ez, op, result)
                results.append((op, rec, result, error, output))
                if tracer is not None or spent >= SHORT_OP_S:
                    break
    finally:
        if tracer is not None:
            tracer.uninstall()

    # One outcome per operation and pass: its first failing repeat, if any.
    outcomes = {}
    for op, rec, result, error, output in results:
        if error is not None:
            outcome = ("raised", f"{type(error).__name__}: {error}")
        else:
            outcome = check(ez, op, result)
            if rec.output is None:
                rec.output = output
            elif output != rec.output:
                outcome = ("nondeterministic",
                           "output differs from the first run")
        if outcomes.get(op.op_id, ("ok",))[0] == "ok":
            outcomes[op.op_id] = outcome
    for rec in records:
        rec.outcomes.append(outcomes[rec.op_id])

    if tracer is None:
        return None
    spans = tracer.spans
    if records[0].lps is None:
        per_root = {index: [0, 0] for index in roots}
        for span in spans:
            if span.name.startswith("lp.") and span.root in per_root:
                per_root[span.root][0] += 1
                per_root[span.root][1] += span.pivots
        for rec, index in zip(records, roots):
            rec.lps, rec.pivots = per_root[index]
    return layer_totals(spans)


# -- metrics -------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it (the minimum when there are fewer)."""
    ordered = sorted(samples)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def per_op_median(records, attr: str) -> list[float]:
    """Each operation's median repeat."""
    return [statistics.median(getattr(r, attr)) for r in records
            if getattr(r, attr)]


def layer_metrics(traced: list[tuple[dict, dict]], overhead: float) -> dict:
    """Per-layer metrics from (set-up totals, pass totals) of each traced
    pass: counts from the first (they repeat exactly), seconds as the
    median over them."""
    first = traced[0][1]

    def t(key, totals=first):
        return totals.get(key, LayerTotals())

    def seconds(key, part=1):
        return statistics.median(t(key, p[part]).seconds for p in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    enum = t("capacity.enumerate")
    lp = t("lp")
    return {
        "capacity.enumerate.s": (seconds("capacity.enumerate"), "s"),
        "capacity.enumerate.lps": (enum.lps, "count"),
        "capacity.enumerate.pivots": (enum.pivots, "count"),
        "capacity.enumerate.assignments": (enum.count, "count"),
        "capacity.enumerate.useful_ratio": (
            ratio(enum.feasible_lps, enum.lps), "ratio"),
        "capacity.assign.s": (seconds("capacity.assign"), "s"),
        "capacity.assign.calls": (t("capacity.assign").calls, "count"),
        "capacity.assign.pivots": (t("capacity.assign").pivots, "count"),
        "capacity.witness.lps": (t("capacity.witness").lps, "count"),
        "capacity.witness.s": (seconds("capacity.witness"), "s"),
        "billiards.extract.s": (seconds("billiards.extract"), "s"),
        "billiards.extract.calls": (t("billiards.extract").calls, "count"),
        "billiards.extract.lps": (t("billiards.extract").lps, "count"),
        "billiards.extract.failed": (t("billiards.extract").failed, "count"),
        "billiards.verify.s": (seconds("billiards.verify"), "s"),
        "billiards.verify.calls": (t("billiards.verify").calls, "count"),
        "billiards.verify.lps": (t("billiards.verify").lps, "count"),
        "lp.calls": (lp.calls, "count"),
        "lp.pivots": (lp.pivots, "count"),
        "lp.s": (seconds("lp"), "s"),
        "lp.pivots_per_call": (ratio(lp.pivots, lp.calls), "pivots/call"),
        "lp.nonoptimal": (lp.failed, "count"),
        "curves.s": (seconds("curves"), "s"),
        "curves.lps": (t("lp.curves").calls, "count"),
        "geometry.setup_s": (seconds("geometry", part=0), "s"),
        "geometry.lps": (t("lp.geometry").calls, "count"),
        "bodies.setup_s": (seconds("bodies", part=0), "s"),
        "jsonio.s": (seconds("jsonio", part=0) + seconds("jsonio"), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


# -- command line ----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    tracer = Tracer() if args.trace else None
    setup_times = []
    try:
        reference = load_reference()
        for _ in range(EXTRA_SETUPS):
            setup_times.append(timed_setup(args.workload, args.seed,
                                           reference)[2])
    except (ImportError, OSError) as exc:
        print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    records = None
    calibrations = []
    traced_totals = []
    pass_seconds = []
    deadline = time.perf_counter() + args.seconds
    # Every pass sets up afresh, so set-up samples spread over the run.  A
    # pass starts only if it should end within half a pass of the deadline.
    while (len(pass_seconds) < MIN_PASSES
           or time.perf_counter() + pass_seconds[-1] / 2 < deadline):
        traced = tracer is not None and len(pass_seconds) % 2 == 1
        if traced:
            ez, ops, setup_totals = traced_setup(args.workload, args.seed,
                                                 reference, tracer)
        else:
            ez, ops, seconds = timed_setup(args.workload, args.seed,
                                           reference)
            setup_times.append(seconds)
        if records is None:
            records = [OpRecord(op.op_id, op.source) for op in ops]
        started = time.perf_counter()
        totals = run_pass(ez, ops, records, tracer if traced else None,
                          calibrations)
        pass_seconds.append(time.perf_counter() - started)
        if traced:
            traced_totals.append((setup_totals, totals))

    outcomes = [o for r in records for o in r.outcomes]
    attempted = len(outcomes)
    failed = sum(1 for kind, _ in outcomes if kind != "ok")
    correct = not any(kind in ("wrong", "nondeterministic")
                      for kind, _ in outcomes)
    fail_frac = failed / attempted

    op_seconds = per_op_median(records, "untraced")
    corpus_s = sum(op_seconds)
    tail_pct, tail_value = tail(op_seconds)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "corpus_s": (corpus_s, "s"),
            "op_s.p50": (statistics.median(op_seconds), "s"),
            "op_s.tail": (tail_value, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        shown = dict(metrics, fail_frac=(fail_frac, "ratio"))
    else:
        overhead = sum(per_op_median(records, "traced")) - corpus_s
        metrics = layer_metrics(traced_totals, overhead)
        metrics["fail_frac"] = (fail_frac, "ratio")
        shown = metrics
    raw = {name: value for name, (value, unit) in metrics.items()
           if unit == "s"}
    scale = CALIBRATION_REFERENCE_S / statistics.median(calibrations)
    for name in raw:
        metrics[name] = (raw[name] * scale, "s")
        shown[name] = metrics[name]

    for name, (value, unit) in shown.items():
        print(f"{name} = {value!r} {unit}")
    print(f"op_s.tail is p{tail_pct:.1f} of {len(op_seconds)} operations")
    print(f"seconds are scaled by {scale!r}: {CALIBRATION_REFERENCE_S} s "
          f"reference over {statistics.median(calibrations)!r} s median "
          "calibration")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "pass_seconds": pass_seconds,
        "setup_s_samples": setup_times,
        "op_s_tail": {"percentile": tail_pct, "samples": len(op_seconds)},
        "time_scale": scale,
        "calibration_s": calibrations,
        "unscaled_s": raw,
        "operations": [
            {"id": r.op_id,
             "seconds": statistics.median(r.untraced),
             "samples_s": r.untraced,
             "traced_seconds": (statistics.median(r.traced)
                                if r.traced else None),
             "lps": r.lps,
             "pivots": r.pivots,
             "reference": r.source,
             "outcome": next((o for o in r.outcomes if o[0] != "ok"),
                             ("ok", ""))}
            for r in records],
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name not in UNLISTED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
