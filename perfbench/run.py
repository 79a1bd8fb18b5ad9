"""Benchmark for srb: one workload, in one process, driven by one closed-loop client.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; srb is imported from ``src/`` of that
checkout and nowhere else.  Inputs come from ``--seed`` alone.  Ops run back to
back, each starting when the previous one ended, in whole units of work (one
node state, one round of read requests, one simulation) until the next unit
would end after ``--seconds``; at least one unit always runs.  Every output is
checked after its op, outside the timed region.  A yardstick run (see
yardstick.py) separates consecutive ops, and runs every second inside an
untraced op.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every unit
twice, untraced and with spans around every srb public function, and prints
the per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object; the run record (every op, with liar
positions and strategies) and, when traced, the spans go to ``.bench_out/`` in
the checkout.  Exit code: 0 when every check passed, 1 when any op failed, 2
when set-up failed.
"""

import os

# One client thread: keep any native library from using more cores than that.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS
from yardstick import NOMINAL_S, Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
INTERLUDE_S = 1.0       # seconds between yardstick runs inside one untraced op
SRB_MODULES = ("field", "rs", "mbr", "codec", "sim", "analytics")

# (name, unit, better); every workload reports all of them with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("gen_mbps", "MB/s", "higher"),
)


def load_srb() -> types.SimpleNamespace:
    """A fresh import of srb from the checkout, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "srb" or n.startswith("srb.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"srb.{name}") for name in SRB_MODULES}
    origin = Path(sys.modules["srb"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"srb was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**modules)


def set_up(workload_cls, seed: int, yardstick: Yardstick):
    """Import srb and build the workload's inputs, several times; keep the last.

    Returns the workload and the median set-up time, wall-clock and at the
    reference speed.
    """
    raw, normalized = [], []
    for _ in range(SETUP_REPEATS):
        before = yardstick.latest()
        started = time.perf_counter()
        workload = workload_cls(load_srb(), seed)
        raw.append(time.perf_counter() - started)
        normalized.append(raw[-1] * NOMINAL_S * 2 / (before + yardstick.measure()))
    return workload, statistics.median(raw), statistics.median(normalized)


def execute(op, tracer, yardstick: Yardstick) -> None:
    """Time one op between two yardstick runs, then check its output.

    The run after one op is the run before the next: only untimed input
    building and checking lie between them.  An untraced op also takes a
    yardstick run every INTERLUDE_S seconds, from SIGALRM, so that a long op
    is normalized by the speed throughout it; those runs are left out of its
    time and kept in its refs.  A traced op takes none, since they would land
    in the self time of an open srb span.
    """
    yardstick.latest()
    first = len(yardstick.samples) - 1
    yardstick.paused = 0.0
    if tracer is not None:
        tracer.enabled = True
    else:
        signal.signal(signal.SIGALRM, lambda signum, frame: yardstick.interlude())
        signal.setitimer(signal.ITIMER_REAL, INTERLUDE_S, INTERLUDE_S)
    started = time.perf_counter()
    raised = False
    try:
        out = op.run()
    except Exception:
        raised = True
        print(f"{op.kind} op failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    signal.setitimer(signal.ITIMER_REAL, 0)
    op.seconds = time.perf_counter() - started - yardstick.paused
    if tracer is not None:
        tracer.enabled = False
    yardstick.measure()
    op.refs = yardstick.samples[first:]
    if raised:
        return
    try:
        op.ok = bool(op.check(op, out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
    if not op.ok:
        print(f"{op.kind} op returned a wrong result: {op.info}", file=sys.stderr)


def run_pass(workload, i, tracer, yardstick, ops) -> None:
    unit = workload.unit(i)
    if tracer is not None:
        tracer.install()
    try:
        for op in unit:
            execute(op, tracer, yardstick)
            ops.append(op)
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_units(workload, seconds: float, yardstick: Yardstick, tracer=None):
    """Run units 0, 1, ... while the next one is expected to end within `seconds`.

    With a tracer every unit runs twice, untraced and traced, alternating which
    pass goes first, so both passes see the same inputs and the same warm-up.
    Returns the untraced ops, the traced ops and the number of units.
    """
    plain, traced = [], []
    started = time.perf_counter()
    last = 0.0
    i = 0
    while i == 0 or time.perf_counter() - started + last <= seconds:
        unit_started = time.perf_counter()
        passes = [(None, plain)] if tracer is None else [(None, plain), (tracer, traced)]
        for pass_tracer, ops in passes[:: -1 if i % 2 else 1]:
            run_pass(workload, i, pass_tracer, yardstick, ops)
        last = time.perf_counter() - unit_started
        i += 1
    return plain, traced, i


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def op_record(op) -> dict:
    return {"kind": op.kind, "byz": op.byz, "ok": op.ok, "ms": op.seconds * 1e3,
            "yardstick_ms": [r * 1e3 for r in op.refs], **op.info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    yardstick = Yardstick()
    try:
        workload, setup_raw_s, setup_s = set_up(WORKLOADS[args.workload], args.seed, yardstick)
    except Exception:
        print("set-up failed; run from the root of an srb source checkout:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if not args.trace:
        ops, _, units = run_units(workload, args.seconds, yardstick)
        values = {"setup_s": setup_s, **workload.end_to_end(ops)}
        table = END_TO_END
        shown = ops
    else:
        tracer = Tracer()
        reference, traced, units = run_units(workload, args.seconds, yardstick, tracer)
        spans = tracer.summary()
        counters = workload.counters(traced, spans)
        counters["peak_rss_mb"] = peak_rss_mb()
        counters["overhead_share"] = (
            sum(op.seconds for op in traced) / sum(op.seconds for op in reference) - 1
        )
        values = layer_metrics(spans, counters)
        table = PER_LAYER
        ops = reference + traced
        shown = traced
        record["absent"] = tracer.absent
        record["spans"] = spans
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(
            str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"),
            {"workload": args.workload, "seed": args.seed},
        )
        for name in tracer.absent:
            print(f"absent: {name} (not wrapped; its metrics read 0)")

    failed = sum(1 for op in ops if not op.ok)
    print(f"# {args.workload}: seed {args.seed}, {units} units, {len(ops)} ops, {failed} failed")
    report = [
        ("setup_s_wall", setup_raw_s, "s", SETUP_REPEATS),
        *workload.report(shown),
        ("yardstick_ms_p50", statistics.median(yardstick.samples) * 1e3, "ms", len(yardstick.samples)),
        ("failed_op_share", failed / len(ops), "share", len(ops)),
    ]
    print("## wall clock" + (", traced pass" if args.trace else ""))
    for name, value, unit, samples in report:
        print(f"{name:32} {value:12.4f} {unit:8} n={samples}")
    print("## per layer, traced pass" if args.trace else "## end to end, at the reference speed")
    for name, unit, *_ in table:
        print(f"{name:32} {values[name]:12.4f} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in table}

    record.update(
        metrics=metrics,
        report={name: value for name, value, _, _ in report},
        ops=[op_record(op) for op in ops],
    )
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
