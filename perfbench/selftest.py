"""Quick self-test of the benchmark's own machinery, on tiny geometries.

    python3 perfbench/selftest.py

Checks that the output checks reject wrong outputs, that the tracer wraps every
module binding a function (and restores them), that a missing function is
reported as absent, that the metric names match BENCHMARK.json, and that the
runner refuses to run without the srb sources.  Takes a few seconds; exits 1 on
the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads
from workloads import Geometry
from yardstick import Yardstick

ROOT = Path(__file__).resolve().parent.parent


class TinyIngest(workloads.Ingest):
    geometry = Geometry(k=2, alpha=3, p=1, block_size=64)
    members = 6
    oracle_stripes = 2


class TinyRead(workloads.Read):
    geometry = Geometry(k=2, alpha=3, p=1, block_size=64)
    pool = 7


class TinySim(workloads.ShardSim):
    config = dict(
        workloads.ShardSim.config,
        total_nodes=40, shards=2, malicious=2, k=2, alpha=3, p=1, block_size=64,
        blocks_per_epoch=3, joins_per_epoch=2, epochs=6,
    )


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


YARDSTICK = Yardstick()


def run_unit(workload, i, tracer=None):
    ops = []
    run.run_pass(workload, i, tracer, YARDSTICK, ops)
    return ops


def test_checks_reject_wrong_outputs(srb):
    ingest = TinyIngest(srb, 1)
    op = ingest.unit(0)[0]
    good = op.run()
    expect(op.check(op, good), "ingest check accepts a correct state")
    g = ingest.geometry
    z = workloads.symbols_per_block(g.block_size)
    sampled = len(good) - 2 * g.alpha * z + 2 * op.info["oracle_stripes"][0]
    bad = bytearray(good)
    bad[sampled] ^= 1
    expect(not op.check(op, bytes(bad)), "ingest check rejects a changed symbol in a sampled stripe")

    read = TinyRead(srb, 1)
    for i in range(3):  # one round per strategy
        ops = run_unit(read, i)
        expect(all(op.ok for op in ops), f"read round {i}: every request correct")
        expect(sum(op.byz for op in ops) == 2, f"read round {i}: one attacked request per kind")
    bootstrap = next(op for op in read.unit(0) if op.kind == "bootstrap")
    state, download = bootstrap.run()
    expect(not bootstrap.check(bootstrap, (state[:-1] + bytes([state[-1] ^ 1]), download)),
           "bootstrap check rejects a changed state")
    recon = next(op for op in read.unit(0) if op.kind == "reconstruct")
    blocks = recon.run()
    expect(not recon.check(recon, blocks[::-1]), "reconstruct check rejects reordered blocks")

    sim = TinySim(srb, 1)
    ops = run_unit(sim, 0)
    expect(ops[0].ok and ops[0].info["bootstraps"] > 0, "tiny simulation passes its check")


def test_tracer(srb):
    tracer = tracing.Tracer()
    read = TinyRead(srb, 2)
    original = srb.mbr.rs_decode
    ops = run_unit(read, 1, tracer)  # zero-out liars: the fallback runs
    expect(all(op.ok for op in ops), "traced read round is correct")
    expect(srb.mbr.rs_decode is original, "uninstall restores every binding")
    spans = tracer.summary()
    expect(spans["rs.rs_decode"]["under"].get("mbr.secure_reconstruct", 0) > 0,
           "rs_decode is traced where srb.mbr binds it")
    expect(spans["rs.rs_decode_many"]["under"].get("codec.bootstrap_node", 0) > 0,
           "rs_decode_many is traced where srb.codec binds it")
    for name, s in spans.items():
        expect(-1e-9 <= s["self_s"] <= s["total_s"] + 1e-9, f"{name}: 0 <= self time <= total")
    counters = dict(read.counters(ops, spans), peak_rss_mb=1.0, overhead_share=0.0)
    values = tracing.layer_metrics(spans, counters)
    expect(list(values) == [name for name, *_ in tracing.PER_LAYER],
           "layer_metrics yields exactly PER_LAYER, in order")

    missing = tracing.Tracer()
    saved = tracing.TARGETS
    tracing.TARGETS = saved + (("rs.gone", "srb.rs", "no_such_function", None),)
    try:
        missing.install()
    finally:
        missing.uninstall()
        tracing.TARGETS = saved
    expect(missing.absent == ["srb.rs.no_such_function"], "a missing function is reported absent")


def test_metric_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
           == list(run.END_TO_END), "END_TO_END matches BENCHMARK.json")
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == [m[:3] for m in tracing.PER_LAYER], "PER_LAYER matches BENCHMARK.json")
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS),
           "workload names match BENCHMARK.json")


def test_refuses_without_sources():
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in Path(__file__).parent.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    expect(proc.returncode == 2 and proc.stdout == "", "without src/ the runner exits 2, prints nothing")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    srb = run.load_srb()
    test_checks_reject_wrong_outputs(srb)
    test_tracer(srb)
    test_metric_names()
    test_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
