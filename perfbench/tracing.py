"""Call spans around srb's public functions, installed from the benchmark.

Each target is replaced, in every loaded ``srb`` module that binds it (for
example ``srb.rs.rs_decode`` is also bound as ``srb.mbr.rs_decode``), by a
wrapper that records one span per call: name, parent span, start, end and an
optional amount (bytes or words handled).  Spans stay in memory; self times
and the per-layer metrics are derived after the run, and the spans are written
out at the end.  srb itself is not modified on disk.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time


def _stripe_bytes(args, kwargs, result):
    return len(result.symbols) * result.z * result.symbol_bytes


def _output_len(args, kwargs, result):
    return len(result)


def _input_len(args, kwargs, result):
    return len(args[0])


def _words(args, kwargs, result):
    return len(result)


def _changed_symbols(args, kwargs, result):
    return sum(1 for a, b in zip(args[0].symbols, result.symbols) if a != b)


# (span name, module, attribute path, amount recorded per call)
TARGETS = (
    ("field.scale_vec", "srb.field", "BinaryField.scale_vec", None),
    ("field.add_vec", "srb.field", "BinaryField.add_vec", None),
    ("field.scale_vec", "srb.field", "PrimeField.scale_vec", None),
    ("field.add_vec", "srb.field", "PrimeField.add_vec", None),
    ("codec.stripe_blocks", "srb.codec", "stripe_blocks", _stripe_bytes),
    ("codec.unstripe_blocks", "srb.codec", "unstripe_blocks", None),
    ("codec.encode_generation", "srb.codec", "encode_generation", None),
    ("codec.serve_repair", "srb.codec", "serve_repair", None),
    ("codec.bootstrap_node", "srb.codec", "bootstrap_node", None),
    ("codec.reconstruct_generation", "srb.codec", "reconstruct_generation", None),
    ("codec.state_to_bytes", "srb.codec", "state_to_bytes", _output_len),
    ("codec.share_to_bytes", "srb.codec", "share_to_bytes", _output_len),
    ("codec.state_from_bytes", "srb.codec", "state_from_bytes", _input_len),
    ("codec.share_from_bytes", "srb.codec", "share_from_bytes", _input_len),
    ("rs.rs_decode_many", "srb.rs", "rs_decode_many", _words),
    ("rs.rs_decode", "srb.rs", "rs_decode", None),
    ("mbr.secure_reconstruct", "srb.mbr", "secure_reconstruct", None),
    ("sim.run_simulation", "srb.sim", "run_simulation", None),
    ("sim.epoch_reconfigure", "srb.sim", "epoch_reconfigure", None),
    ("sim.adversary_corrupt", "srb.sim", "adversary_corrupt", _changed_symbols),
    ("analytics.comparison_report", "srb.analytics", "comparison_report", None),
)

# (name, unit, better, moves): every metric the traced run reports, on every
# workload, with the end-to-end metrics it should move as "workload:metric"
# (the per-kind latency that carries the effect in parentheses).
_BULK = ("ingest:op_ms_p50", "read:op_ms_p50", "shard-sim:op_ms_p50")
_ENCODE = ("ingest:op_ms_p50 (encode_ms_p50)",)
_BOOTSTRAP = ("read:op_ms_p50 (bootstrap_ms_p50)",)
_FALLBACK = ("read:gen_mbps (bootstrap_byz_ms_p50, reconstruct_ms_p50)",)
_RECONSTRUCT = ("read:gen_mbps (reconstruct_ms_p50, reconstruct_byz_ms_p50)",)
_SIM = ("shard-sim:op_ms_p50 (sim_ms_p50)",)
PER_LAYER = (
    ("field.bulk_calls", "count", "lower", _BULK),
    ("field.bulk_s", "s", "lower", _BULK),
    ("codec.stripe_s", "s", "lower", _ENCODE),
    ("codec.stripe_mbps", "MB/s", "higher", _ENCODE),
    ("codec.encode_self_s", "s", "lower", _ENCODE),
    ("codec.serve_s", "s", "lower", _BOOTSTRAP),
    ("codec.bootstrap_self_s", "s", "lower", _BOOTSTRAP),
    ("codec.reconstruct_self_s", "s", "lower", _RECONSTRUCT),
    ("codec.unstripe_s", "s", "lower", _RECONSTRUCT),
    ("codec.serialize_s", "s", "lower", _ENCODE),
    ("codec.serialize_mbps", "MB/s", "higher", _ENCODE),
    ("codec.serialize_bytes", "B", "lower", _ENCODE),
    ("codec.parse_s", "s", "lower", _BOOTSTRAP + _SIM),
    ("codec.parse_mbps", "MB/s", "higher", _BOOTSTRAP + _SIM),
    ("codec.parse_bytes", "B", "lower", _BOOTSTRAP + _SIM),
    ("rs.decode_many_words", "count", "higher", _BOOTSTRAP),
    ("rs.decode_many_self_s", "s", "lower", _BOOTSTRAP),
    ("rs.wb_calls", "count", "lower", _FALLBACK),
    ("rs.wb_s", "s", "lower", _FALLBACK),
    ("rs.fallback_share", "share", "lower", ("read:gen_mbps (bootstrap_byz_ms_p50)",)),
    ("mbr.reconstruct_calls", "count", "lower", _RECONSTRUCT),
    ("mbr.reconstruct_self_s", "s", "lower", _RECONSTRUCT),
    ("sim.self_s", "s", "lower", _SIM),
    ("sim.reconfigure_s", "s", "lower", _SIM),
    ("sim.adversary_s", "s", "lower", _SIM),
    ("sim.encodes_per_stored_state", "share", "lower", _SIM),
    ("sim.parses_per_share", "share", "lower", _SIM),
    ("analytics.comparison_s", "s", "lower", _SIM),
    ("input.dirty_word_share", "share", "lower", ("input property of read and shard-sim",)),
    ("proc.peak_rss_mb", "MB", "lower", ()),
    ("trace.overhead_share", "share", "lower", ()),
)


def srb_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "srb" or name.startswith("srb.")]


class Tracer:
    """Records spans while ``enabled``; install() wraps, uninstall() restores."""

    def __init__(self):
        self.enabled = False
        self.absent: list[str] = []
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.amounts: list[int] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, amount):
        names, parents, starts, ends, amounts = (
            self.names, self.parents, self.starts, self.ends, self.amounts
        )
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            amounts.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if amount is not None:
                amounts[idx] = amount(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _rebind(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        self.absent = []
        for name, module_name, path, amount in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{path}")
                continue
            *outer, attr = path.split(".")
            owner = module
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original, amount)
            if outer:
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in srb_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def uninstall(self) -> None:
        self.enabled = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, amount, calls per parent name."""
        n = len(self.names)
        child_s = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_s[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i in range(n):
            s = out.setdefault(
                self.names[i], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0, "under": {}}
            )
            dur = self.ends[i] - self.starts[i]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child_s[i]
            s["amount"] += self.amounts[i]
            parent = self.parents[i]
            key = self.names[parent] if parent >= 0 else ""
            s["under"][key] = s["under"].get(key, 0) + 1
        return out

    def write(self, path: str, extra: dict) -> None:
        """All spans as one gzip'd JSON object: [name, parent, start_us, dur_us, amount]."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [
                index[self.names[i]],
                self.parents[i],
                round((self.starts[i] - t0) * 1e6, 1),
                round((self.ends[i] - self.starts[i]) * 1e6, 1),
                self.amounts[i],
            ]
            for i in range(len(self.names))
        ]
        doc = dict(extra, absent=self.absent, span_names=list(index), spans=spans)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(spans: dict[str, dict], counters: dict[str, float]) -> dict[str, float]:
    """The PER_LAYER metrics from a span summary plus the benchmark's own counters.

    A layer the workload never calls (or whose function is absent) reads 0.
    """

    def get(name, key="total_s"):
        return spans.get(name, {}).get(key, 0)

    def total(names, key="total_s"):
        return sum(get(n, key) for n in names)

    def share(num, den):
        return num / den if den else 0.0

    def mbps(nbytes, seconds):
        return nbytes / seconds / 1e6 if seconds > 0 else 0.0

    bulk = ("field.scale_vec", "field.add_vec")
    serialize = ("codec.state_to_bytes", "codec.share_to_bytes")
    parse = ("codec.state_from_bytes", "codec.share_from_bytes")
    words = get("rs.rs_decode_many", "amount")
    fallback = spans.get("rs.rs_decode", {}).get("under", {}).get("rs.rs_decode_many", 0)
    values = {
        "field.bulk_calls": total(bulk, "calls"),
        "field.bulk_s": total(bulk),
        "codec.stripe_s": get("codec.stripe_blocks"),
        "codec.stripe_mbps": mbps(get("codec.stripe_blocks", "amount"), get("codec.stripe_blocks")),
        "codec.encode_self_s": get("codec.encode_generation", "self_s"),
        "codec.serve_s": get("codec.serve_repair"),
        "codec.bootstrap_self_s": get("codec.bootstrap_node", "self_s"),
        "codec.reconstruct_self_s": get("codec.reconstruct_generation", "self_s"),
        "codec.unstripe_s": get("codec.unstripe_blocks"),
        "codec.serialize_s": total(serialize),
        "codec.serialize_mbps": mbps(total(serialize, "amount"), total(serialize)),
        "codec.serialize_bytes": total(serialize, "amount"),
        "codec.parse_s": total(parse),
        "codec.parse_mbps": mbps(total(parse, "amount"), total(parse)),
        "codec.parse_bytes": total(parse, "amount"),
        "rs.decode_many_words": words,
        "rs.decode_many_self_s": get("rs.rs_decode_many", "self_s"),
        "rs.wb_calls": get("rs.rs_decode", "calls"),
        "rs.wb_s": get("rs.rs_decode"),
        "rs.fallback_share": share(fallback, words),
        "mbr.reconstruct_calls": get("mbr.secure_reconstruct", "calls"),
        "mbr.reconstruct_self_s": get("mbr.secure_reconstruct", "self_s"),
        "sim.self_s": get("sim.run_simulation", "self_s"),
        "sim.reconfigure_s": get("sim.epoch_reconfigure"),
        "sim.adversary_s": get("sim.adversary_corrupt"),
        "sim.encodes_per_stored_state": share(
            get("codec.encode_generation", "calls"), counters.get("sim_stored_states", 0)
        ),
        "sim.parses_per_share": share(
            get("codec.state_from_bytes", "calls"), counters.get("sim_shares", 0)
        ),
        "analytics.comparison_s": get("analytics.comparison_report"),
        "input.dirty_word_share": share(counters["dirty_words"], counters["decoded_words"]),
        "proc.peak_rss_mb": counters["peak_rss_mb"],
        "trace.overhead_share": counters["overhead_share"],
    }
    return values
