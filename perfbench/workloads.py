"""The three workloads: inputs from the seed, timed ops, and output checks.

A workload hands the runner *units* of work: one member's state (ingest), one
round of four read requests (read) or one simulation (shard-sim).  ``unit(i)``
builds every input of unit ``i`` from the seed alone, untimed, and returns its
ops; the same ``i`` always yields the same inputs, so the traced run replays
exactly what the untraced run measured.  An op's ``run`` is the timed part; its
``check`` runs afterwards, untimed and untraced.

Every call into srb goes through the module attribute (``self.srb.codec.x``)
so that the tracer's wrappers see it.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field, replace
from typing import Callable

from yardstick import NOMINAL_S

FIELD_SPEC = "binary:16"  # the default field, and the only one used for real data


@dataclass(frozen=True)
class Geometry:
    k: int
    alpha: int
    p: int
    block_size: int


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[["Op", object], bool]
    gen_bytes: int                      # bytes of the generation this op encodes or reads back
    byz: bool = False
    info: dict = field(default_factory=dict)
    seconds: float = 0.0                # wall time of the op, set by the runner
    ok: bool = False                    # set by the runner
    refs: list[float] = field(default_factory=list)  # yardstick times before, inside and after it

    @property
    def normalized(self) -> float:
        """`seconds` at the reference speed (see yardstick).

        The machine's speed is proportional to 1 / yardstick time, so its mean
        speed over the op is the mean of 1 / refs: the op's time is scaled by
        their harmonic mean.
        """
        return self.seconds * NOMINAL_S / statistics.harmonic_mean(self.refs)


def median_ms(ops: list[Op], normalized: bool = False) -> float:
    """Median latency; for attacked ops, the mean over strategies of each one's median,
    so that runs weigh the strategies alike however many rounds they complete."""
    if not ops:
        return 0.0
    by_strategy: dict[str | None, list[float]] = {}
    for op in ops:
        value = op.normalized if normalized else op.seconds
        by_strategy.setdefault(op.info.get("strategy"), []).append(value)
    return statistics.mean(statistics.median(v) for v in by_strategy.values()) * 1e3


def p90_ms(ops: list[Op]) -> float | None:
    """p90, only when at least ten samples lie beyond it."""
    if len(ops) < 100:
        return None
    return statistics.quantiles([op.seconds for op in ops], n=10)[-1] * 1e3


def random_blocks(rng: random.Random, count: int, block_size: int) -> list[bytes]:
    """Ledger blocks of slightly varying length, so that padding is exercised."""
    return [rng.randbytes(block_size - rng.randrange(32)) for _ in range(count)]


def symbols_per_block(block_size: int) -> int:
    return -(-block_size // 2)  # GF(2^16) packs two bytes per symbol


class Workload:
    name = ""

    def __init__(self, srb, seed: int):
        self.srb = srb
        self.seed = seed
        self.field = srb.field.parse_field(FIELD_SPEC)

    def unit(self, i: int) -> list[Op]:
        raise NotImplementedError

    def categories(self, ops: list[Op]) -> dict[str, list[Op]]:
        """Ops grouped by request kind, keyed by the name of their median latency.

        The first group's median is op_ms_p50.
        """
        raise NotImplementedError

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        """op_ms_p50, and gen_mbps: generation bytes per second for one request of
        each kind at its median latency, which a few slow outliers cannot swing."""
        groups = [group for group in self.categories(ops).values() if group]
        nbytes = sum(statistics.mean(op.gen_bytes for op in group) for group in groups)
        ms = sum(median_ms(group, normalized=True) for group in groups)
        return {"op_ms_p50": median_ms(groups[0], normalized=True), "gen_mbps": nbytes / ms / 1e3}

    def report(self, ops: list[Op]) -> list[tuple[str, float, str, int]]:
        """Named metrics for the readable lines: (name, value, unit, samples)."""
        groups = self.categories(ops)
        out = [(name, median_ms(group), "ms", len(group)) for name, group in groups.items()]
        first_name, first = next(iter(groups.items()))
        p90 = p90_ms(first)
        if p90 is not None:
            out.append((first_name.replace("p50", "p90"), p90, "ms", len(first)))
        return out + self.extra_report(ops)

    def extra_report(self, ops: list[Op]) -> list[tuple[str, float, str, int]]:
        return []

    def counters(self, ops: list[Op], spans: dict[str, dict]) -> dict[str, float]:
        """Input-property counters over the given ops."""
        return {
            "decoded_words": sum(op.info.get("words", 0) for op in ops),
            "dirty_words": sum(op.info.get("dirty_words", 0) for op in ops),
        }


class Ingest(Workload):
    name = "ingest"
    geometry = Geometry(k=10, alpha=16, p=2, block_size=4096)
    members = 21            # alpha + 2p + 1: the smallest shard that can serve a repair
    oracle_stripes = 4      # stripes of each state checked against mbr.encode_node

    def __init__(self, srb, seed: int):
        super().__init__(srb, seed)
        g = self.geometry
        self.params = srb.mbr.MbrParams(g.k, g.alpha, p=g.p)
        self._current = self._generation(0)

    def _generation(self, generation: int):
        rng = random.Random(f"{self.seed}:ingest:{generation}")
        blocks = random_blocks(rng, self.params.message_length, self.geometry.block_size)
        gammas = rng.sample(range(self.field.order), self.members)
        z = symbols_per_block(self.geometry.block_size)
        stripes = [rng.sample(range(z), self.oracle_stripes) for _ in gammas]
        return generation, blocks, gammas, stripes

    def unit(self, i: int) -> list[Op]:
        """One member's state of generation i // members."""
        generation, member = divmod(i, self.members)
        if self._current[0] != generation:
            self._current = self._generation(generation)
        _, blocks, gammas, stripes = self._current
        gamma = gammas[member]
        return [
            Op(
                "encode",
                run=lambda: self._encode(blocks, gamma, generation),
                check=lambda op, out: self._check(
                    op, out, blocks, gamma, generation, stripes[member]
                ),
                gen_bytes=sum(map(len, blocks)),
                info={"generation": generation, "gamma": gamma, "oracle_stripes": stripes[member]},
            )
        ]

    def _encode(self, blocks: list[bytes], gamma: int, generation: int) -> bytes:
        codec = self.srb.codec
        state = codec.encode_generation(
            blocks,
            gamma,
            self.params,
            self.field,
            generation=generation,
            block_size=self.geometry.block_size,
        )
        return codec.state_to_bytes(state)

    def _check(self, op, data, blocks, gamma, generation, stripes) -> bool:
        """Round trip through state_from_bytes, then the one-stripe oracle on a sample."""
        srb, g = self.srb, self.geometry
        op.info["state_bytes"] = len(data)
        state = srb.codec.state_from_bytes(data)
        if srb.codec.state_to_bytes(state) != data:
            return False
        header = (state.field, state.gamma, state.generation, state.k, state.alpha)
        if header != (self.field, gamma, generation, g.k, g.alpha):
            return False
        if state.block_size != g.block_size or state.pad_lengths != tuple(map(len, blocks)):
            return False
        padded = [b.ljust(g.block_size, b"\0") for b in blocks]
        for s in stripes:
            msg = [int.from_bytes(b[2 * s : 2 * s + 2], "big") for b in padded]
            matrix = srb.mbr.build_message_matrix(self.field, msg, self.params)
            row = srb.mbr.encode_node(self.field, matrix, gamma)
            if row.symbols != tuple(block[s] for block in state.blocks):
                return False
        return True

    def categories(self, ops):
        return {"encode_ms_p50": ops}

    def extra_report(self, ops):
        stored = sum(op.info.get("state_bytes", 0) for op in ops)
        return [("stored_bytes_per_gen_byte", stored / sum(op.gen_bytes for op in ops), "B/B", len(ops))]


class Read(Workload):
    name = "read"
    geometry = Geometry(k=5, alpha=8, p=1, block_size=2048)
    pool = 14               # nodes holding the generation; helpers and targets come from here

    def __init__(self, srb, seed: int):
        super().__init__(srb, seed)
        g = self.geometry
        codec = srb.codec
        self.params = srb.mbr.MbrParams(g.k, g.alpha, p=g.p)
        rng = random.Random(f"{seed}:read")
        self.blocks = random_blocks(rng, self.params.message_length, g.block_size)
        self.gen_bytes = sum(map(len, self.blocks))
        self.gammas = rng.sample(range(self.field.order), self.pool)
        self.files = {
            gamma: codec.state_to_bytes(
                codec.encode_generation(
                    self.blocks, gamma, self.params, self.field, block_size=g.block_size
                )
            )
            for gamma in self.gammas
        }

    def unit(self, i: int) -> list[Op]:
        """Round i: one clean and one attacked request of each kind, in a seeded order.

        The attack strategy rotates through sim.STRATEGIES from round to round.
        """
        rng = random.Random(f"{self.seed}:read:{i}")
        strategies = self.srb.sim.STRATEGIES
        strategy = strategies[i % len(strategies)]
        requests = [
            self._bootstrap(rng, None),
            self._bootstrap(rng, strategy),
            self._reconstruct(rng, None),
            self._reconstruct(rng, strategy),
        ]
        rng.shuffle(requests)
        return requests

    def _bootstrap(self, rng: random.Random, strategy: str | None) -> Op:
        g, srb = self.geometry, self.srb
        target, *helpers = rng.sample(self.gammas, 1 + g.alpha + 2 * g.p)
        info = {"target": target, "helpers": helpers, "words": symbols_per_block(g.block_size)}
        liar, lie = None, None
        if strategy is not None:
            # The liar's corrupted share is made here, untimed; in the op the
            # liar still parses and serves like any helper, then sends the lie.
            # It sits among the first alpha helpers, the ones the decoder
            # interpolates from: a liar among the last 2p costs this decoder no
            # more than a clean request, which would make an attacked
            # request's cost a coin toss.  A decoder that interpolates from
            # other points must move the liars with it (see README).
            liar = rng.randrange(g.alpha)
            honest = srb.codec.serve_repair(srb.codec.state_from_bytes(self.files[helpers[liar]]), target)
            lie = srb.sim.adversary_corrupt(honest, strategy, random.Random(rng.getrandbits(64)))
            dirty = sum(1 for a, b in zip(honest.symbols, lie.symbols) if a != b)
            info.update(liar_positions=[liar], strategy=strategy, dirty_words=dirty)

        def run():
            codec = self.srb.codec
            wire = []
            for pos, helper in enumerate(helpers):
                share = codec.serve_repair(codec.state_from_bytes(self.files[helper]), target)
                wire.append(codec.share_to_bytes(lie if pos == liar else share))
            shares = [codec.share_from_bytes(data) for data in wire]
            rebuilt = codec.bootstrap_node(shares, target, g.p)
            return codec.state_to_bytes(rebuilt), sum(map(len, wire))

        def check(op, out):
            op.info["download_bytes"] = out[1]
            return out[0] == self.files[target]  # byte-identical to direct encoding

        return Op("bootstrap", run, check, self.gen_bytes, strategy is not None, info)

    def _reconstruct(self, rng: random.Random, strategy: str | None) -> Op:
        g, srb = self.geometry, self.srb
        nodes = rng.sample(self.gammas, g.k + 2 * g.p)
        files = [self.files[gamma] for gamma in nodes]
        info = {"nodes": nodes, "words": g.alpha * symbols_per_block(g.block_size)}
        if strategy is not None:
            liar = rng.randrange(g.k)  # among the k nodes interpolated from, as above
            honest = srb.codec.state_from_bytes(files[liar])
            lie = self._corrupt_state(honest, strategy, random.Random(rng.getrandbits(64)))
            files[liar] = srb.codec.state_to_bytes(lie)
            dirty = sum(
                1
                for a_block, b_block in zip(honest.blocks, lie.blocks)
                for a, b in zip(a_block, b_block)
                if a != b
            )
            info.update(liar_positions=[liar], strategy=strategy, dirty_words=dirty)

        def run():
            codec = self.srb.codec
            return codec.reconstruct_generation([codec.state_from_bytes(b) for b in files], g.p)

        return Op(
            "reconstruct", run, lambda op, out: out == self.blocks, self.gen_bytes,
            strategy is not None, info,
        )

    def _corrupt_state(self, state, strategy: str, rng: random.Random):
        """A lying node's stored state under one of sim.STRATEGIES."""
        g = self.geometry
        if strategy == "zero-out":
            blocks = tuple((0,) * state.z for _ in state.blocks)
        elif strategy == "flip-random-symbols":
            original = [s for block in state.blocks for s in block]
            flat = original
            while flat == original:
                flat = original[:]
                for pos in rng.sample(range(len(flat)), rng.randint(1, len(flat))):
                    flat[pos] = rng.randrange(self.field.order)
            blocks = tuple(tuple(flat[j * state.z : (j + 1) * state.z]) for j in range(g.alpha))
        elif strategy == "consistent-wrong-polynomial":
            # The liar holds its row of a different, valid message.
            wrong = random_blocks(rng, self.params.message_length, g.block_size)
            blocks = self.srb.codec.encode_generation(
                wrong, state.gamma, self.params, self.field, block_size=g.block_size
            ).blocks
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        return replace(state, blocks=blocks)

    @staticmethod
    def _select(ops, kind, byz):
        return [op for op in ops if op.kind == kind and op.byz == byz]

    def categories(self, ops):
        return {
            "bootstrap_ms_p50": self._select(ops, "bootstrap", False),
            "bootstrap_byz_ms_p50": self._select(ops, "bootstrap", True),
            "reconstruct_ms_p50": self._select(ops, "reconstruct", False),
            "reconstruct_byz_ms_p50": self._select(ops, "reconstruct", True),
        }

    def extra_report(self, ops):
        bootstraps = [op for op in ops if op.kind == "bootstrap"]
        download = sum(op.info.get("download_bytes", 0) for op in bootstraps)
        per_gen_byte = download / (self.gen_bytes * len(bootstraps))
        return [("download_bytes_per_gen_byte", per_gen_byte, "B/B", len(bootstraps))]


class ShardSim(Workload):
    """The acceptance-6 simulation, exactly, seed included, in every unit.

    Its cost hangs on the simulation seed: over benchmark seeds 1-10 one
    simulation met 1 to 13 corrupted shares and took 13.5 to 24.3 s, a spread
    between quartiles of 37% that no bound can absorb.  So --seed does not reach
    this workload.
    """

    name = "shard-sim"
    config = dict(
        total_nodes=200,
        shards=4,
        malicious=4,
        k=5,
        alpha=8,
        p=1,
        block_size=2048,
        blocks_per_epoch=6,
        joins_per_epoch=2,
        leaves_per_epoch=0,
        cuckoo_eps=0.01,
        strategy="flip-random-symbols",
        seed=7,
        epochs=10,
        field_spec=FIELD_SPEC,
    )

    def __init__(self, srb, seed: int):
        super().__init__(srb, seed)
        self.sim_config = srb.sim.SimConfig(**self.config)
        self.generation_bytes = self.sim_config.generation_blocks * self.sim_config.block_size

    def unit(self, i: int) -> list[Op]:
        cfg = self.sim_config
        return [
            Op(
                "simulate",
                run=lambda: self.srb.sim.run_simulation(cfg),
                check=lambda op, report: self._check(op, cfg, report),
                gen_bytes=0,
            )
        ]

    def _check(self, op, cfg, report) -> bool:
        codec = self.srb.codec
        last = report.epochs[-1]
        z = symbols_per_block(cfg.block_size)
        per_generation = cfg.alpha * z * 2 + codec.state_header_size(cfg.generation_blocks)
        generations = cfg.blocks_per_epoch * cfg.epochs // cfg.generation_blocks
        expected = generations * per_generation
        events = report.bootstrap_events
        op.gen_bytes = sum(last.generations_done) * cfg.generation_blocks * cfg.block_size
        op.info.update(
            bootstraps=len(events),
            corrupted_shares=sum(e.corrupted_shares for e in events),
            download_bytes=sum(e.payload_bytes + e.header_bytes for e in events),
            stored_states=self._stored_states(report),
            words=len(events) * z,
        )
        return (
            report.total_bootstrap_failures == 0
            and len(events) > 0
            and all(e.ok for e in events)
            and last.generations_done == (generations,) * cfg.shards
            and last.storage_total_min == last.storage_total_max == expected
            and last.expected_storage_per_node == (expected,) * cfg.shards
        )

    @staticmethod
    def _stored_states(report) -> int:
        """States written into node storage: one per member per new generation, one per bootstrap."""
        stored = sum(1 for e in report.bootstrap_events if e.ok)
        before = (0,) * len(report.epochs[0].generations_done)
        for st in report.epochs:
            stored += sum(
                (now - was) * size
                for now, was, size in zip(st.generations_done, before, st.shard_sizes)
            )
            before = st.generations_done
        return stored

    def categories(self, ops):
        return {"sim_ms_p50": ops}

    def extra_report(self, ops):
        bootstraps = sum(op.info.get("bootstraps", 0) for op in ops)
        download = sum(op.info.get("download_bytes", 0) for op in ops)
        generation = self.generation_bytes
        return [
            ("bootstraps", bootstraps, "count", len(ops)),
            ("corrupted_shares", sum(op.info.get("corrupted_shares", 0) for op in ops), "count",
             len(ops)),
            ("download_bytes_per_gen_byte", download / (generation * bootstraps) if bootstraps else 0.0,
             "B/B", bootstraps),
        ]

    def counters(self, ops, spans):
        adversary = spans.get("sim.adversary_corrupt", {})
        p_shares = self.config["alpha"] + 2 * self.config["p"]
        return {
            # One liar per bootstrap at most (per-shard cap), so the symbols it
            # changed are the bootstrap's dirty words.
            "dirty_words": adversary.get("amount", 0),
            "decoded_words": sum(op.info.get("words", 0) for op in ops),
            "sim_stored_states": sum(op.info.get("stored_states", 0) for op in ops),
            "sim_shares": sum(op.info.get("bootstraps", 0) for op in ops) * p_shares,
        }


WORKLOADS = {cls.name: cls for cls in (Ingest, Read, ShardSim)}
