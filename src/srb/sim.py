"""Round-based shard protocol simulator.

Models a sharded network storing coded blocks: a trusted reference
committee emits per-epoch reference blocks (membership, shard assignment,
encoder coefficients, epoch randomness), joins follow the cuckoo rule,
blocks arrive at a fixed per-epoch rate and every full window of L blocks
forms an independent generation, which all of the shard's members then hold.
Each joining or displaced node obtains its coded state by bootstrap-as-repair
from alpha + 2p helpers.  Malicious helpers corrupt their shares under a
configurable strategy.

A member's state of a generation is encoded only when a repair first reads
it: each bootstrap makes one codec.encode_nodes call for those of its
sampled helpers not yet encoded and, last, the joiner itself, whose state is
the oracle the bootstrap is judged against.  A state nobody reads is never
encoded; encoding is deterministic, so the states and the report are those
of encoding every member up front.

Consensus and transaction semantics are out of scope: blocks simply arrive
valid.  Everything is driven by a single seed; identical configs produce
byte-identical reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field, fields, replace
from typing import get_type_hints

import numpy as np

from . import analytics, codec
from .errors import DecodeFailure, IntegrityError, ShardUnderflowError
from .field import Field, parse_field
from .mbr import MbrParams

STRATEGIES = ("flip-random-symbols", "zero-out", "consistent-wrong-polynomial")

CONFIG_VERSION = 1

@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; every run is fully determined by these."""

    total_nodes: int
    shards: int
    malicious: int = 0
    k: int = 2
    alpha: int = 3
    p: int = 0
    block_size: int = 1024
    blocks_per_epoch: int = 0      # per shard
    joins_per_epoch: int = 0
    leaves_per_epoch: int = 0
    cuckoo_eps: float = 0.01
    strategy: str = "flip-random-symbols"
    seed: int = 0
    epochs: int = 1
    field_spec: str = "binary:16"
    cap_malicious_per_shard: bool = True
    balance_ratio_limit: float = 0.0  # max/min shard size; 0 disables the check

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.total_nodes % self.shards != 0:
            raise ValueError("total_nodes must be a multiple of shards (N = m * n_S)")
        self.params  # k, alpha, p fit a shard of n_S
        if not 0 <= self.malicious <= self.total_nodes:
            raise ValueError("malicious count out of range")
        if self.cap_malicious_per_shard and self.malicious > self.shards * self.p:
            raise ValueError(
                "malicious cap: need T <= m * p (disable cap_malicious_per_shard to exceed)"
            )
        if not 0.0 <= self.cuckoo_eps < 1.0:
            raise ValueError("cuckoo_eps must be in [0, 1)")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}")
        if self.epochs < 0 or self.block_size < 1:
            raise ValueError("epochs must be >= 0 and block_size >= 1")
        if self.block_size > 0xFFFFFFFF:  # every state's header holds it as a u32
            raise ValueError(f"block_size={self.block_size} does not fit a u32 header field")
        if min(self.blocks_per_epoch, self.joins_per_epoch, self.leaves_per_epoch) < 0:
            raise ValueError("per-epoch rates must be >= 0")
        if not self.balance_ratio_limit >= 0.0:  # NaN too
            raise ValueError("balance_ratio_limit must be >= 0 (0 disables)")

    @property
    def n_s(self) -> int:
        return self.total_nodes // self.shards

    @property
    def params(self) -> MbrParams:
        """The code parameters of one shard, checked on each access."""
        return MbrParams(self.k, self.alpha, n=self.n_s, p=self.p)

    @property
    def generation_blocks(self) -> int:
        return self.params.message_length

    def to_text(self) -> str:
        lines = [f"config_version={CONFIG_VERSION}"]
        for name in get_type_hints(SimConfig):
            value = getattr(self, name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SimConfig":
        types = get_type_hints(cls)
        seen: dict[str, object] = {}
        version = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in seen or (key == "config_version" and version is not None):
                raise ValueError(f"line {lineno}: repeated config key {key!r}")
            if key == "config_version":
                version = int(value)
                continue
            if key not in types:
                raise ValueError(f"line {lineno}: unknown config key {key!r}")
            typ = types[key]
            if typ is bool:
                if value.lower() not in ("true", "false"):
                    raise ValueError(f"line {lineno}: {key} must be true or false")
                seen[key] = value.lower() == "true"
            else:
                seen[key] = typ(value)
        if version != CONFIG_VERSION:
            raise ValueError(f"config_version must be {CONFIG_VERSION}")
        missing = {"total_nodes", "shards"} - seen.keys()
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**seen)  # type: ignore[arg-type]


@dataclass
class NodeRecord:
    """One live node: overlay position, shard, coefficient, stored state.

    states maps each generation the node holds to its CodedNodeState, kept as
    built (checked once by codec) and served from directly, or to None while
    it holds the generation but no repair has read it yet: _bootstrap_one
    encodes it then.  Every state of a run is the same size, a state file's
    header_bytes() + payload_bytes().
    """

    node_id: int
    position: float
    shard: int
    gamma: int
    malicious: bool
    states: dict[int, codec.CodedNodeState | None] = dc_field(default_factory=dict)


@dataclass(frozen=True)
class ReferenceBlock:
    """Per-epoch committee output: full membership with coefficients."""

    epoch: int
    randomness: int
    entries: tuple[tuple[int, int, int], ...]  # (node_id, shard, gamma)


@dataclass(frozen=True)
class JoinResult:
    node_id: int
    shard: int
    displaced: tuple[tuple[int, int, int], ...]  # (node_id, old_shard, new_shard)

    @property
    def needs_bootstrap(self) -> tuple[int, ...]:
        movers = tuple(nid for nid, old, new in self.displaced if old != new)
        return (self.node_id,) + movers


@dataclass(frozen=True)
class ChurnSummary:
    joined: tuple[JoinResult, ...]
    left: tuple[int, ...]


@dataclass
class Network:
    """Mutable simulation state shared by the per-epoch operations."""

    config: SimConfig
    field: Field
    # Iterates in node_id order: ids only grow (next_node_id) and each node
    # is inserted once, so insertion order is id order.
    nodes: dict[int, NodeRecord]
    next_node_id: int
    next_gamma: list[int]               # per shard, never reused
    generations_done: list[int]         # per shard
    pending: list[list[bytes]]          # per shard, blocks of the generation filling up
    # (shard, generation) -> its L blocks: encoded on demand into the states
    # a bootstrap reads and the joiner's oracle
    generation_blocks: dict[tuple[int, int], list[bytes]]

    def shard_members(self) -> list[list[NodeRecord]]:
        """Each shard's members in node_id order, from one pass over the nodes."""
        members: list[list[NodeRecord]] = [[] for _ in range(self.config.shards)]
        for n in self.nodes.values():
            members[n.shard].append(n)
        return members

    def shard_of(self, position: float) -> int:
        return math.ceil(position * self.config.shards) - 1

    def alloc_gamma(self, shard: int) -> int:
        value = self.next_gamma[shard]
        if value >= self.field.order:
            raise IntegrityError(f"shard {shard} exhausted the coefficient space of {self.field}")
        self.next_gamma[shard] = value + 1
        return value


def initial_network(config: SimConfig) -> Network:
    """Exactly n_S nodes per shard; malicious ids spread round-robin."""
    rng = random.Random(f"{config.seed}:placement")
    field = parse_field(config.field_spec)
    if field.order < config.n_s:
        raise ValueError(
            f"{field} cannot provide n_S = {config.n_s} distinct coefficients per shard"
        )
    m = config.shards
    net = Network(
        config=config,
        field=field,
        nodes={},
        next_node_id=config.total_nodes,
        next_gamma=[0] * m,
        generations_done=[0] * m,
        pending=[[] for _ in range(m)],
        generation_blocks={},
    )
    for node_id in range(config.total_nodes):
        shard = node_id % m
        position = (shard + 1.0 - rng.random()) / m  # uniform in (shard/m, (shard+1)/m]
        net.nodes[node_id] = NodeRecord(
            node_id=node_id,
            position=position,
            shard=shard,
            gamma=net.alloc_gamma(shard),
            malicious=node_id < config.malicious,
        )
    return net


def _draw_position(net: Network, rng: random.Random, node: NodeRecord) -> float:
    """Uniform in (0, 1]; capped malicious nodes redraw out of full shards."""
    if not (net.config.cap_malicious_per_shard and node.malicious):
        return 1.0 - rng.random()
    counts = [0] * net.config.shards
    for other in net.nodes.values():
        if other.malicious and other.node_id != node.node_id:
            counts[other.shard] += 1
    # The node's own shard stays below the cap without it, so this terminates.
    for _ in range(100_000):
        position = 1.0 - rng.random()
        if counts[net.shard_of(position)] < net.config.p:
            return position
    raise IntegrityError("could not place a malicious node under the per-shard cap")


def cuckoo_join(net: Network, node: NodeRecord, rng: random.Random) -> JoinResult:
    """Place a joining node and displace everyone in the surrounding interval.

    The joiner lands uniformly in (0, 1]; all nodes within eps/2 of its
    position are re-drawn uniformly over (0, 1] (one re-draw, no cascade).
    Displaced nodes that land in a new shard drop their stored state and
    receive a fresh coefficient there; bootstrapping them is the caller's
    job.
    """
    eps = net.config.cuckoo_eps
    node.position = _draw_position(net, rng, node)
    node.shard = net.shard_of(node.position)
    half = eps / 2.0
    displaced_nodes = []
    if eps > 0.0:
        displaced_nodes = [rec for rec in net.nodes.values()
                           if abs(rec.position - node.position) <= half]
    node.gamma = net.alloc_gamma(node.shard)
    net.nodes[node.node_id] = node
    displaced = []
    for rec in displaced_nodes:
        old_shard = rec.shard
        rec.position = _draw_position(net, rng, rec)
        rec.shard = net.shard_of(rec.position)
        if rec.shard != old_shard:
            rec.states.clear()
            rec.gamma = net.alloc_gamma(rec.shard)
        displaced.append((rec.node_id, old_shard, rec.shard))
    return JoinResult(node.node_id, node.shard, tuple(displaced))


def epoch_reconfigure(
    net: Network,
    epoch: int,
    rng: random.Random,
    joins: int = 0,
    leaves: int = 0,
) -> tuple[ReferenceBlock, ChurnSummary]:
    """Apply one epoch of churn and emit the reference block.

    Raises ShardUnderflowError as soon as any shard drops below alpha + 2p
    members: checked after each leave and after the joins.  Every epoch ends
    at or above the floor, and a leave shrinks only the victim's shard, so the
    shard named is the one that fell.  The floor does not promise a repair: a
    bootstrap needs alpha + 2p holders of the generation other than the
    joiner, and cuckoo displacement can leave a shard that passes the floor
    short of them, even with no malicious node; _bootstrap_one raises
    ShardUnderflowError then.
    """
    floor = net.config.params.repair_degree
    randomness = rng.getrandbits(64)

    def check_floor():
        for shard, members in enumerate(net.shard_members()):
            if len(members) < floor:
                raise ShardUnderflowError(
                    f"shard {shard} dropped to {len(members)} < alpha + 2p = {floor}"
                )

    left = []
    for _ in range(leaves):
        victim_id = rng.choice(list(net.nodes))
        del net.nodes[victim_id]
        left.append(victim_id)
        check_floor()

    joined = []
    for _ in range(joins):
        node = NodeRecord(
            node_id=net.next_node_id, position=0.0, shard=-1, gamma=-1, malicious=False
        )
        net.next_node_id += 1
        joined.append(cuckoo_join(net, node, rng))
    check_floor()

    # Network.alloc_gamma never hands a shard's coefficient out twice, so the
    # gammas of a shard's entries are distinct.
    entries = tuple((n.node_id, n.shard, n.gamma) for n in net.nodes.values())
    block = ReferenceBlock(epoch, randomness, entries)
    return block, ChurnSummary(tuple(joined), tuple(left))


def adversary_corrupt(
    share: codec.RepairShare, strategy: str, rng: random.Random
) -> codec.RepairShare:
    """Corrupt a repair share under one of the modeled strategies.

    Colluding helpers that seed rng identically produce evaluations of the
    same wrong polynomial under 'consistent-wrong-polynomial'.
    """
    f, q, z, original = share.field, share.field.order, share.z, share.payload
    if strategy == "zero-out":
        symbols = np.zeros(z, np.uint16)
    elif strategy == "flip-random-symbols":
        while True:
            positions = rng.sample(range(z), rng.randint(1, z))
            symbols = original.copy()
            symbols[positions] = [rng.randrange(q) for _ in positions]
            if not np.array_equal(symbols, original):
                break
    elif strategy == "consistent-wrong-polynomial":
        # Row s holds the alpha coefficients of stripe s's wrong polynomial.
        coeffs = np.array([rng.randrange(q) for _ in range(z * share.alpha)], np.int64)
        coeffs = coeffs.reshape(z, share.alpha)
        (symbols,) = f.matmul(f.vandermonde([share.gamma], share.alpha), coeffs.T)
    else:
        raise ValueError(f"unknown corruption strategy {strategy!r}")
    return replace(share, symbols=symbols)


@dataclass(frozen=True)
class BootstrapEvent:
    epoch: int
    node_id: int
    shard: int
    generation: int
    ok: bool
    corrupted_shares: int
    payload_bytes: int
    header_bytes: int


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    nodes: int
    shard_sizes: tuple[int, ...]
    shard_malicious: tuple[int, ...]
    joins: int
    leaves: int
    displaced: int
    shard_moves: int
    bootstraps_attempted: int
    bootstraps_succeeded: int
    bootstraps_failed: int
    bootstrap_payload_bytes: int
    bootstrap_header_bytes: int
    generations_done: tuple[int, ...]
    storage_total_min: int
    storage_total_max: int
    expected_storage_per_node: tuple[int, ...]  # per shard, payload + headers
    expected_bootstrap_payload_per_generation: int
    balance_ratio: float  # max/min shard size


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    epochs: tuple[EpochStats, ...]
    bootstrap_events: tuple[BootstrapEvent, ...]
    total_joins: int
    total_leaves: int
    total_bootstraps: int
    total_bootstrap_failures: int
    metrics: analytics.MetricsReport


def _bootstrap_one(
    net: Network,
    members: list[NodeRecord],
    rec: NodeRecord,
    generation: int,
    epoch: int,
    helper_rng: random.Random,
) -> BootstrapEvent:
    """Bootstrap rec's state of generation from helpers among members, rec's shard."""
    cfg = net.config
    need = cfg.params.repair_degree
    pool = [n for n in members if n.node_id != rec.node_id and generation in n.states]
    if len(pool) < need:
        raise ShardUnderflowError(
            f"shard {rec.shard} lacks alpha + 2p = {need} helpers holding generation {generation}"
        )
    helpers = helper_rng.sample(pool, need)
    # One encode for the helpers read for the first time and, last, the oracle.
    unread = [h for h in helpers if h.states[generation] is None]
    *first_reads, expected = codec.encode_nodes(
        net.generation_blocks[(rec.shard, generation)],
        [h.gamma for h in unread] + [rec.gamma],
        cfg.params,
        net.field,
        generation=generation,
        block_size=cfg.block_size,
    )
    for helper, state in zip(unread, first_reads):
        helper.states[generation] = state
    event_seed = f"{cfg.seed}:adversary:{epoch}:{rec.shard}:{rec.node_id}:{generation}"
    shares = []
    corrupted = 0
    for helper in helpers:
        share = codec.serve_repair(helper.states[generation], rec.gamma)
        if helper.malicious:
            corrupted += 1
            share = adversary_corrupt(share, cfg.strategy, random.Random(event_seed))
        shares.append(share)
    payload = sum(s.payload_bytes() for s in shares)
    headers = sum(s.header_bytes() for s in shares)
    try:
        state = codec.bootstrap_node(shares, rec.gamma, cfg.p)
    except DecodeFailure:
        state = None
    # A bootstrap is ok when it rebuilds the directly encoded state.  The file
    # bytes are a function of the fields, so object equality is byte equality.
    ok = state is not None and state == expected
    # Within the error budget a bootstrap must succeed; beyond it, a decode
    # failure and a wrong codeword are both a failed bootstrap.
    if not ok and corrupted <= cfg.p:
        raise IntegrityError(
            f"bootstrap of node {rec.node_id} failed with only {corrupted} <= p corrupt shares"
        )
    if ok:
        rec.states[generation] = state
    return BootstrapEvent(
        epoch, rec.node_id, rec.shard, generation, ok, corrupted, payload, headers
    )


def run_simulation(config: SimConfig) -> SimReport:
    """Run the configured number of epochs; fully deterministic per seed."""
    net = initial_network(config)
    churn_rng = random.Random(f"{config.seed}:churn")
    payload_rng = random.Random(f"{config.seed}:payload")
    helper_rng = random.Random(f"{config.seed}:helpers")
    l_blocks = config.generation_blocks
    sb = codec.stored_symbol_bytes(net.field)
    z = codec.symbols_per_block(net.field, config.block_size)
    share_payload = z * sb
    state_bytes = config.alpha * share_payload + codec.state_header_size(l_blocks)

    epoch_stats = []
    events: list[BootstrapEvent] = []

    for epoch in range(config.epochs):
        ref, churn = epoch_reconfigure(
            net,
            epoch,
            churn_rng,
            joins=config.joins_per_epoch,
            leaves=config.leaves_per_epoch,
        )
        # Membership stays fixed for the rest of the epoch.
        members = net.shard_members()
        displaced = sum(len(j.displaced) for j in churn.joined)
        shard_moves = sum(
            1 for j in churn.joined for _, old, new in j.displaced if old != new
        )

        # A node displaced by several joins in one epoch bootstraps once,
        # at its final shard.
        to_bootstrap = list(
            dict.fromkeys(nid for join in churn.joined for nid in join.needs_bootstrap)
        )
        epoch_events: list[BootstrapEvent] = []
        for node_id in to_bootstrap:
            rec = net.nodes[node_id]
            for generation in range(net.generations_done[rec.shard]):
                epoch_events.append(
                    _bootstrap_one(net, members[rec.shard], rec, generation, epoch, helper_rng)
                )

        for shard in range(config.shards):
            for _ in range(config.blocks_per_epoch):
                net.pending[shard].append(payload_rng.randbytes(config.block_size))
                if len(net.pending[shard]) == l_blocks:
                    generation = net.generations_done[shard]
                    for member in members[shard]:
                        member.states[generation] = None
                    net.generation_blocks[(shard, generation)] = net.pending[shard]
                    net.generations_done[shard] += 1
                    net.pending[shard] = []

        sizes = [len(shard) for shard in members]
        balance = max(sizes) / min(sizes)
        if config.balance_ratio_limit > 0.0 and balance > config.balance_ratio_limit:
            raise IntegrityError(
                f"epoch {epoch}: shard balance ratio {balance:.3f} exceeds "
                f"limit {config.balance_ratio_limit}"
            )
        stored = [len(n.states) * state_bytes for n in net.nodes.values()]
        epoch_stats.append(
            EpochStats(
                epoch=epoch,
                nodes=len(net.nodes),
                shard_sizes=tuple(sizes),
                shard_malicious=tuple(sum(n.malicious for n in shard) for shard in members),
                joins=len(churn.joined),
                leaves=len(churn.left),
                displaced=displaced,
                shard_moves=shard_moves,
                bootstraps_attempted=len(epoch_events),
                bootstraps_succeeded=sum(1 for e in epoch_events if e.ok),
                bootstraps_failed=sum(1 for e in epoch_events if not e.ok),
                bootstrap_payload_bytes=sum(e.payload_bytes for e in epoch_events),
                bootstrap_header_bytes=sum(e.header_bytes for e in epoch_events),
                generations_done=tuple(net.generations_done),
                storage_total_min=min(stored),
                storage_total_max=max(stored),
                expected_storage_per_node=tuple(
                    gens * state_bytes for gens in net.generations_done
                ),
                expected_bootstrap_payload_per_generation=config.params.repair_degree
                * share_payload,
                balance_ratio=balance,
            )
        )
        events.extend(epoch_events)

    metrics = analytics.comparison_report(
        analytics.ProtocolParams(
            protocol=analytics.SRB,
            n_s=config.n_s,
            total_blocks=l_blocks,
            alpha=config.alpha,
            k=config.k,
            p=config.p,
            block_size=config.block_size,
            total_nodes=config.total_nodes,
            shards=config.shards,
            malicious=config.malicious,
        )
    )
    return SimReport(
        config=config,
        epochs=tuple(epoch_stats),
        bootstrap_events=tuple(events),
        total_joins=sum(st.joins for st in epoch_stats),
        total_leaves=sum(st.leaves for st in epoch_stats),
        total_bootstraps=len(events),
        total_bootstrap_failures=sum(1 for e in events if not e.ok),
        metrics=metrics,
    )


def _report_value(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else repr(value)


def render_report(report: SimReport) -> str:
    """Structured text: config echo, one record per epoch, totals, comparison."""
    lines = ["# shard simulation report", "report_version=1", ""]
    lines.append(report.config.to_text().rstrip("\n"))
    lines.append("")
    for st in report.epochs:
        pairs = (f"{f.name}={_report_value(getattr(st, f.name))}" for f in fields(st))
        lines.append(" ".join(pairs))
    lines.append("")
    lines.append(
        f"totals: joins={report.total_joins} leaves={report.total_leaves} "
        f"bootstraps={report.total_bootstraps} failures={report.total_bootstrap_failures}"
    )
    lines.append("")
    lines.append(analytics.render_metrics(report.metrics).rstrip("\n"))
    return "\n".join(lines) + "\n"
