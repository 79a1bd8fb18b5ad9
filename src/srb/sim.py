"""Round-based shard protocol simulator.

Models a sharded network storing coded blocks: Network.nodes is the
membership a trusted reference committee publishes each epoch (shard
assignment and encoder coefficients); the committee's epoch randomness is
drawn but not read.  Joins follow the cuckoo rule, blocks arrive at a
fixed per-epoch rate and each shard keeps every block that has arrived in
one list, Network.blocks.  Generation g of a shard is the window
blocks[g*L:(g+1)*L]; it completes on the arrival that fills it, and all of
the shard's members then hold it.
Each joining or displaced node obtains its coded state by bootstrap-as-repair
from alpha + 2p helpers.  Malicious helpers corrupt their shares under a
configurable strategy.

No member's state is kept: a node records only the generations it holds.
M is symmetric, so the share helper h sends to joiner t, psi(h)^T M psi(t),
is psi(h)^T times t's own coded state.  Each bootstrap therefore needs only
the joiner's state, its oracle: the state the bootstrap is judged against,
from which codec.shares_from_target makes every honest payload in one
product.  A malicious helper's row is replaced by the payload of
adversary_corrupt, and codec.bootstrap_payloads decodes the rows as one
array; no share object is built for an honest helper.  The oracles are
encoded one epoch at a time: the first bootstrap of a (shard, generation)
encodes the oracles of every node of that shard still to bootstrap, in one
codec.encode_nodes call, and each is dropped once its bootstrap has used
it, so at most the shard's unserved joiners times its generations are held
at once, each alpha x Z symbols.  Encoding is deterministic and draws no
random number, so the shares and the report are those of serving every
helper's own encoded state.

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
_BOOLS = {"true": True, "false": False}


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
        types = {"config_version": int, **get_type_hints(cls)}
        seen: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in seen:
                raise ValueError(f"line {lineno}: repeated config key {key!r}")
            if key not in types:
                raise ValueError(f"line {lineno}: unknown config key {key!r}")
            typ = types[key]
            try:
                seen[key] = _BOOLS[value.lower()] if typ is bool else typ(value)
            except (KeyError, ValueError):
                kind = "true or false" if typ is bool else typ.__name__
                raise ValueError(f"line {lineno}: {key} must be {kind}, got {value!r}") from None
        if seen.pop("config_version", None) != CONFIG_VERSION:
            raise ValueError(f"config_version must be {CONFIG_VERSION}")
        missing = {"total_nodes", "shards"} - seen.keys()
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**seen)  # type: ignore[arg-type]


@dataclass
class NodeRecord:
    """One live node: overlay position, shard, coefficient, stored generations.

    generations is the set of generations the node holds.  Their states are
    not kept: a bootstrap makes its helpers' shares from the joiner's state
    (see the module docstring), and a generation's blocks are a window of
    Network.blocks.  Every state of a run is the same size, a state file's
    header_bytes() + payload_bytes().
    """

    node_id: int
    position: float
    shard: int
    gamma: int
    malicious: bool
    generations: set[int] = dc_field(default_factory=set)


@dataclass
class Network:
    """Mutable simulation state shared by the per-epoch operations.

    blocks[s] is every block shard s has received, in arrival order.
    Generation g of shard s is the window blocks[s][g*L:(g+1)*L], so the
    shard has completed len(blocks[s]) // L generations, and the blocks past
    the last full window belong to the generation still filling up.
    """

    config: SimConfig
    field: Field
    # Iterates in node_id order: ids only grow (next_node_id) and each node
    # is inserted once, so insertion order is id order.
    nodes: dict[int, NodeRecord]
    next_node_id: int
    next_gamma: list[int]               # per shard, never reused
    blocks: list[list[bytes]]           # per shard, every block in arrival order

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
        blocks=[[] for _ in range(m)],
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


def cuckoo_join(
    net: Network, node: NodeRecord, rng: random.Random
) -> list[tuple[int, int, int]]:
    """Place a joining node and displace everyone in the surrounding interval.

    The joiner lands uniformly in (0, 1]; all nodes within eps/2 of its
    position are re-drawn uniformly over (0, 1] (one re-draw, no cascade).
    Displaced nodes that land in a new shard drop their stored state and
    receive a fresh coefficient there; bootstrapping them is the caller's
    job.  Returns each displacement as (node_id, old_shard, new_shard).
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
            rec.generations.clear()
            rec.gamma = net.alloc_gamma(rec.shard)
        displaced.append((rec.node_id, old_shard, rec.shard))
    return displaced


def epoch_reconfigure(
    net: Network, rng: random.Random, joins: int = 0, leaves: int = 0
) -> tuple[list[int], int, int]:
    """Apply one epoch of churn: the leaves, then the cuckoo joins.

    Returns the nodes to bootstrap, the number of displacements and the
    number of shard moves.  The nodes to bootstrap are each joiner, then the
    nodes its join moved to another shard, each listed once at its first
    appearance: a node displaced by several joins of the epoch bootstraps
    once, at its final shard.

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
    rng.getrandbits(64)  # committee epoch randomness, unread; every report depends on this draw

    def check_floor():
        for shard, members in enumerate(net.shard_members()):
            if len(members) < floor:
                raise ShardUnderflowError(
                    f"shard {shard} dropped to {len(members)} < alpha + 2p = {floor}"
                )

    for _ in range(leaves):
        del net.nodes[rng.choice(list(net.nodes))]
        check_floor()

    to_bootstrap: dict[int, None] = {}  # insertion-ordered, each node once
    displaced = moves = 0
    for _ in range(joins):
        node = NodeRecord(
            node_id=net.next_node_id, position=0.0, shard=-1, gamma=-1, malicious=False
        )
        net.next_node_id += 1
        to_bootstrap[node.node_id] = None
        for node_id, old, new in cuckoo_join(net, node, rng):
            displaced += 1
            if old != new:
                moves += 1
                to_bootstrap[node_id] = None
    check_floor()
    return list(to_bootstrap), displaced, moves


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
    expected: codec.CodedNodeState,
    epoch: int,
    helper_rng: random.Random,
) -> BootstrapEvent:
    """Bootstrap rec's state expected from helpers among members, rec's shard.

    expected is rec's directly encoded state of its generation: the oracle
    the bootstrap is judged against, and the state every honest share comes
    from.
    """
    cfg, generation = net.config, expected.generation
    need = cfg.params.repair_degree
    # rec is never in it: a joiner starts empty, a mover's generations were
    # cleared, and each (node, generation) bootstraps once an epoch
    pool = [n for n in members if generation in n.generations]
    if len(pool) < need:
        raise ShardUnderflowError(
            f"shard {rec.shard} lacks alpha + 2p = {need} helpers holding generation {generation}"
        )
    helpers = helper_rng.sample(pool, need)
    gammas = [h.gamma for h in helpers]
    payloads = codec.shares_from_target(expected, gammas)
    event_seed = f"{cfg.seed}:adversary:{epoch}:{rec.shard}:{rec.node_id}:{generation}"
    corrupted = 0
    for row, helper in enumerate(helpers):
        if helper.malicious:
            corrupted += 1
            honest = codec.RepairShare._derived(expected, helper.gamma, payloads[row], rec.gamma)
            payloads[row] = adversary_corrupt(honest, cfg.strategy, random.Random(event_seed)).payload
    try:
        state = codec.bootstrap_payloads(expected, rec.gamma, gammas, payloads, cfg.p)
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
        rec.generations.add(generation)
    payload = need * expected.z * codec.stored_symbol_bytes(net.field)
    headers = need * codec.share_header_size(cfg.generation_blocks)
    return BootstrapEvent(
        epoch, rec.node_id, rec.shard, generation, ok, corrupted, payload, headers
    )


def run_simulation(config: SimConfig) -> SimReport:
    """Run the configured number of epochs; fully deterministic per seed.

    Each epoch's bootstraps run in to_bootstrap order, each node through
    every generation its shard holds.  The first bootstrap of a (shard,
    generation) encodes the oracles of all the shard's nodes to bootstrap in
    one codec.encode_nodes call, and each oracle is dropped once its
    bootstrap has used it: at most the shard's unserved joiners times its
    generations are held at once, each alpha x Z symbols.
    """
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
        to_bootstrap, displaced, shard_moves = epoch_reconfigure(
            net, churn_rng, joins=config.joins_per_epoch, leaves=config.leaves_per_epoch
        )
        # Membership stays fixed for the rest of the epoch.
        members = net.shard_members()
        joiners: dict[int, list[NodeRecord]] = {}  # per shard, in to_bootstrap order
        for node_id in to_bootstrap:
            joiners.setdefault(net.nodes[node_id].shard, []).append(net.nodes[node_id])
        oracles: dict[tuple[int, int], codec.CodedNodeState] = {}  # (node_id, generation)
        epoch_events: list[BootstrapEvent] = []
        for node_id in to_bootstrap:
            rec = net.nodes[node_id]
            arrived = net.blocks[rec.shard]
            for generation in range(len(arrived) // l_blocks):
                if (node_id, generation) not in oracles:  # the shard's first bootstrap of it
                    group = joiners[rec.shard]
                    states = codec.encode_nodes(
                        arrived[generation * l_blocks : (generation + 1) * l_blocks],
                        [j.gamma for j in group], config.params, net.field,
                        generation=generation, block_size=config.block_size,
                    )
                    oracles.update(((j.node_id, generation), st) for j, st in zip(group, states))
                expected = oracles.pop((node_id, generation))
                epoch_events.append(
                    _bootstrap_one(net, members[rec.shard], rec, expected, epoch, helper_rng)
                )

        for arrived, shard_members in zip(net.blocks, members):
            for _ in range(config.blocks_per_epoch):
                arrived.append(payload_rng.randbytes(config.block_size))
                if len(arrived) % l_blocks == 0:
                    for member in shard_members:
                        member.generations.add(len(arrived) // l_blocks - 1)
        done = tuple(len(arrived) // l_blocks for arrived in net.blocks)

        sizes = [len(shard) for shard in members]
        balance = max(sizes) / min(sizes)
        if config.balance_ratio_limit > 0.0 and balance > config.balance_ratio_limit:
            raise IntegrityError(
                f"epoch {epoch}: shard balance ratio {balance:.3f} exceeds "
                f"limit {config.balance_ratio_limit}"
            )
        stored = [len(n.generations) * state_bytes for n in net.nodes.values()]
        epoch_stats.append(
            EpochStats(
                epoch=epoch,
                nodes=len(net.nodes),
                shard_sizes=tuple(sizes),
                shard_malicious=tuple(sum(n.malicious for n in shard) for shard in members),
                joins=config.joins_per_epoch,
                leaves=config.leaves_per_epoch,
                displaced=displaced,
                shard_moves=shard_moves,
                bootstraps_attempted=len(epoch_events),
                bootstraps_succeeded=sum(1 for e in epoch_events if e.ok),
                bootstraps_failed=sum(1 for e in epoch_events if not e.ok),
                bootstrap_payload_bytes=sum(e.payload_bytes for e in epoch_events),
                bootstrap_header_bytes=sum(e.header_bytes for e in epoch_events),
                generations_done=done,
                storage_total_min=min(stored),
                storage_total_max=max(stored),
                expected_storage_per_node=tuple(gens * state_bytes for gens in done),
                expected_bootstrap_payload_per_generation=config.params.repair_degree
                * share_payload,
                balance_ratio=balance,
            )
        )
        events.extend(epoch_events)

    metrics = analytics.comparison_report(
        analytics.ProtocolParams(
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
