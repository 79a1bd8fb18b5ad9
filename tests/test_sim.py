import random
from dataclasses import replace
from pathlib import Path

import pytest

from field_helpers import poly_eval
from test_sim_sweep import served_share
from srb import codec, sim
from srb.errors import DecodeFailure, IntegrityError, ShardUnderflowError
from srb.field import binary_field, parse_field
from srb.mbr import MbrParams
from srb.sim import (
    STRATEGIES,
    NodeRecord,
    SimConfig,
    _draw_position,
    adversary_corrupt,
    cuckoo_join,
    epoch_reconfigure,
    initial_network,
    render_report,
    run_simulation,
)


def small_config(**kw):
    base = dict(
        total_nodes=12,
        shards=2,
        malicious=0,
        k=2,
        alpha=3,
        p=0,
        block_size=32,
        blocks_per_epoch=5,
        joins_per_epoch=0,
        leaves_per_epoch=0,
        cuckoo_eps=0.02,
        seed=1,
        epochs=2,
    )
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(total_nodes=13)  # not a multiple of shards
    with pytest.raises(ValueError):
        small_config(alpha=6, k=2)  # alpha + 2p >= n_S
    with pytest.raises(ValueError):
        small_config(malicious=1)  # cap: T > m * p
    with pytest.raises(ValueError):
        small_config(strategy="nonsense")
    with pytest.raises(ValueError):
        small_config(cuckoo_eps=1.0)
    with pytest.raises(ValueError, match="need at least one shard"):
        small_config(shards=0)
    with pytest.raises(ValueError, match="malicious count out of range"):
        small_config(malicious=13, cap_malicious_per_shard=False)
    with pytest.raises(ValueError, match="epochs must be >= 0"):
        small_config(epochs=-1)
    with pytest.raises(ValueError, match="per-epoch rates must be >= 0"):
        small_config(leaves_per_epoch=-1)
    small_config(malicious=1, cap_malicious_per_shard=False)


def test_config_rejects_negative_p():
    # with the cap on, p = -1 must not be reported as a malicious cap breach
    for cap in (False, True):
        with pytest.raises(ValueError, match="p must be >= 0"):
            SimConfig(total_nodes=20, shards=1, p=-1, cap_malicious_per_shard=cap)


def test_config_text_round_trip():
    cfg = small_config(malicious=2, p=1, strategy="zero-out", cap_malicious_per_shard=True)
    text = cfg.to_text()
    assert "config_version=1" in text
    assert SimConfig.from_text(text) == cfg
    with pytest.raises(ValueError):
        SimConfig.from_text(text.replace("config_version=1", "config_version=2"))
    with pytest.raises(ValueError):
        SimConfig.from_text(text + "bogus_key=1\n")
    with pytest.raises(ValueError):
        SimConfig.from_text("total_nodes=12\n")  # missing version and shards
    with pytest.raises(ValueError, match=r"missing config keys: \['total_nodes'\]"):
        SimConfig.from_text("config_version=1\nshards=2\n")
    commented = "# comment line\n" + text
    assert SimConfig.from_text(commented) == cfg


def test_field_must_cover_shard_size():
    cfg = small_config(total_nodes=28, shards=2, field_spec="prime:13")  # n_S = 14 > 13
    with pytest.raises(ValueError):
        initial_network(cfg)


def test_initial_network_balanced_and_positions_match_shards():
    cfg = small_config(malicious=2, p=1, cap_malicious_per_shard=True)
    net = initial_network(cfg)
    members = net.shard_members()
    assert [len(m) for m in members] == [6, 6]
    assert [sum(n.malicious for n in m) for m in members] == [1, 1]
    for rec in net.nodes.values():
        assert 0.0 < rec.position <= 1.0
        assert net.shard_of(rec.position) == rec.shard
    gammas = {}
    for rec in net.nodes.values():
        assert rec.gamma not in gammas.get(rec.shard, set())
        gammas.setdefault(rec.shard, set()).add(rec.gamma)


def test_cuckoo_join_empty_network():
    cfg = SimConfig(total_nodes=4, shards=1, k=1, alpha=2, p=0, epochs=0, seed=3)
    net = initial_network(cfg)
    net.nodes.clear()
    node = NodeRecord(node_id=99, position=0.0, shard=-1, gamma=-1, malicious=False)
    assert cuckoo_join(net, node, random.Random(0)) == []
    assert net.nodes[99].shard == 0


def test_cuckoo_join_eps_zero_moves_nobody():
    cfg = small_config(cuckoo_eps=0.0)
    net = initial_network(cfg)
    before = {nid: (r.position, r.shard) for nid, r in net.nodes.items()}
    rng = random.Random(7)
    for i in range(5):
        node = NodeRecord(node_id=100 + i, position=0.0, shard=-1, gamma=-1, malicious=False)
        assert cuckoo_join(net, node, rng) == []
    for nid, (pos, shard) in before.items():
        assert net.nodes[nid].position == pos and net.nodes[nid].shard == shard


def test_cuckoo_join_seeded_golden_run():
    """Frozen membership delta for N=16, m=4, eps=0.05, one join."""
    cfg = SimConfig(
        total_nodes=16, shards=4, k=2, alpha=3, p=0, cuckoo_eps=0.05, seed=42, epochs=1
    )
    net = initial_network(cfg)
    rng = random.Random("42:churn")
    node = NodeRecord(node_id=16, position=0.0, shard=-1, gamma=-1, malicious=False)
    assert cuckoo_join(net, node, rng) == [(2, 2, 3)]
    assert net.nodes[16].shard == 2
    assert round(net.nodes[16].position, 6) == 0.578688
    assert net.nodes[16].gamma == 4
    assert [len(m) for m in net.shard_members()] == [4, 4, 4, 5]


def test_displaced_node_changing_shard_drops_state_and_gets_fresh_gamma():
    cfg = small_config(cuckoo_eps=0.9, joins_per_epoch=0)
    net = initial_network(cfg)
    rng = random.Random(5)
    victim = net.nodes[0]
    victim.generations.update({0, 1})
    old_gamma = victim.gamma
    moved = False
    for i in range(40):
        node = NodeRecord(node_id=100 + i, position=0.0, shard=-1, gamma=-1, malicious=False)
        for nid, old, new in cuckoo_join(net, node, rng):
            if nid == 0 and old != new:
                moved = True
                break
        if moved:
            break
    assert moved
    assert net.nodes[0].generations == set()
    assert net.nodes[0].gamma != old_gamma or net.nodes[0].shard != 0


def test_epoch_reconfigure_zero_churn_identity():
    cfg = small_config()
    net = initial_network(cfg)
    before = {(nid, r.shard, r.gamma) for nid, r in net.nodes.items()}
    rng = random.Random(11)
    assert epoch_reconfigure(net, rng) == ([], 0, 0)
    assert {(nid, r.shard, r.gamma) for nid, r in net.nodes.items()} == before
    assert len(net.nodes) == cfg.total_nodes
    # the committee's epoch randomness is the one draw
    drawn = random.Random(11)
    drawn.getrandbits(64)
    assert rng.getstate() == drawn.getstate()


def test_epoch_reconfigure_bootstrap_order_matches_a_replay_of_its_joins():
    """Each joiner, then the nodes its join moved to another shard, each node
    once at its first appearance; then every displacement, and the moves.

    The replay runs cuckoo_join on a second network from the same seed.  Over
    these epochs some node is moved by two joins of one epoch, and some
    displacement stays within its shard.
    """
    cfg = small_config(total_nodes=24, shards=3, joins_per_epoch=3, cuckoo_eps=0.2)
    net, replay = initial_network(cfg), initial_network(cfg)
    rng, replay_rng = random.Random(4), random.Random(4)
    moved_twice = stayed = False
    for _ in range(3):
        got = epoch_reconfigure(net, rng, joins=cfg.joins_per_epoch)
        replay_rng.getrandbits(64)
        listed, displacements = [], []
        for _ in range(cfg.joins_per_epoch):
            node = NodeRecord(
                node_id=replay.next_node_id, position=0.0, shard=-1, gamma=-1, malicious=False
            )
            replay.next_node_id += 1
            moved = cuckoo_join(replay, node, replay_rng)
            listed += [node.node_id] + [nid for nid, old, new in moved if old != new]
            displacements += moved
        order = [nid for i, nid in enumerate(listed) if nid not in listed[:i]]
        movers = [nid for nid, old, new in displacements if old != new]
        assert got == (order, len(displacements), len(movers))
        assert {nid: (r.position, r.shard, r.gamma) for nid, r in net.nodes.items()} == {
            nid: (r.position, r.shard, r.gamma) for nid, r in replay.nodes.items()
        }
        moved_twice |= len(set(movers)) < len(movers)
        stayed |= len(movers) < len(displacements)
    assert moved_twice and stayed


@pytest.mark.parametrize(
    "kw, seed, epochs",
    [
        (dict(joins_per_epoch=2), 13, 5),
        (dict(total_nodes=24, shards=2, joins_per_epoch=3, leaves_per_epoch=2, cuckoo_eps=0.2),
         24, 12),
        (dict(total_nodes=40, shards=4, joins_per_epoch=2, leaves_per_epoch=1, cuckoo_eps=0.3),
         40, 12),
        (dict(total_nodes=45, shards=3, malicious=3, p=1, joins_per_epoch=2, leaves_per_epoch=1,
              cuckoo_eps=0.25), 45, 12),
    ],
    ids=["joins-only", "2-shards", "4-shards", "3-shards-capped-malicious"],
)
def test_reference_blocks_never_repeat_a_gamma_within_a_shard(kw, seed, epochs):
    """Through joins, leaves and cuckoo moves, each shard's gammas stay distinct.

    Network.alloc_gamma never hands a shard's coefficient out twice, so
    epoch_reconfigure does not check this itself.
    """
    cfg = small_config(**kw)
    net = initial_network(cfg)
    rng = random.Random(seed)
    moves = leaves = 0
    for _ in range(epochs):
        before = set(net.nodes)
        _, _, shard_moves = epoch_reconfigure(
            net, rng, joins=cfg.joins_per_epoch, leaves=cfg.leaves_per_epoch
        )
        moves += shard_moves
        leaves += len(before - set(net.nodes))
        for shard in range(cfg.shards):
            gammas = [r.gamma for r in net.nodes.values() if r.shard == shard]
            assert len(set(gammas)) == len(gammas)
        # Network.nodes iterates in node_id order
        ids = list(net.nodes)
        assert ids == sorted(ids)
    assert moves and leaves == epochs * cfg.leaves_per_epoch  # the churn under test happened


def test_draw_position_gives_up_after_100000_draws_into_full_shards():
    """A stub RNG whose every draw lands in the shard already holding p liars."""

    class FullShardRng:
        calls = 0

        def random(self):
            self.calls += 1
            return 0.25  # position 0.75: shard 1 of 2

    cfg = small_config(total_nodes=12, shards=2, malicious=2, p=1)
    net = initial_network(cfg)
    assert [net.nodes[i].shard for i in (0, 1)] == [0, 1]  # one liar per shard
    rng = FullShardRng()
    with pytest.raises(
        IntegrityError, match=r"^could not place a malicious node under the per-shard cap$"
    ):
        _draw_position(net, rng, net.nodes[0])
    assert rng.calls == 100_000


def test_epoch_reconfigure_underflow_boundary():
    # single shard at n_S = alpha + 2p + 1: first leave is fine, second breaks
    cfg = SimConfig(
        total_nodes=4, shards=1, k=1, alpha=3, p=0, epochs=1, seed=2, cuckoo_eps=0.0
    )
    net = initial_network(cfg)
    rng = random.Random(17)
    epoch_reconfigure(net, rng, leaves=1)
    with pytest.raises(ShardUnderflowError):
        epoch_reconfigure(net, rng, leaves=1)


def test_epoch_reconfigure_underflow_after_cuckoo_displacement():
    # no leaves: the join's wide eviction interval re-draws most nodes, and
    # shard 0 keeps only two of the alpha + 2p = 3 members a repair needs
    cfg = SimConfig(total_nodes=8, shards=2, k=1, alpha=3, p=0, cuckoo_eps=0.5)
    net = initial_network(cfg)
    with pytest.raises(ShardUnderflowError, match=r"^shard 0 dropped to 2 < alpha \+ 2p = 3$"):
        epoch_reconfigure(net, random.Random(0), joins=1)
    assert [len(m) for m in net.shard_members()] == [2, 7]


def test_adversary_zero_out():
    f = binary_field(16)
    share = codec.RepairShare(
        field=f, k=2, alpha=3, gamma=1, generation=0, block_size=2, z=1,
        pad_lengths=(1,) * 5, target_gamma=9, symbols=(10,),
    )
    got = adversary_corrupt(share, "zero-out", random.Random(0))
    assert got.symbols == (0,)
    assert got.target_gamma == 9 and got.gamma == 1


def test_adversary_flip_always_changes_something():
    f = binary_field(16)
    share = codec.RepairShare(
        field=f, k=2, alpha=3, gamma=1, generation=0, block_size=8, z=4,
        pad_lengths=(8,) * 5, target_gamma=9, symbols=(5, 0, 65535, 17),
    )
    for seed in range(100):
        got = adversary_corrupt(share, "flip-random-symbols", random.Random(seed))
        assert got.symbols != share.symbols


@pytest.mark.parametrize("spec", ["binary:16", "prime:257"])
def test_adversary_flip_random_symbols_matches_scalar_loop(spec):
    """The same draws in the same order give the symbols of the per-symbol loop."""

    def scalar_flip(symbols, q, rng):
        while True:
            out = list(symbols)
            for pos in rng.sample(range(len(out)), rng.randint(1, len(out))):
                out[pos] = rng.randrange(q)
            if out != list(symbols):
                return tuple(out)

    f = parse_field(spec)
    params = MbrParams(2, 3)
    rng = random.Random(spec)
    blocks = [rng.randbytes(24) for _ in range(params.message_length)]
    share = codec.serve_repair(codec.encode_generation(blocks, 1, params, f, block_size=24), 7)
    for seed in range(20):
        got = adversary_corrupt(share, "flip-random-symbols", random.Random(seed))
        assert got.symbols == scalar_flip(share.symbols, f.order, random.Random(seed))
        assert (got.gamma, got.target_gamma) == (share.gamma, share.target_gamma)


def test_adversary_consistent_wrong_polynomial_collusion():
    """Same-seeded colluders evaluate one wrong row; repair still wins at <= p."""
    f = binary_field(16)
    params = MbrParams(2, 3, n=10, p=2)
    rng = random.Random(21)
    blocks = [rng.randbytes(8) for _ in range(params.message_length)]
    states = [
        codec.encode_generation(blocks, g, params, f, block_size=8) for g in range(8)
    ]
    target = 9
    shares = [codec.serve_repair(states[g], target) for g in range(7)]
    evil1 = adversary_corrupt(shares[0], "consistent-wrong-polynomial", random.Random("ev"))
    evil2 = adversary_corrupt(shares[1], "consistent-wrong-polynomial", random.Random("ev"))
    # collusion: both serve evaluations of the same wrong rows per stripe
    coeff_rng = random.Random("ev")
    for s in range(evil1.z):
        wrong = [coeff_rng.randrange(f.order) for _ in range(3)]
        assert evil1.symbols[s] == poly_eval(f, wrong, evil1.gamma)
        assert evil2.symbols[s] == poly_eval(f, wrong, evil2.gamma)
    assert evil1.symbols != shares[0].symbols
    assert evil2.symbols != shares[1].symbols
    got = codec.bootstrap_node([evil1, evil2] + shares[2:], target, p=2)
    direct = codec.encode_generation(blocks, target, params, f, block_size=8)
    assert codec.state_to_bytes(got) == codec.state_to_bytes(direct)


def test_adversary_unknown_strategy():
    f = binary_field(16)
    share = codec.RepairShare(
        field=f, k=2, alpha=3, gamma=1, generation=0, block_size=2, z=1,
        pad_lengths=(1,) * 5, target_gamma=9, symbols=(10,),
    )
    with pytest.raises(ValueError):
        adversary_corrupt(share, "mystery", random.Random(0))


def test_run_simulation_no_adversary_accounting():
    cfg = small_config(joins_per_epoch=1, epochs=4, blocks_per_epoch=5)
    report = run_simulation(cfg)
    assert report.total_bootstrap_failures == 0
    assert report.total_joins == 4
    # with k=2, alpha=3: L = 5, so one generation completes per epoch
    last = report.epochs[-1]
    assert last.generations_done == (4, 4)
    assert last.storage_total_min == last.storage_total_max == last.expected_storage_per_node[0]
    z = 16  # 32-byte blocks over GF(2^16)
    per_state = cfg.alpha * z * 2 + codec.state_header_size(cfg.generation_blocks)
    assert last.expected_storage_per_node[0] == 4 * per_state
    for event in report.bootstrap_events:
        assert event.ok
        assert event.payload_bytes == (cfg.alpha + 2 * cfg.p) * cfg.block_size


def test_run_simulation_with_tolerated_adversary():
    cfg = small_config(
        total_nodes=16,
        shards=1,
        malicious=1,
        p=1,
        k=2,
        alpha=3,
        blocks_per_epoch=5,
        joins_per_epoch=2,
        epochs=4,
        strategy="zero-out",
        seed=5,
    )
    report = run_simulation(cfg)
    assert report.total_bootstraps > 0
    assert report.total_bootstrap_failures == 0
    touched = [e for e in report.bootstrap_events if e.corrupted_shares > 0]
    assert touched, "expected the malicious helper to be sampled at least once"
    for event in report.bootstrap_events:
        assert event.corrupted_shares <= cfg.p


def test_run_simulation_budget_exceeded_reports_failure():
    cfg = small_config(
        total_nodes=12,
        shards=1,
        malicious=2,
        p=1,
        k=2,
        alpha=3,
        blocks_per_epoch=5,
        joins_per_epoch=2,
        epochs=6,
        strategy="zero-out",
        seed=11,
        cap_malicious_per_shard=False,
    )
    report = run_simulation(cfg)
    failed = [e for e in report.bootstrap_events if not e.ok]
    assert failed, "expected some bootstrap to draw both malicious helpers"
    for event in failed:
        assert event.corrupted_shares > cfg.p  # attribution invariant
    succeeded = [e for e in report.bootstrap_events if e.ok]
    assert succeeded


BEYOND_BUDGET_CONFIG = """\
config_version=1
total_nodes=20
shards=1
malicious=15
k=2
alpha=2
p=1
block_size=64
blocks_per_epoch=3
joins_per_epoch=2
strategy=consistent-wrong-polynomial
cap_malicious_per_shard=false
epochs=4
seed=3
"""


def test_run_simulation_beyond_budget_counts_wrong_states_as_failures(monkeypatch):
    """Most helpers collude on one wrong polynomial, so some bootstraps decode
    a valid but wrong codeword: a failed bootstrap, not an invariant breach."""
    returned = []
    bootstrap_payloads = codec.bootstrap_payloads

    def record(head, target_gamma, helper_gammas, payloads, p=0):
        state = None
        try:
            state = bootstrap_payloads(head, target_gamma, helper_gammas, payloads, p)
            return state
        finally:
            returned.append(state)

    monkeypatch.setattr(codec, "bootstrap_payloads", record)
    cfg = SimConfig.from_text(BEYOND_BUDGET_CONFIG)
    report = run_simulation(cfg)
    events = report.bootstrap_events
    assert len(returned) == len(events)
    failed = [e for e in events if not e.ok]
    assert failed and report.total_bootstrap_failures == len(failed)
    for event in failed:
        assert event.corrupted_shares > cfg.p
    wrong = [e for e, state in zip(events, returned) if not e.ok and state is not None]
    assert wrong, "expected a bootstrap that decoded to a wrong state"
    assert render_report(run_simulation(cfg)) == render_report(report)


@pytest.mark.parametrize("lie", ["decode-failure", "wrong-state"])
def test_run_simulation_within_budget_failure_is_integrity_error(monkeypatch, lie):
    """At most p corrupt shares: any bootstrap that does not rebuild the direct
    encoding, by failing or by returning another state, breaks the invariant."""
    bootstrap_payloads = codec.bootstrap_payloads

    def fake(head, target_gamma, helper_gammas, payloads, p=0):
        if lie == "decode-failure":
            raise DecodeFailure("repair failed: error budget exceeded")
        state = bootstrap_payloads(head, target_gamma, helper_gammas, payloads, p)
        blocks = state.payload.copy()
        blocks[0, 0] ^= 1
        return replace(state, blocks=blocks)

    monkeypatch.setattr(codec, "bootstrap_payloads", fake)
    cfg = small_config(
        total_nodes=16,
        shards=1,
        malicious=1,
        p=1,
        k=2,
        alpha=3,
        blocks_per_epoch=5,
        joins_per_epoch=2,
        epochs=4,
        strategy="zero-out",
        seed=5,
    )
    with pytest.raises(IntegrityError, match=r"^bootstrap of node \d+ failed with only [01] <= p"):
        run_simulation(cfg)


def test_render_report_golden_text():
    """Pins the report bytes: a failed bootstrap, unequal storage, every config key."""
    cfg = small_config(
        total_nodes=12,
        shards=1,
        malicious=2,
        p=1,
        k=2,
        alpha=3,
        blocks_per_epoch=5,
        joins_per_epoch=2,
        epochs=6,
        strategy="zero-out",
        seed=11,
        cap_malicious_per_shard=False,
    )
    golden = Path(__file__).with_name("data") / "sim_report_budget_exceeded.txt"
    assert render_report(run_simulation(cfg)) == golden.read_text()


def replay(name):
    """The report run_simulation renders for data/sim_<name>.cfg, and its golden
    data/sim_report_<name>.txt."""
    data = Path(__file__).with_name("data")
    cfg = SimConfig.from_text((data / f"sim_{name}.cfg").read_text())
    return render_report(run_simulation(cfg)), (data / f"sim_report_{name}.txt").read_text()


def test_render_report_golden_paper_geometry():
    """The paper's worked-example code (k=30, alpha=50, L=1065) at 1,600 nodes in 16 shards."""
    got, golden = replay("paper_1600")
    assert got == golden


@pytest.mark.parametrize("name", ["acceptance_6", "churn_liar"])
def test_render_report_golden_lazy_states(name):
    """Reports of eagerly encoded states, replayed with states encoded on first read.

    acceptance_6 is the acceptance-6 config; churn_liar has leaves, cuckoo_eps=0.3
    and one liar, and serves five generations of each shard.  Both displace nodes
    still holding unread states into another shard, and both have bootstrapped
    nodes serve later bootstraps.
    """
    got, golden = replay(name)
    assert got == golden


def test_simulator_serves_stored_states_without_files(monkeypatch):
    """Nodes keep their checked states: no state or share is serialized or parsed."""

    def refuse(*args):
        raise AssertionError("the simulator went through a file")

    for name in ("state_to_bytes", "state_from_bytes", "share_to_bytes", "share_from_bytes"):
        monkeypatch.setattr(codec, name, refuse)
    cfg = small_config(total_nodes=16, shards=2, malicious=2, p=1, joins_per_epoch=2,
                       epochs=4, strategy="flip-random-symbols", seed=6)
    assert run_simulation(cfg).total_bootstraps > 0


def test_run_simulation_deterministic():
    cfg = small_config(joins_per_epoch=1, epochs=3, malicious=0)
    a = render_report(run_simulation(cfg))
    b = render_report(run_simulation(cfg))
    assert a == b
    c = render_report(run_simulation(replace(cfg, seed=2)))
    assert c != a


def test_render_report_structure():
    cfg = small_config(epochs=2, joins_per_epoch=1)
    text = render_report(run_simulation(cfg))
    assert "report_version=1" in text
    assert "epoch=0" in text and "epoch=1" in text
    assert "totals:" in text
    assert "protocol comparison" in text
    assert "config_version=1" in text


def test_balance_ratio_monitored_under_symmetric_churn():
    cfg = small_config(
        total_nodes=24,
        shards=2,
        k=2,
        alpha=3,
        blocks_per_epoch=0,
        joins_per_epoch=2,
        leaves_per_epoch=2,
        cuckoo_eps=0.1,
        epochs=20,
        seed=1,
        balance_ratio_limit=4.0,
    )
    report = run_simulation(cfg)
    assert report.total_leaves == 40
    for st in report.epochs:
        assert st.balance_ratio == max(st.shard_sizes) / min(st.shard_sizes)
        assert st.balance_ratio <= 4.0
    assert "balance_ratio=" in render_report(report)


def test_balance_ratio_limit_breach_raises():
    cfg = small_config(
        total_nodes=12,
        shards=2,
        blocks_per_epoch=0,
        joins_per_epoch=4,
        cuckoo_eps=0.0,
        epochs=12,
        seed=3,
        balance_ratio_limit=1.05,  # joins alone must eventually skew 12/2 shards
    )
    with pytest.raises(IntegrityError):
        run_simulation(cfg)


def test_malicious_cap_holds_under_churn():
    cfg = small_config(
        total_nodes=16,
        shards=2,
        malicious=2,
        p=1,
        k=2,
        alpha=3,
        blocks_per_epoch=0,
        joins_per_epoch=3,
        cuckoo_eps=0.3,
        epochs=8,
        seed=9,
    )
    report = run_simulation(cfg)
    for st in report.epochs:
        assert all(c <= cfg.p for c in st.shard_malicious)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_simulator_encodes_once_per_shard_and_generation(monkeypatch, strategy):
    """Each epoch makes one encode_nodes call per (shard, generation) that has a
    node to bootstrap, at the first bootstrap of it, over exactly that shard's
    nodes to bootstrap in to_bootstrap order: at that point none of them has
    been served that generation.  A generation nobody bootstraps is never
    encoded, no encode_generation or serve_repair call is made, and every
    oracle equals encode_generation of the generation's window for the
    joiner's gamma and serves exactly one bootstrap.  Each bootstrap decodes
    its oracle's header, and every honest payload it decodes is byte for byte
    the share the helper serves from its own directly encoded state,
    bootstrapped helpers included; every malicious one is adversary_corrupt
    of it under the event's seed."""
    log = []
    nets = []
    encode_nodes, bootstrap_payloads = codec.encode_nodes, codec.bootstrap_payloads
    reconfigure, start = sim.epoch_reconfigure, sim.initial_network

    def refuse(*args, **kw):
        raise AssertionError("the simulator encoded one node or served a share from a state")

    def record_epoch(net, rng, joins=0, leaves=0):
        to_bootstrap, displaced, moves = reconfigure(net, rng, joins, leaves)
        log.append(("epoch", [(net.nodes[i].shard, net.nodes[i].gamma) for i in to_bootstrap]))
        return to_bootstrap, displaced, moves

    def record_encode(blocks, gammas, params, field, generation=0, block_size=None):
        states = encode_nodes(blocks, gammas, params, field, generation, block_size)
        log.append(("encode", tuple(blocks), list(gammas), generation, states))
        return states

    def record_bootstrap(head, target_gamma, helper_gammas, payloads, p=0):
        (net,) = nets
        liars = {(n.shard, n.gamma) for n in net.nodes.values() if n.malicious}
        log.append(("bootstrap", head, target_gamma, list(helper_gammas), payloads.copy(), liars))
        return bootstrap_payloads(head, target_gamma, helper_gammas, payloads, p)

    def record_network(config):
        nets.append(start(config))
        return nets[-1]

    monkeypatch.setattr(codec, "encode_generation", refuse)
    monkeypatch.setattr(codec, "serve_repair", refuse)
    monkeypatch.setattr(codec, "encode_nodes", record_encode)
    monkeypatch.setattr(codec, "bootstrap_payloads", record_bootstrap)
    monkeypatch.setattr(sim, "epoch_reconfigure", record_epoch)
    monkeypatch.setattr(sim, "initial_network", record_network)
    cfg = small_config(
        total_nodes=24,
        shards=2,
        malicious=3,
        p=1,
        joins_per_epoch=2,
        epochs=6,
        strategy=strategy,
        seed=4,
        cap_malicious_per_shard=False,
    )
    report = run_simulation(cfg)
    monkeypatch.undo()
    (net,) = nets
    l_blocks = cfg.generation_blocks
    events = iter(report.bootstrap_events)
    encodes, pending, oracles = 0, None, {}
    bootstrapped, served_bootstrapped, corrupted, batched = set(), 0, 0, 0
    for entry in log + [("epoch", [])]:
        if entry[0] != "bootstrap":
            assert pending is None  # an encode is followed by the bootstrap it is made for
            if entry[0] == "epoch":
                assert not oracles  # every oracle of the epoch served its bootstrap
                to_bootstrap, seen = entry[1], set()
            else:
                pending, encodes = entry, encodes + 1
            continue
        _, head, target, helpers, payloads, liars = entry
        event = next(events)
        blocks = net.blocks[event.shard][event.generation * l_blocks:][:l_blocks]
        if (event.shard, event.generation) not in seen:
            # the first bootstrap of a (shard, generation) this epoch: one encode
            # over the shard's nodes to bootstrap, in order, came just before it
            seen.add((event.shard, event.generation))
            assert pending is not None
            _, encoded_blocks, gammas, generation, states = pending
            assert (list(encoded_blocks), generation) == (blocks, event.generation)
            assert gammas == [gamma for shard, gamma in to_bootstrap if shard == event.shard]
            batched += len(gammas) > 1
            for gamma, state in zip(gammas, states, strict=True):
                assert state == codec.encode_generation(blocks, gamma, cfg.params, net.field,
                                                        generation, cfg.block_size)
                oracles[event.shard, gamma, generation] = state
            pending = None
        assert head is oracles.pop((event.shard, target, event.generation))
        seed = f"{cfg.seed}:adversary:{event.epoch}:{event.shard}:{event.node_id}:{event.generation}"
        lies = 0
        for gamma, row in zip(helpers, payloads, strict=True):
            own = codec.encode_generation(blocks, gamma, cfg.params, net.field,
                                          event.generation, cfg.block_size)
            want = codec.serve_repair(own, target)
            if (event.shard, gamma) in liars:
                lies += 1
                want = adversary_corrupt(want, strategy, random.Random(seed))
            got = served_share(head, gamma, target, row)
            assert codec.share_to_bytes(got) == codec.share_to_bytes(want)
            served_bootstrapped += (event.shard, event.generation, gamma) in bootstrapped
        assert lies == event.corrupted_shares
        corrupted += lies
        if event.ok:
            bootstrapped.add((event.shard, event.generation, target))
    assert next(events, None) is None
    events = report.bootstrap_events
    # one encode per (epoch, shard, generation) that has a bootstrap, and no other
    assert encodes == len({(e.epoch, e.shard, e.generation) for e in events}) < len(events)
    done = report.epochs[-1].generations_done
    assert sum(done) > len(done)  # several generations per shard
    # some generations nobody bootstraps, and these were never encoded
    assert len({(e.shard, e.generation) for e in events}) < sum(done)
    assert batched and corrupted and served_bootstrapped  # batches, liars, bootstrapped helpers
    assert any(not e.ok for e in events)  # a failed decode is judged as well


def test_generation_g_of_a_shard_is_its_arrived_blocks_g_l_to_g_plus_one_l(monkeypatch):
    """Reports show no block contents, so the window each bootstrap's oracle
    encodes is checked against a replay of the payload draws: epoch, then
    shard, then block.  blocks_per_epoch=3 does not divide L=5, so windows
    straddle epochs, and a leave an epoch shrinks the shards."""
    windows = {}  # id of each oracle -> (its blocks, generation)
    decoded = []
    encode_nodes, bootstrap_payloads = codec.encode_nodes, codec.bootstrap_payloads

    def record(blocks, gammas, params, field, generation=0, block_size=None):
        states = encode_nodes(blocks, gammas, params, field, generation, block_size)
        windows.update((id(state), (list(blocks), generation)) for state in states)
        return states

    def record_bootstrap(head, target_gamma, helper_gammas, payloads, p=0):
        decoded.append(windows[id(head)])
        return bootstrap_payloads(head, target_gamma, helper_gammas, payloads, p)

    monkeypatch.setattr(codec, "encode_nodes", record)
    monkeypatch.setattr(codec, "bootstrap_payloads", record_bootstrap)
    cfg = small_config(total_nodes=24, shards=3, block_size=16, blocks_per_epoch=3,
                       joins_per_epoch=2, leaves_per_epoch=1, cuckoo_eps=0.1, epochs=8, seed=0)
    report = run_simulation(cfg)
    monkeypatch.undo()
    payload = random.Random(f"{cfg.seed}:payload")
    draws = [[] for _ in range(cfg.shards)]
    for _ in range(cfg.epochs):
        for shard in draws:
            shard.extend(payload.randbytes(cfg.block_size) for _ in range(cfg.blocks_per_epoch))
    l_blocks = cfg.generation_blocks
    assert cfg.blocks_per_epoch % l_blocks and report.total_leaves
    assert len(decoded) == len(report.bootstrap_events)
    for (blocks, generation), event in zip(decoded, report.bootstrap_events):
        assert generation == event.generation
        assert blocks == draws[event.shard][generation * l_blocks : (generation + 1) * l_blocks]
    done = report.epochs[-1].generations_done
    assert done == (cfg.epochs * cfg.blocks_per_epoch // l_blocks,) * cfg.shards
    # every completed window of every shard is encoded by some bootstrap
    assert {(e.shard, e.generation) for e in report.bootstrap_events} == {
        (s, g) for s in range(cfg.shards) for g in range(done[s])
    }
