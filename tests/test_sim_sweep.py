"""Differential check of the simulator: a seeded sweep of small configs.

Each config's rendered report, or the type and message of the exception its
run raises, is hashed and compared with the digest recorded for it in
data/sim_sweep_digests.txt.  Reports count failed bootstraps but do not show
what helpers sent, so every call of codec.bootstrap_payloads in a run is
hashed too, in order (the target gamma, then the file bytes of the share each
helper serves), and compared with data/sim_sweep_share_digests.txt.  A change
that alters reports or shares on purpose regenerates both files once, and
says so:

    PYTHONPATH=src:tests python tests/test_sim_sweep.py

Digests pin bytes and nothing else, so each outcome is also checked against
invariants that hold whatever the bytes: see
test_sweep_outcomes_keep_the_simulator_invariants.
"""

import dataclasses
import hashlib
import random
import re
from pathlib import Path
from unittest import mock

import pytest

from srb import codec
from srb.errors import DecodeFailure, ShardUnderflowError, SrbError
from srb.field import parse_field
from srb.mbr import message_length
from srb.sim import STRATEGIES, SimConfig, initial_network, render_report, run_simulation

DIGESTS = Path(__file__).with_name("data") / "sim_sweep_digests.txt"
SHARE_DIGESTS = DIGESTS.with_name("sim_sweep_share_digests.txt")
SWEEP_SEED = 14
SWEEP_SIZE = 120
FIELDS = ("binary:8", "binary:16", "prime:257", "prime:65521")
EPS = (0.0, 0.01, 0.3, 0.6)


def sweep_configs() -> list[dict]:
    """SWEEP_SIZE small configs drawn from SWEEP_SEED, as SimConfig keywords.

    Fields and strategies take turns, so each pairs with every other; the
    rest is drawn: leaves, cuckoo_eps up to 0.6, and malicious counts up to
    four above the shards' budget m * p when uncapped, and up to one above it
    when capped, which the config refuses.
    """
    rng = random.Random(SWEEP_SEED)
    configs = []
    for i in range(SWEEP_SIZE):
        k = rng.randint(1, 3)
        alpha = rng.randint(k, k + 2)
        p = rng.randint(0, 2)
        shards = rng.randint(1, 3)
        capped = rng.random() < 0.5
        configs.append(dict(
            total_nodes=shards * (alpha + 2 * p + rng.randint(2, 8)), shards=shards,
            k=k, alpha=alpha, p=p,
            malicious=rng.randint(0, shards * p + (1 if capped else 4)),
            cap_malicious_per_shard=capped,
            field_spec=FIELDS[i % len(FIELDS)],
            strategy=STRATEGIES[i // len(FIELDS) % len(STRATEGIES)],
            block_size=rng.choice((1, 2, 3, 16, 64, 256)),
            blocks_per_epoch=message_length(k, alpha) * rng.randint(0, 2) + rng.randint(0, 2),
            joins_per_epoch=rng.randint(1, 3),
            leaves_per_epoch=rng.choice((0, 0, 1, 2)),
            cuckoo_eps=rng.choice(EPS),
            epochs=rng.randint(2, 4),
            seed=rng.randrange(1000),
        ))
    return configs


def served_share(head, helper_gamma, target_gamma, row) -> codec.RepairShare:
    """The share the node at helper_gamma sends target_gamma, head's generation, row its payload."""
    header = {f.name: getattr(head, f.name) for f in dataclasses.fields(codec.GenerationHeader)}
    return codec.RepairShare(**{**header, "gamma": helper_gamma}, target_gamma=target_gamma,
                             symbols=row)


def run_recorded(kw: dict) -> tuple:
    """Run the config and return its report, or the exception its run raises;
    SHA-256 of the report, or of the exception's type and message; SHA-256 of
    every bootstrap's target gamma and the file bytes of the share each of its
    helpers serves, in call order; and, in that order, whether each bootstrap
    rebuilt its oracle, the joiner's state encode_nodes made."""
    sent = hashlib.sha256()
    rebuilt: list[bool] = []
    oracles = {}  # id -> every state encode_nodes made, kept alive
    encode, bootstrap = codec.encode_nodes, codec.bootstrap_payloads

    def encoding(*args, **kwargs):
        states = encode(*args, **kwargs)
        oracles.update((id(state), state) for state in states)
        return states

    def recording(head, target_gamma, helper_gammas, payloads, p=0):
        oracle = oracles[id(head)]
        assert oracle.gamma == target_gamma
        sent.update(target_gamma.to_bytes(4, "little"))
        for gamma, row in zip(helper_gammas, payloads, strict=True):
            sent.update(codec.share_to_bytes(served_share(head, gamma, target_gamma, row)))
        try:
            state = bootstrap(head, target_gamma, helper_gammas, payloads, p)
        except DecodeFailure:
            rebuilt.append(False)
            raise
        rebuilt.append(codec.state_to_bytes(state) == codec.state_to_bytes(oracle))
        return state

    with mock.patch.object(codec, "encode_nodes", encoding), \
            mock.patch.object(codec, "bootstrap_payloads", recording):
        try:
            outcome = run_simulation(SimConfig(**kw))
            text = render_report(outcome)
        except (ValueError, SrbError) as exc:
            outcome, text = exc, f"{type(exc).__name__}: {exc}"
    return outcome, hashlib.sha256(text.encode()).hexdigest(), sent.hexdigest(), rebuilt


@pytest.fixture(scope="module")
def sweep():
    configs = sweep_configs()
    return configs, [run_recorded(kw) for kw in configs]


def assert_recorded(path: Path, configs: list[dict], got: list[str]) -> None:
    want = path.read_text().split()
    assert len(want) == len(got)
    changed = [configs[i] for i, (a, b) in enumerate(zip(want, got)) if a != b]
    assert not changed, f"{len(changed)} outcomes changed, first for {changed[0]}"


def test_sweep_reports_match_recorded_digests(sweep):
    configs, digests = sweep
    assert_recorded(DIGESTS, configs, [report for _, report, _, _ in digests])


def test_sweep_helper_shares_match_recorded_digests(sweep):
    configs, digests = sweep
    assert_recorded(SHARE_DIGESTS, configs, [shares for _, _, shares, _ in digests])


def test_sweep_outcomes_keep_the_simulator_invariants(sweep):
    configs, runs = sweep
    for kw, (outcome, _, _, rebuilt) in zip(configs, runs):
        if isinstance(outcome, ShardUnderflowError):
            continue
        if isinstance(outcome, Exception):
            # any other refusal is the config's, before the first epoch
            assert type(outcome) is ValueError, kw
            with pytest.raises(ValueError, match=f"^{re.escape(str(outcome))}$"):
                initial_network(SimConfig(**kw))
            continue
        report = outcome
        cfg, events = report.config, report.bootstrap_events
        field = parse_field(cfg.field_spec)
        z = codec.symbols_per_block(field, cfg.block_size)
        helpers = cfg.params.repair_degree
        payload = helpers * z * codec.stored_symbol_bytes(field)
        headers = helpers * codec.share_header_size(cfg.generation_blocks)
        assert [e.ok for e in events] == rebuilt, kw
        for e in events:
            assert e.ok or e.corrupted_shares > cfg.p, kw
            assert (e.payload_bytes, e.header_bytes) == (payload, headers), kw
        assert [st.epoch for st in report.epochs] == list(range(cfg.epochs))
        for st in report.epochs:
            mine = [e for e in events if e.epoch == st.epoch]
            assert st.bootstraps_attempted == len(mine), kw
            assert st.bootstraps_attempted == st.bootstraps_succeeded + st.bootstraps_failed, kw
            assert st.bootstraps_failed == sum(not e.ok for e in mine), kw
            assert st.bootstrap_payload_bytes == sum(e.payload_bytes for e in mine), kw
            assert st.bootstrap_header_bytes == sum(e.header_bytes for e in mine), kw
            if cfg.cap_malicious_per_shard:
                assert max(st.shard_malicious) <= cfg.p, kw
            if not report.total_bootstrap_failures:
                assert st.storage_total_min == st.storage_total_max, kw
        assert report.total_bootstraps == sum(st.bootstraps_attempted for st in report.epochs)
        assert report.total_bootstrap_failures == sum(st.bootstraps_failed for st in report.epochs)
        assert report.total_joins == sum(st.joins for st in report.epochs)
        assert report.total_leaves == sum(st.leaves for st in report.epochs)


if __name__ == "__main__":
    runs = [run_recorded(kw) for kw in sweep_configs()]
    for column, path in ((1, DIGESTS), (2, SHARE_DIGESTS)):
        path.write_text("".join(run[column] + "\n" for run in runs))
