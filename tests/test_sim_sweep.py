"""Differential check of the simulator: a seeded sweep of small configs.

Each config's rendered report, or the type and message of the exception its
run raises, is hashed and compared with the digest recorded for it in
data/sim_sweep_digests.txt.  Reports count failed bootstraps but do not show
what helpers sent, so every call of codec.bootstrap_node in a run is hashed
too, in order (the target gamma, then each share's file bytes), and compared
with data/sim_sweep_share_digests.txt.  A change that alters reports or
shares on purpose regenerates both files once, and says so:

    PYTHONPATH=src:tests python tests/test_sim_sweep.py
"""

import hashlib
import random
from pathlib import Path
from unittest import mock

import pytest

from srb import codec
from srb.errors import SrbError
from srb.mbr import message_length
from srb.sim import STRATEGIES, SimConfig, render_report, run_simulation

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


def outcome_digests(kw: dict) -> tuple[str, str]:
    """SHA-256 of the config's report, or of its exception's type and message,
    and SHA-256 of every bootstrap's target gamma and shares, in call order."""
    sent = hashlib.sha256()
    bootstrap = codec.bootstrap_node

    def recording(shares, target_gamma, p=0):
        sent.update(target_gamma.to_bytes(4, "little"))
        for share in shares:
            sent.update(codec.share_to_bytes(share))
        return bootstrap(shares, target_gamma, p)

    with mock.patch.object(codec, "bootstrap_node", recording):
        try:
            text = render_report(run_simulation(SimConfig(**kw)))
        except (ValueError, SrbError) as exc:
            text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest(), sent.hexdigest()


@pytest.fixture(scope="module")
def sweep():
    configs = sweep_configs()
    return configs, [outcome_digests(kw) for kw in configs]


def assert_recorded(path: Path, configs: list[dict], got: list[str]) -> None:
    want = path.read_text().split()
    assert len(want) == len(got)
    changed = [configs[i] for i, (a, b) in enumerate(zip(want, got)) if a != b]
    assert not changed, f"{len(changed)} outcomes changed, first for {changed[0]}"


def test_sweep_reports_match_recorded_digests(sweep):
    configs, digests = sweep
    assert_recorded(DIGESTS, configs, [report for report, _ in digests])


def test_sweep_helper_shares_match_recorded_digests(sweep):
    configs, digests = sweep
    assert_recorded(SHARE_DIGESTS, configs, [shares for _, shares in digests])


if __name__ == "__main__":
    digests = [outcome_digests(kw) for kw in sweep_configs()]
    for column, path in enumerate((DIGESTS, SHARE_DIGESTS)):
        path.write_text("".join(d[column] + "\n" for d in digests))
