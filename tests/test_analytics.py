import itertools
import math
import random
from fractions import Fraction

import pytest

from srb import analytics as an


def hypergeom_oracle(population, malicious, sample, threshold):
    """Enumerate every committee and count; independent of the formula."""
    hits = 0
    total = 0
    for committee in itertools.combinations(range(population), sample):
        total += 1
        if sum(1 for x in committee if x < malicious) >= threshold:
            hits += 1
    return Fraction(hits, total)


def rows_for(**fields):
    """The comparison's rows for these inputs, by protocol."""
    return {r.protocol: r for r in an.comparison_report(an.ProtocolParams(**fields)).rows}


def test_storage_overhead():
    rows = rows_for(n_s=1000, total_blocks=1065, alpha=50, k=30, delta=0.1)
    assert rows[an.SRB].storage_overhead == Fraction(1000 * 50, 1065)
    assert float(rows[an.SRB].storage_overhead) == pytest.approx(46.95, abs=0.01)
    assert rows[an.RAPIDCHAIN].storage_overhead == 1000
    assert rows[an.SEF].storage_overhead == pytest.approx(1.1)
    assert rows_for(n_s=1, total_blocks=4, alpha=4, k=1)[an.SRB].storage_overhead == 1
    with pytest.raises(ValueError, match="total_blocks must be > 0"):
        rows_for(n_s=10, total_blocks=0, alpha=3)


def test_bootstrap_cost():
    rows = rows_for(n_s=1000, total_blocks=1065, alpha=50, k=30, delta=0.1, c=1.0)
    assert rows[an.SRB].bootstrap_blocks == 50
    assert rows[an.SRB].bootstrap_blocks * 2_000_000 == 100_000_000  # 100 MB at 2 MB blocks
    srb_p = rows_for(n_s=1000, total_blocks=1065, alpha=50, k=30, p=2)[an.SRB]
    assert srb_p.bootstrap_blocks == 50 and srb_p.bootstrap_blocks_secure == 54
    rc = rows[an.RAPIDCHAIN]
    assert rc.bootstrap_blocks == 1065
    assert rc.bootstrap_blocks * 2_000_000 == 2_130_000_000  # 2.13 GB
    sef = rows[an.SEF]
    expected = 1065 + math.sqrt(1065) * math.log(10650) ** 2
    assert sef.bootstrap_blocks == pytest.approx(expected)
    assert sef.bootstrap_blocks > 1065
    assert rc.bootstrap_blocks_secure is None and sef.bootstrap_blocks_secure is None


def test_epoch_security():
    rows = rows_for(n_s=1000, total_blocks=1065, alpha=50, k=30)
    assert rows[an.SRB].security_nodes == 475 and not rows[an.SRB].security_clamped
    assert rows[an.RAPIDCHAIN].security_nodes == 500
    flat = rows_for(n_s=50, total_blocks=1065, alpha=50, k=30)[an.SRB]  # alpha == n_S
    assert flat.security_nodes == 0 and not flat.security_clamped
    sef_neg = rows_for(n_s=10, total_blocks=1065, rho=2)[an.SEF]
    assert sef_neg.security_nodes == 0 and sef_neg.security_clamped


def test_hypergeom_exact_value():
    assert an.hypergeom_tail(10, 4, 5, 3) == float(Fraction(66, 252))
    assert hypergeom_oracle(10, 4, 5, 3) == Fraction(66, 252)


def test_hypergeom_edges():
    assert an.hypergeom_tail(10, 4, 5, 0) == 1.0
    assert an.hypergeom_tail(10, 4, 5, 5) == 0.0  # cannot fill committee
    assert an.hypergeom_tail(10, 0, 5, 1) == 0.0
    with pytest.raises(ValueError):
        an.hypergeom_tail(10, 11, 5, 3)
    with pytest.raises(ValueError):
        an.hypergeom_tail(10, 4, 5, 6)


def test_hypergeom_sums_only_possible_terms(monkeypatch):
    """Only the l that can occur are summed: at most T malicious and at most
    N - T honest members, so a large network with few liars stays cheap."""
    comb = math.comb
    calls = []

    def counting_comb(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(an.math, "comb", counting_comb)
    assert an.hypergeom_tail(20000, 3, 10000, 5000) == 0.0
    assert len(calls) == 0  # no binomial at all: no l in 5000..3
    calls.clear()
    # P[X = 2] + P[X = 3] for 3 liars and a committee of half the network
    expected = Fraction(3 * 10000 * 9999 * 10000 + 10000 * 9999 * 9998, 20000 * 19999 * 19998)
    assert an.hypergeom_tail(20000, 3, 10000, 2) == float(expected)
    assert len(calls) == 3  # C(N, n) and the first term; the next comes from it
    calls.clear()
    assert an.hypergeom_tail(20000, 19997, 10000, 0) == 1.0
    assert len(calls) == 0  # l from 9997 >= 0: at most 3 honest members, so certain


def test_hypergeom_matches_the_full_sum():
    """The term recurrence and the early stop give the float of the whole
    exact sum over threshold..sample, thresholds near the mean included."""
    # The first terms rise from values that divided by C(2000, 1000) > 2^1990
    # round to 0.0, so only a falling tail may stop the sum.
    cases = [(2000, 1000, 1000, 0), (2000, 1000, 1000, 50)]
    # Thresholds at the smallest possible l, just above it, and on either
    # side of the mode, where the sum moves to the other tail.
    for population, malicious, sample in ((2000, 1500, 1000), (2000, 500, 1000), (300, 290, 200),
                                          (1000, 999, 500), (50, 7, 49)):
        least = max(0, sample - (population - malicious))
        mode = (sample + 1) * (malicious + 1) // (population + 2)
        cases += [(population, malicious, sample, t)
                  for t in (least, least + 1, mode - 1, mode, mode + 1) if 0 <= t <= sample]
    rng = random.Random(5)
    for _ in range(300):
        population = rng.randint(1, 1000)
        malicious = rng.randint(0, population)
        sample = rng.randint(0, population)
        mean = sample * malicious / population
        cases.append((population, malicious, sample, rng.choice((
            rng.randint(0, sample),
            min(sample, max(0, round(rng.gauss(mean, 3 * math.sqrt(mean + 1))))),
        ))))
    for population, malicious, sample, threshold in cases:
        acc = sum(
            math.comb(malicious, l) * math.comb(population - malicious, sample - l)
            for l in range(threshold, sample + 1)
        )
        assert an.hypergeom_tail(population, malicious, sample, threshold) == float(
            Fraction(acc, math.comb(population, sample))
        )


def test_hypergeom_matches_enumeration_oracle():
    rng = random.Random(0)
    for _ in range(20):
        population = rng.randint(4, 12)
        malicious = rng.randint(0, population)
        sample = rng.randint(1, population)
        threshold = rng.randint(0, sample)
        assert an.hypergeom_tail(population, malicious, sample, threshold) == pytest.approx(
            float(hypergeom_oracle(population, malicious, sample, threshold)), abs=1e-12
        )


def test_hypergeom_monotone():
    for t in range(1, 6):
        assert an.hypergeom_tail(30, t + 1, 8, 3) >= an.hypergeom_tail(30, t, 8, 3)
    for thr in range(0, 8):
        assert an.hypergeom_tail(30, 10, 8, thr) >= an.hypergeom_tail(30, 10, 8, thr + 1)


def test_hypergeom_monte_carlo_small():
    rng = random.Random(1)
    population, malicious, sample, threshold = 20, 7, 6, 3
    exact = an.hypergeom_tail(population, malicious, sample, threshold)
    n_trials = 100_000
    hits = sum(
        1
        for _ in range(n_trials)
        if sum(1 for x in rng.sample(range(population), sample) if x < malicious) >= threshold
    )
    sigma = math.sqrt(exact * (1 - exact) / n_trials)
    assert abs(hits / n_trials - exact) <= 3 * sigma + 1e-12


def test_hoeffding_examples():
    g, r = 0.4, 0.6
    expected = ((g / r) ** r * ((1 - g) / (1 - r)) ** (1 - r)) ** 5
    assert an.hoeffding_bound(10, 4, 5, 3) == pytest.approx(expected)
    assert an.hoeffding_bound(10, 4, 5, 3) >= an.hypergeom_tail(10, 4, 5, 3)
    assert an.hoeffding_bound(10, 0, 5, 3) == 0.0
    assert an.hoeffding_bound(10, 4, 5, 5) == pytest.approx(0.4**5)  # r = 1 limit
    with pytest.raises(ValueError):
        an.hoeffding_bound(10, 6, 5, 3)  # r = 0.6 <= g = 0.6
    with pytest.raises(ValueError):
        an.hoeffding_bound(10, 4, 0, 0)  # r = t/n is undefined for an empty sample
    with pytest.raises(ValueError, match="need 0 <= malicious <= population"):
        an.hoeffding_bound(10, 11, 5, 3)
    with pytest.raises(ValueError, match="need 0 <= threshold <= sample <= population"):
        an.hoeffding_bound(10, 4, 5, 6)


def test_hoeffding_dominates_hypergeom():
    rng = random.Random(2)
    checked = 0
    while checked < 100:
        population = rng.randint(6, 40)
        malicious = rng.randint(1, population - 1)
        sample = rng.randint(2, min(10, population))
        threshold = rng.randint(1, sample)
        if threshold / sample <= malicious / population:
            continue
        h = an.hypergeom_tail(population, malicious, sample, threshold)
        g = an.hoeffding_bound(population, malicious, sample, threshold)
        assert g >= h - 1e-12
        checked += 1


def test_failure_upper_bound():
    assert an.failure_upper_bound(5, 0.0) == an.DEFAULT_P_BOOTSTRAP
    got = an.failure_upper_bound(16, 1e-9)
    assert got == pytest.approx(2.0**-26.36 + 1.6e-8)
    assert an.failure_upper_bound(10, 0.5) == 1.0  # clamped
    with pytest.raises(ValueError):
        an.failure_upper_bound(2, 1.5)


def test_throughput_example():
    params = an.ProtocolParams(total_nodes=16000, mu=1.0, p_frac=0.0, v=1.0, tau=1.0)
    got = an.throughput_factor(params, alpha=2)
    assert got.resiliency == pytest.approx(0.5 - 2 / (2 * math.log(16000)), abs=1e-9)
    assert got.sigma == pytest.approx(108.5, abs=0.1)
    assert got.sigma_rapidchain > got.sigma


def test_throughput_alpha_zero_matches_rapidchain():
    params = an.ProtocolParams(total_nodes=16000)
    got = an.throughput_factor(params, alpha=0.0)
    assert got.sigma == got.sigma_rapidchain


def test_throughput_monotone_in_alpha():
    params = an.ProtocolParams(total_nodes=5000, p_frac=0.1)
    rng = random.Random(3)
    for _ in range(100):
        alpha = rng.uniform(1e-6, 5.0)
        got = an.throughput_factor(params, alpha=alpha)
        assert got.sigma < got.sigma_rapidchain


def test_throughput_resiliency_exhausted():
    params = an.ProtocolParams(total_nodes=16000)
    with pytest.raises(ValueError, match="resiliency exhausted"):
        an.throughput_factor(params, alpha=50)  # the published example regime
    with pytest.raises(ValueError):
        an.throughput_factor(an.ProtocolParams(total_nodes=1), alpha=0)
    with pytest.raises(ValueError, match="need v > 0"):
        an.throughput_factor(an.ProtocolParams(total_nodes=16000, v=0), alpha=0)


def test_encoding_cost():
    params = an.ProtocolParams(n_s=100, total_blocks=1065, alpha=50, k=30)
    assert an.encoding_cost(params, "init").units == 125_000
    boot = an.encoding_cost(params, "bootstrap")
    r = 50
    assert boot.units == pytest.approx(r**2 * math.log(r) ** 2 * math.log(math.log(r)))
    tiny = an.ProtocolParams(alpha=1, k=1, total_blocks=1)
    degenerate = an.encoding_cost(tiny, "bootstrap")
    assert degenerate.units == 1 and degenerate.note
    with pytest.raises(ValueError):
        an.encoding_cost(params, "unknown")


def test_message_length_consistency():
    assert an.ProtocolParams(k=30, alpha=50, total_blocks=1065).total_blocks == 1065
    with pytest.raises(ValueError):
        an.ProtocolParams(k=30, alpha=50, total_blocks=1000)
    assert an.ProtocolParams(k=3, alpha=4, total_blocks=9).total_blocks == 9


def test_k_above_alpha_rejected():
    # L(5, 3) = 5 matches total_blocks, but (5, 3) is no MBR point
    with pytest.raises(ValueError, match="alpha must be >= k"):
        an.ProtocolParams(n_s=10, total_blocks=5, k=5, alpha=3)
    with pytest.raises(ValueError, match="alpha must be >= k"):
        an.ProtocolParams(k=5, alpha=3)


def test_table1_reference_example():
    report = an.comparison_report(an.reference_example_params())
    by_protocol = {r.protocol: r for r in report.rows}
    srb = by_protocol[an.SRB]
    rc = by_protocol[an.RAPIDCHAIN]
    sef = by_protocol[an.SEF]
    assert srb.storage_blocks == 50 and srb.bootstrap_blocks == 50
    assert srb.storage_blocks * 2_000_000 == 100_000_000
    assert rc.storage_blocks == 1065 and rc.bootstrap_blocks == 1065
    assert rc.storage_blocks * 2_000_000 == 2_130_000_000
    assert sef.storage_blocks == 2 and sef.storage_blocks * 2_000_000 == 4_000_000
    assert sef.bootstrap_blocks > 1065
    assert srb.security_nodes == 475 and rc.security_nodes == 500
    assert report.throughput is None and "resiliency exhausted" in report.throughput_note


def test_render_metrics_contains_published_figures():
    text = an.render_metrics(an.comparison_report(an.reference_example_params()))
    assert "100MB" in text
    assert "2.13GB" in text
    assert "4MB" in text
    assert "475 nodes" in text
    # deterministic rendering
    assert text == an.render_metrics(an.comparison_report(an.reference_example_params()))


def test_format_bytes():
    assert an.format_bytes(100_000_000) == "100MB"
    assert an.format_bytes(2_130_000_000) == "2.13GB"
    assert an.format_bytes(4_000_000) == "4MB"
    assert an.format_bytes(0) == "0B"
    assert an.format_bytes(999) == "999B"
    assert an.format_bytes(2048) == "2.05kB"


def test_shard_nodes_default_to_total_nodes_over_shards():
    derived = an.ProtocolParams(total_nodes=16000, shards=16, malicious=4000, alpha=50, k=30,
                                total_blocks=1065)
    given = an.ProtocolParams(n_s=1000, total_nodes=16000, shards=16, malicious=4000, alpha=50,
                              k=30, total_blocks=1065)
    assert an.ProtocolParams(total_nodes=16000, shards=16).n_s == 1000
    assert derived == given
    assert an.comparison_report(derived).rows == an.comparison_report(given).rows
    with pytest.raises(ValueError, match=r"^total_nodes=100 is not a multiple of shards=3; "
                       r"give n_s or make N = m \* n_S$"):
        an.ProtocolParams(total_nodes=100, shards=3)


def test_total_nodes_must_be_shards_times_shard_nodes():
    with pytest.raises(ValueError, match="N = m \\* n_S"):
        an.ProtocolParams(n_s=25, total_nodes=100, shards=3)
    an.ProtocolParams(n_s=25, total_nodes=100, shards=4)
    an.ProtocolParams(n_s=25, total_nodes=100)  # m unknown: nothing to compare
