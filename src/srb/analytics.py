"""Closed-form cost and security calculators for three sharding protocols.

Compares full replication (RapidChain), fountain-coded storage (SeF) and
the regenerating-code scheme implemented here (SRB) on storage overhead,
bootstrap cost, epoch security, failure-probability bounds, encoding
complexity and throughput.  The SeF figures are analytic only; no fountain
encoder is built.

Conventions: logarithms are natural throughout, the O(.) constant in the
SeF expressions is exposed as ``c`` (default 1), and exact big-integer
binomials back the hypergeometric tail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .mbr import MbrParams

RAPIDCHAIN = "rapidchain"
SEF = "sef"
SRB = "srb"
PROTOCOLS = (RAPIDCHAIN, SEF, SRB)

# Probability that the initial committee election fails; adopted constant.
DEFAULT_P_BOOTSTRAP = 2.0 ** -26.36


@dataclass(frozen=True)
class ProtocolParams:
    """Inputs for the protocol comparison; unused fields may stay at 0."""

    n_s: int = 0              # nodes per shard
    total_blocks: int = 0     # L, blocks processed per shard
    alpha: int = 0            # coded blocks stored per node (SRB)
    k: int = 0                # reconstruction threshold (SRB)
    p: int = 0                # tolerated malicious helpers (SRB)
    block_size: int = 0       # bytes; 0 reports block units only
    delta: float = 0.1        # SeF decode-failure parameter
    rho: int = 2              # SeF coded blocks per node
    c: float = 1.0            # constant in the SeF O(.) term
    total_nodes: int = 0      # N
    shards: int = 0           # m
    malicious: int = 0        # T
    mu: float = 1.0           # honest-block ratio
    p_frac: float = 0.0       # malicious fraction (throughput)
    v: float = 1.0            # average transaction size
    tau: float = 1.0          # latency factor

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if not 0.0 <= self.p_frac < 1.0:
            raise ValueError("p_frac must be in [0, 1)")
        for name in ("n_s", "total_blocks", "alpha", "k", "p", "block_size",
                     "total_nodes", "shards", "malicious"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.rho < 1:
            raise ValueError("rho must be >= 1")
        known = 0 not in (self.n_s, self.total_nodes, self.shards)
        if known and self.total_nodes != self.shards * self.n_s:
            raise ValueError(
                f"total_nodes={self.total_nodes} is not shards * n_s = "
                f"{self.shards} * {self.n_s} (N = m * n_S)"
            )
        if self.k > 0 and self.alpha > 0:
            derived = MbrParams(self.k, self.alpha).message_length  # 1 <= k <= alpha
            if self.total_blocks > 0 and derived != self.total_blocks:
                raise ValueError(
                    f"total_blocks={self.total_blocks} inconsistent with "
                    f"k={self.k}, alpha={self.alpha} (expected {derived})"
                )


def reference_example_params() -> ProtocolParams:
    """The published worked example: 2 MB blocks, 16000 nodes, 16 shards."""
    return ProtocolParams(
        n_s=1000,
        total_blocks=1065,
        alpha=50,
        k=30,
        p=0,
        block_size=2_000_000,
        delta=0.1,
        rho=2,
        c=1.0,
        total_nodes=16000,
        shards=16,
    )


def _sef_overhead_blocks(params: ProtocolParams) -> float:
    l = params.total_blocks
    if l == 0:
        raise ValueError("total_blocks must be > 0")
    return l + params.c * math.sqrt(l) * math.log(l / params.delta) ** 2


def hypergeom_tail(population: int, malicious: int, sample: int, threshold: int) -> float:
    """P[at least threshold malicious in a uniform sample], exactly rounded.

    Only the l that can occur count: at most T malicious and at most N-T
    honest members, so l runs from max(0, n-(N-T)) to min(n, T), and a
    threshold outside that range gives 1.0 or 0.0 with no binomial at all.
    Otherwise the sum runs over the terms C(T,l) C(N-T, n-l) on the side of
    the threshold where they fall: l >= threshold when the threshold lies
    above the pmf's mode, and else l < threshold, whose sum is taken from
    C(N, n).  A sample with l malicious has n-l honest members, so that
    lower tail is the upper tail of the honest count, summed by the same
    _falling_sum.  int / int rounds correctly, as float(Fraction(acc,
    C(N, n))) does.
    """
    if not 0 <= malicious <= population:
        raise ValueError("need 0 <= malicious <= population")
    if not 0 <= threshold <= sample <= population:
        raise ValueError("need 0 <= threshold <= sample <= population")
    honest = population - malicious
    least, most = max(0, sample - honest), min(sample, malicious)
    if threshold <= least:
        return 1.0
    if threshold > most:
        return 0.0
    total = math.comb(population, sample)
    if threshold <= (sample + 1) * (malicious + 1) // (population + 2):  # the mode
        lower = _falling_sum(honest, malicious, sample, sample - threshold + 1, sample - least,
                             lambda acc: (total - acc) / total)
        return (total - lower) / total
    return _falling_sum(malicious, honest, sample, threshold, most, lambda acc: acc / total) / total


def _falling_sum(hits: int, misses: int, sample: int, lo: int, hi: int, rounded) -> int:
    """The sum of C(hits, l) C(misses, sample-l) over l = lo..hi, or enough of it.

    Each term is an exact integer from the previous one.  The pmf is
    log-concave, so once the terms fall they keep falling and the terms
    left sum to less than the next one times their count; the sum stops
    when adding that bound no longer changes rounded(sum).
    """
    acc, term = 0, math.comb(hits, lo) * math.comb(misses, sample - lo)
    for l in range(lo, hi + 1):
        acc += term
        nxt = term * (hits - l) * (sample - l) // ((l + 1) * (misses - sample + l + 1))
        if nxt < term and rounded(acc) == rounded(acc + nxt * (hi - l)):
            break
        term = nxt
    return acc


def hoeffding_bound(population: int, malicious: int, sample: int, threshold: int) -> float:
    """Hoeffding upper bound on the hypergeometric tail.

    G = ((g/r)^r ((1-g)/(1-r))^(1-r))^sample with g = T/N, r = t/n;
    valid only for r > g.
    """
    if not 0 <= malicious <= population:
        raise ValueError("need 0 <= malicious <= population")
    if not 0 <= threshold <= sample <= population:
        raise ValueError("need 0 <= threshold <= sample <= population")
    if sample == 0:
        raise ValueError("bound undefined for an empty sample")
    g = malicious / population
    r = threshold / sample
    if r <= g:
        raise ValueError("bound regime violated: need threshold/sample > malicious/population")
    if r == 1.0:
        return g**sample
    return ((g / r) ** r * ((1.0 - g) / (1.0 - r)) ** (1.0 - r)) ** sample


def failure_upper_bound(
    shards: int,
    shard_failure_bound: float,
    p_bootstrap: float = DEFAULT_P_BOOTSTRAP,
) -> float:
    """U = p_bootstrap + m * G, clamped to 1."""
    if not 0.0 <= shard_failure_bound <= 1.0:
        raise ValueError("shard_failure_bound must be in [0, 1]")
    if not 0.0 <= p_bootstrap <= 1.0:
        raise ValueError("p_bootstrap must be in [0, 1]")
    return min(1.0, p_bootstrap + shards * shard_failure_bound)


@dataclass(frozen=True)
class ThroughputBound:
    sigma: float
    resiliency: float
    sigma_rapidchain: float


def throughput_factor(params: ProtocolParams, alpha: float | None = None) -> ThroughputBound:
    """Throughput-factor bound sigma and the shard resiliency a.

    a = 1/2 - alpha / (2 ln n) with n the total node count; sigma =
    mu * tau * (n / ln n) * ((a - p_frac)^2 / (2 + a - p_frac)) / v.
    The alpha override admits real values for limit studies.
    """
    n = params.total_nodes
    if n <= 1:
        raise ValueError("need total_nodes > 1")
    if params.v <= 0:
        raise ValueError("need v > 0")
    a_val = params.alpha if alpha is None else alpha
    ln_n = math.log(n)
    a = 0.5 - a_val / (2.0 * ln_n)
    if a - params.p_frac <= 0:
        raise ValueError("resiliency exhausted: a - p_frac <= 0 for these parameters")

    def bound(res: float) -> float:
        margin = res - params.p_frac
        return params.mu * params.tau * (n / ln_n) * (margin**2 / (2.0 + margin)) / params.v

    return ThroughputBound(bound(a), a, bound(0.5))


@dataclass(frozen=True)
class EncodingCost:
    units: float
    note: str = ""


def encoding_cost(params: ProtocolParams, phase: str) -> EncodingCost:
    """Nominal field-multiplication counts for SRB encode and bootstrap."""
    if phase == "init":
        return EncodingCost(
            float(params.alpha**3),
            "alpha^3 multiplications per node (nominal; one row costs alpha^2 per stripe)",
        )
    if phase == "bootstrap":
        r = params.alpha + 2 * params.p
        if r <= math.e:
            return EncodingCost(float(r * r), "r <= e so ln ln r is undefined; raw r^2 reported")
        return EncodingCost(
            r**2 * math.log(r) ** 2 * math.log(math.log(r)),
            "r^2 ln^2 r ln ln r with r = alpha + 2p",
        )
    raise ValueError(f"unknown phase {phase!r}")


@dataclass(frozen=True)
class ProtocolMetrics:
    protocol: str
    storage_overhead: Fraction | float
    storage_blocks: int
    bootstrap_blocks: float
    bootstrap_blocks_secure: float | None
    security_nodes: int
    security_clamped: bool
    hypergeom: float | None
    hoeffding: float | None            # None outside the bound's regime
    upper_bound: float | None


@dataclass(frozen=True)
class MetricsReport:
    params: ProtocolParams
    rows: tuple[ProtocolMetrics, ...]
    throughput: ThroughputBound | None
    throughput_note: str
    encoding_init: EncodingCost
    encoding_bootstrap: EncodingCost
    notes: tuple[str, ...]


def comparison_report(params: ProtocolParams) -> MetricsReport:
    """Three-protocol comparison of storage, bootstrap, security and bounds."""
    p = params
    rows = []
    # Row order fixes which refusal a bad input meets first: RapidChain's
    # hypergeometric check, then SeF's L > 0, before the SRB row divides by L.
    for proto in PROTOCOLS:
        secure = None
        if proto == RAPIDCHAIN:
            overhead, stored, boot = Fraction(p.n_s), p.total_blocks, float(p.total_blocks)
            exact: Fraction | float = Fraction(p.n_s, 2)
        elif proto == SEF:
            boot = _sef_overhead_blocks(p)
            overhead, stored, exact = 1.0 + p.delta, p.rho, p.n_s - boot / p.rho
        else:
            overhead, stored = Fraction(p.n_s * p.alpha, p.total_blocks), p.alpha
            boot, secure = float(p.alpha), float(p.alpha + 2 * p.p)
            exact = Fraction(p.n_s - p.alpha, 2)
        t_s = 0 if exact < 0 else math.floor(exact)  # t_S, clamped at 0
        hyper = hoeff = upper = None
        if p.total_nodes > 0 and p.shards > 0 and p.malicious > 0:
            hyper = hypergeom_tail(p.total_nodes, p.malicious, p.n_s, t_s)
            try:
                hoeff = hoeffding_bound(p.total_nodes, p.malicious, p.n_s, t_s)
                upper = failure_upper_bound(p.shards, hoeff)
            except ValueError:
                pass  # outside the Hoeffding regime: the table prints "regime n/a"
        rows.append(ProtocolMetrics(
            protocol=proto, storage_overhead=overhead, storage_blocks=stored,
            bootstrap_blocks=boot, bootstrap_blocks_secure=secure, security_nodes=t_s,
            security_clamped=exact < 0, hypergeom=hyper, hoeffding=hoeff, upper_bound=upper))
    throughput = None
    throughput_note = ""
    if params.total_nodes > 1:
        try:
            throughput = throughput_factor(params)
        except ValueError as exc:
            throughput_note = str(exc)
    notes = (
        "logarithms are natural; SeF O(.) constant c=" + repr(params.c),
        "p_bootstrap default 2^-26.36",
        "SRB bootstrap figure assumes p=0; secure variant downloads alpha+2p blocks",
    )
    return MetricsReport(
        params=params,
        rows=tuple(rows),
        throughput=throughput,
        throughput_note=throughput_note,
        encoding_init=encoding_cost(params, "init"),
        encoding_bootstrap=encoding_cost(params, "bootstrap"),
        notes=notes,
    )


def format_bytes(n: float) -> str:
    """Decimal byte units: 100000000 -> '100MB', 2130000000 -> '2.13GB'."""
    units = ["B", "kB", "MB", "GB", "TB", "PB"]
    value = float(n)
    idx = 0
    while idx + 1 < len(units) and abs(value) >= 1000.0:
        value /= 1000.0
        idx += 1
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return f"{text}{units[idx]}"


def _fmt_ratio(v: Fraction | float) -> str:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{float(v):.4g}"
    return f"{v:.4g}"


def _fmt_blocks(blocks: float, block_size: int) -> str:
    count = f"{blocks:g}"
    if block_size > 0:
        return f"{count} blocks ({format_bytes(blocks * block_size)})"
    return f"{count} blocks"


def render_metrics(report: MetricsReport) -> str:
    """Structured-text comparison table, deterministic for identical inputs."""
    p = report.params
    labels = {RAPIDCHAIN: "RapidChain", SEF: "SeF", SRB: "SRB"}
    lines = [
        "protocol comparison",
        f"inputs: n_s={p.n_s} L={p.total_blocks} alpha={p.alpha} k={p.k} p={p.p} "
        f"block_size={p.block_size} delta={p.delta!r} rho={p.rho} c={p.c!r} "
        f"N={p.total_nodes} m={p.shards} T={p.malicious}",
        "",
    ]
    rows = report.rows
    header = f"{'metric':<28}" + "".join(f"{labels[r.protocol]:>24}" for r in rows)
    lines.append(header)
    lines.append("-" * len(header))

    def row(label, fmt, values, missing="-"):
        cells = (missing if v is None else fmt(v) for v in values)
        lines.append(f"{label:<28}" + "".join(f"{c:>24}" for c in cells))

    blocks = functools.partial(_fmt_blocks, block_size=p.block_size)
    prob = "{:.3e}".format
    row("storage overhead", _fmt_ratio, [r.storage_overhead for r in rows])
    row("storage per node", blocks, [r.storage_blocks for r in rows])
    row("bootstrap cost", blocks, [r.bootstrap_blocks for r in rows])
    row("bootstrap cost (p tolerant)", blocks, [r.bootstrap_blocks_secure for r in rows])
    row("security guarantee t_S", lambda r: f"{r.security_nodes} nodes"
        + (" (clamped)" if r.security_clamped else ""), rows)
    if any(r.hypergeom is not None for r in rows):
        row("shard failure prob H", prob, [r.hypergeom for r in rows])
        row("Hoeffding bound G", prob, [r.hoeffding for r in rows], "regime n/a")
        row("system bound U", prob, [r.upper_bound for r in rows])
    lines.append("")
    lines.append(
        f"encoding (init): {report.encoding_init.units:g} mult-units"
        f" [{report.encoding_init.note}]"
    )
    lines.append(
        f"encoding (bootstrap): {report.encoding_bootstrap.units:g} units"
        f" [{report.encoding_bootstrap.note}]"
    )
    if report.throughput is not None:
        t = report.throughput
        lines.append(
            f"throughput factor: sigma_SRB < {t.sigma:.6g} (a={t.resiliency:.6g})"
            f" vs sigma_RC < {t.sigma_rapidchain:.6g} (a=0.5)"
        )
    elif report.throughput_note:
        lines.append(f"throughput factor: n/a ({report.throughput_note})")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
