import itertools
import random
from fractions import Fraction

import pytest

from field_helpers import poly_eval, pow_
from srb import analytics, mbr
from srb.errors import DecodeFailure, IntegrityError
from srb.field import PrimeField, binary_field, prime_field
from srb.mbr import (
    MbrParams,
    NodeRow,
    build_message_matrix,
    encode_node,
    extract_message,
    message_length,
    repair_share,
    row_times_matrix,
    secure_reconstruct,
    secure_repair,
)
from srb.rs import rs_decode


class CountingField(PrimeField):
    """Prime field that counts multiplications, for cost assertions."""

    def __init__(self, modulus):
        super().__init__(modulus)
        self.mul_count = 0

    def mul(self, a, b):
        self.mul_count += 1
        return super().mul(a, b)


def encode_oracle(f, matrix, gamma):
    """Plain matrix-vector product, written independently of encode_node."""
    width = len(matrix)
    psi = [pow_(f, gamma, j) for j in range(width)]
    out = []
    for j in range(width):
        acc = 0
        for i in range(width):
            acc = f.add(acc, f.mul(psi[i], matrix[i][j]))
        out.append(acc)
    return out


def test_params_validation():
    with pytest.raises(ValueError):
        MbrParams(3, 2)
    with pytest.raises(ValueError):
        MbrParams(2, 3, n=4, p=1)  # alpha + 2p = 5 > n - 1
    with pytest.raises(ValueError):
        MbrParams(0, 1)
    p = MbrParams(3, 4, n=7, p=1)
    assert p.d == 4 and p.repair_degree == 6 and p.reconstruct_degree == 5


def test_reconstruct_degree_above_n_is_refused_by_the_other_rules():
    """k <= alpha and alpha + 2p <= n - 1 imply k + 2p < n, so no rule of its own checks it."""
    grid = itertools.product(range(-1, 7), range(-1, 9), range(-1, 4), range(22))
    refused = 0
    for k, alpha, p, n in grid:
        if k + 2 * p <= n:
            continue
        with pytest.raises(ValueError) as exc:
            MbrParams(k, alpha, n=n, p=p)
        if k >= 1 and p >= 0:
            refused += 1
            assert str(exc.value) == "alpha must be >= k" or str(exc.value).startswith(
                f"repair degree alpha+2p={alpha + 2 * p} needs n-1 helpers"
            )
    assert refused > 0


def test_message_length():
    assert message_length(3, 4) == 9
    assert message_length(30, 50) == 1065
    assert message_length(1, 1) == 1
    assert MbrParams(2, 3).message_length == 5


def test_build_message_matrix_reference_example():
    f = prime_field(13)
    params = MbrParams(3, 4)
    msg = list(range(1, 10))  # B1..B9
    assert build_message_matrix(f, msg, params) == [
        [1, 2, 3, 7],
        [2, 4, 5, 8],
        [3, 5, 6, 9],
        [7, 8, 9, 0],
    ]


def test_build_message_matrix_smallest_and_k2():
    f = prime_field(13)
    assert build_message_matrix(f, [5], MbrParams(1, 1)) == [[5]]
    assert build_message_matrix(f, [1, 2, 3, 4, 5], MbrParams(2, 3)) == [
        [1, 2, 4],
        [2, 3, 5],
        [4, 5, 0],
    ]


def test_build_message_matrix_wrong_length():
    with pytest.raises(ValueError):
        build_message_matrix(prime_field(13), [1, 2], MbrParams(2, 3))


def test_extract_message_inverse():
    f = prime_field(13)
    params = MbrParams(3, 4)
    msg = list(range(1, 10))
    assert extract_message(f, build_message_matrix(f, msg, params), params) == msg
    assert extract_message(f, [[7]], MbrParams(1, 1)) == [7]


def test_extract_message_round_trip_random():
    f = prime_field(257)
    params = MbrParams(4, 6)
    rng = random.Random(2)
    for _ in range(1000):
        msg = [rng.randrange(257) for _ in range(params.message_length)]
        assert extract_message(f, build_message_matrix(f, msg, params), params) == msg


def test_extract_message_integrity_errors():
    f = prime_field(13)
    params = MbrParams(2, 3)
    m = build_message_matrix(f, [1, 2, 3, 4, 5], params)
    m[0][1] = 9
    with pytest.raises(IntegrityError):
        extract_message(f, m, params)
    m = build_message_matrix(f, [1, 2, 3, 4, 5], params)
    m[2][2] = 1
    with pytest.raises(IntegrityError):
        extract_message(f, m, params)


def test_extract_message_refuses_a_matrix_not_alpha_by_alpha():
    f = prime_field(13)
    params = MbrParams(2, 3)
    m = build_message_matrix(f, [1, 2, 3, 4, 5], params)
    ragged = [row[:] for row in m]
    ragged[1].pop()
    for bad in (m[:2], ragged):  # too few rows; a row too short
        with pytest.raises(ValueError, match=r"^matrix must be 3x3$"):
            extract_message(f, bad, params)


def test_encode_node_examples():
    f = prime_field(13)
    params = MbrParams(2, 3)
    m = build_message_matrix(f, [1, 2, 3, 4, 5], params)
    assert encode_node(f, m, 2).symbols == (8, 2, 1)
    assert encode_node(f, m, 0).symbols == (1, 2, 4)  # first row of M


def test_encode_node_matches_oracle_and_poly_eval():
    rng = random.Random(4)
    for f in (prime_field(257), binary_field(16)):
        params = MbrParams(3, 5)
        for _ in range(500):
            msg = [rng.randrange(f.order) for _ in range(params.message_length)]
            m = build_message_matrix(f, msg, params)
            gamma = rng.randrange(f.order)
            row = encode_node(f, m, gamma)
            assert list(row.symbols) == encode_oracle(f, m, gamma)
            # polynomial view: column j evaluated at gamma
            for j in range(params.alpha):
                col = [m[i][j] for i in range(params.alpha)]
                assert row.symbols[j] == poly_eval(f, col, gamma)


def test_encode_multiplication_counts():
    f = CountingField(257)
    params = MbrParams(3, 5)
    msg = list(range(params.message_length))
    m = build_message_matrix(f, msg, params)
    psi = f.vandermonde_row(7, params.alpha)
    f.mul_count = 0
    row_times_matrix(f, psi, m)
    assert f.mul_count == params.alpha**2
    f.mul_count = 0
    encode_node(f, m, 7)
    total = f.mul_count
    assert total <= params.alpha**3  # the advertised nominal bound
    assert total <= analytics.encoding_cost(
        analytics.ProtocolParams(alpha=params.alpha, k=params.k,
                                 total_blocks=params.message_length), "init"
    ).units


def test_repair_share_examples():
    f = prime_field(13)
    params = MbrParams(2, 3)
    m = build_message_matrix(f, [1, 2, 3, 4, 5], params)
    helper = encode_node(f, m, 2)
    assert repair_share(f, helper, 3) == 10
    assert repair_share(f, helper, 0) == helper.symbols[0]
    with pytest.raises(ValueError):
        repair_share(f, helper, 2)


def test_repair_share_symmetry():
    rng = random.Random(6)
    f = prime_field(257)
    params = MbrParams(3, 4)
    for _ in range(200):
        msg = [rng.randrange(257) for _ in range(params.message_length)]
        m = build_message_matrix(f, msg, params)
        a, b = rng.sample(range(257), 2)
        row_a, row_b = encode_node(f, m, a), encode_node(f, m, b)
        assert repair_share(f, row_a, b) == repair_share(f, row_b, a)
        # and both equal psi_a^T M psi_b computed from M directly
        pa = f.vandermonde_row(a, 4)
        mb = [poly_eval(f, [m[i][j] for j in range(4)], b) for i in range(4)]
        direct = 0
        for i in range(4):
            direct = f.add(direct, f.mul(pa[i], mb[i]))
        assert repair_share(f, row_a, b) == direct


def test_secure_repair_reference_example():
    """Five nodes, k=3, d=alpha=4; node 6 bootstraps from helpers 2..5."""
    for f in (prime_field(13), binary_field(16)):
        params = MbrParams(3, 4, n=6, p=0)
        msg = [f.check(v) for v in range(1, 10)]
        m = build_message_matrix(f, msg, params)
        rows = {g: encode_node(f, m, g) for g in range(1, 7)}
        shares = [(g, repair_share(f, rows[g], 6)) for g in (2, 3, 4, 5)]
        assert secure_repair(f, shares, 6, params) == rows[6]


def test_secure_repair_no_adversary_is_interpolation():
    f = prime_field(257)
    params = MbrParams(2, 3, n=5, p=0)
    rng = random.Random(8)
    msg = [rng.randrange(257) for _ in range(params.message_length)]
    m = build_message_matrix(f, msg, params)
    rows = [encode_node(f, m, g) for g in range(5)]
    shares = [(r.gamma, repair_share(f, r, 4)) for r in rows[:3]]
    assert secure_repair(f, shares, 4, params) == rows[4]


def test_secure_repair_with_corruption_trials():
    f = prime_field(257)
    params = MbrParams(4, 6, n=12, p=2)
    rng = random.Random(9)
    for _ in range(1000):
        msg = [rng.randrange(257) for _ in range(params.message_length)]
        m = build_message_matrix(f, msg, params)
        gammas = rng.sample(range(257), 11)
        target = gammas[0]
        helpers = gammas[1:]
        expected = encode_node(f, m, target)
        shares = [(g, repair_share(f, encode_node(f, m, g), target)) for g in helpers]
        for bad in rng.sample(range(10), 2):
            g, v = shares[bad]
            shares[bad] = (g, (v + 1 + rng.randrange(256)) % 257)
        assert secure_repair(f, shares, target, params) == expected


def test_secure_repair_argument_errors():
    f = prime_field(13)
    params = MbrParams(2, 3, n=5, p=0)
    m = build_message_matrix(f, [1, 2, 3, 4, 5], params)
    rows = [encode_node(f, m, g) for g in range(4)]
    good = [(r.gamma, repair_share(f, r, 4)) for r in rows[:3]]
    with pytest.raises(ValueError):
        secure_repair(f, good[:2], 4, params)
    with pytest.raises(ValueError):
        secure_repair(f, [good[0], good[0], good[2]], 4, params)
    with pytest.raises(ValueError):
        secure_repair(f, [(4, 0)] + good[:2], 4, params)


def _agreement(f, row, shares):
    return sum(1 for g, v in shares if poly_eval(f, list(row.symbols), g) == v)


def test_secure_repair_budget_exceeded_is_loud():
    """p+1 coordinated corruptions: failures are reported, and anything
    returned agrees with >= alpha + p of the supplied shares (so corrupted
    evaluations of the true row are never passed off as valid).  Returning a
    *different* codeword within the error budget is information-
    theoretically indistinguishable from honest data and therefore allowed.
    """
    f = prime_field(257)
    params = MbrParams(2, 3, n=7, p=1)
    rng = random.Random(10)
    outcomes = {"fail": 0, "ok": 0, "other_codeword": 0}
    for _ in range(300):
        msg = [rng.randrange(257) for _ in range(params.message_length)]
        m = build_message_matrix(f, msg, params)
        target = 200
        helpers = rng.sample(range(100), 5)
        truth = encode_node(f, m, target)
        shares = [(g, repair_share(f, encode_node(f, m, g), target)) for g in helpers]
        wrong = [rng.randrange(257) for _ in range(3)]
        for bad in rng.sample(range(5), 2):  # p + 1 colluders on one wrong row
            shares[bad] = (shares[bad][0], poly_eval(f, wrong, shares[bad][0]))
        try:
            got = secure_repair(f, shares, target, params)
        except DecodeFailure:
            outcomes["fail"] += 1
            continue
        assert _agreement(f, got, shares) >= params.alpha + params.p
        if got == truth:
            # only possible when a colluder's wrong value coincided with the
            # true one, i.e. the effective corruption count was <= p
            assert _agreement(f, truth, shares) >= params.alpha + params.p
            outcomes["ok"] += 1
        else:
            outcomes["other_codeword"] += 1
    assert outcomes["fail"] > 250  # the overwhelming outcome


def test_secure_repair_exhaustive_corruption_positions():
    """All weight-(p+1) corruption patterns: the decoder never accepts data
    failing the agreement check; whatever it returns is a codeword within
    the error budget."""
    f = prime_field(13)
    params = MbrParams(2, 3, n=7, p=1)
    msg = [1, 2, 3, 4, 5]
    m = build_message_matrix(f, msg, params)
    target = 6
    helpers = [0, 1, 2, 3, 4]
    truth = encode_node(f, m, target)
    clean = [(g, repair_share(f, encode_node(f, m, g), target)) for g in helpers]
    saw_failure = False
    for positions in itertools.combinations(range(5), 2):  # p + 1 corruptions
        for delta in (1, 5):
            shares = list(clean)
            for pos in positions:
                g, v = shares[pos]
                shares[pos] = (g, (v + delta) % 13)
            try:
                got = secure_repair(f, shares, target, params)
            except DecodeFailure:
                saw_failure = True
                continue
            assert _agreement(f, got, shares) >= params.alpha + params.p
            assert got != truth  # truth now agrees with too few shares
    assert saw_failure


def test_secure_reconstruct_examples():
    f = prime_field(13)
    # degenerate alpha == k: V empty, pure interpolation per column
    params = MbrParams(2, 2, n=4, p=0)
    msg = [3, 7, 11]
    m = build_message_matrix(f, msg, params)
    rows = [encode_node(f, m, g) for g in (1, 5)]
    assert secure_reconstruct(f, rows, params) == msg
    # hand-checkable two-node case
    params = MbrParams(2, 3, n=5, p=0)
    msg = [1, 2, 3, 4, 5]
    m = build_message_matrix(f, msg, params)
    rows = [encode_node(f, m, g) for g in (1, 2)]
    assert secure_reconstruct(f, rows, params) == msg


def test_secure_reconstruct_with_corrupted_row_trials():
    f = prime_field(257)
    params = MbrParams(4, 6, n=12, p=1)
    rng = random.Random(12)
    for _ in range(1000):
        msg = [rng.randrange(257) for _ in range(params.message_length)]
        m = build_message_matrix(f, msg, params)
        gammas = rng.sample(range(257), 6)
        rows = [encode_node(f, m, g) for g in gammas]
        bad = rng.randrange(6)
        rows[bad] = NodeRow(rows[bad].gamma, tuple(rng.randrange(257) for _ in range(6)))
        assert secure_reconstruct(f, rows, params) == msg


def test_secure_reconstruct_arity_and_duplicates():
    f = prime_field(13)
    params = MbrParams(2, 3, n=5, p=0)
    m = build_message_matrix(f, [1, 2, 3, 4, 5], params)
    rows = [encode_node(f, m, g) for g in (1, 2, 3)]
    with pytest.raises(ValueError):
        secure_reconstruct(f, rows, params)
    with pytest.raises(ValueError):
        secure_reconstruct(f, [rows[0], rows[0]], params)


def _reconstruct_rows_with_two_liars(coord, deltas):
    """k=2, alpha=3, p=1 rows over GF(13), two of them off by deltas at coord."""
    f = prime_field(13)
    params = MbrParams(2, 3, n=6, p=1)
    m = build_message_matrix(f, [1, 2, 3, 4, 5], params)
    rows = [encode_node(f, m, g) for g in (1, 2, 3, 4)]
    for i, delta in enumerate(deltas):
        symbols = list(rows[i].symbols)
        symbols[coord] = f.add(symbols[coord], delta)
        rows[i] = NodeRow(rows[i].gamma, tuple(symbols))
    return f, rows, params


def test_secure_reconstruct_rejects_rows_of_the_wrong_width():
    f, rows, params = _reconstruct_rows_with_two_liars(0, ())
    rows[2] = NodeRow(rows[2].gamma, rows[2].symbols[:2])
    with pytest.raises(ValueError, match=r"^rows must carry alpha = 3 symbols$"):
        secure_reconstruct(f, rows, params)


@pytest.mark.parametrize(
    "coord, calls", [(2, 1), (0, 2)], ids=["v-step", "u-step"],
)
def test_secure_reconstruct_beyond_budget_fails_in_each_step(monkeypatch, coord, calls):
    """Two liars against p = 1: V's one column (coordinate 2) or U's first (coordinate 0)."""
    seen = []

    def counting(field, points, dim):
        seen.append(dim)
        return rs_decode(field, points, dim)

    monkeypatch.setattr(mbr, "rs_decode", counting)
    f, rows, params = _reconstruct_rows_with_two_liars(coord, (1, 1))
    with pytest.raises(
        DecodeFailure, match=r"^reconstruction failed: error budget exceeded$"
    ) as info:
        secure_reconstruct(f, rows, params)
    assert isinstance(info.value.__cause__, DecodeFailure)
    assert len(seen) == calls  # the failing decode is the last call


def test_secure_reconstruct_refuses_an_asymmetric_u():
    """Two liars move U's columns to other codewords that disagree off the diagonal."""
    f, rows, params = _reconstruct_rows_with_two_liars(0, (1, 5))
    with pytest.raises(IntegrityError, match=r"^recovered U block is not symmetric$"):
        secure_reconstruct(f, rows, params)


def test_reconstruction_identity_any_subset():
    f = prime_field(257)
    params = MbrParams(3, 4, n=8, p=1)
    rng = random.Random(14)
    msg = [rng.randrange(257) for _ in range(params.message_length)]
    m = build_message_matrix(f, msg, params)
    rows = [encode_node(f, m, g) for g in range(8)]
    for subset in itertools.combinations(range(8), 5):
        assert secure_reconstruct(f, [rows[i] for i in subset], params) == msg


def test_exact_repair_identity_randomized():
    f = binary_field(16)
    params = MbrParams(3, 4, n=8, p=1)
    rng = random.Random(15)
    for _ in range(100):
        msg = [rng.randrange(f.order) for _ in range(params.message_length)]
        m = build_message_matrix(f, msg, params)
        gammas = rng.sample(range(f.order), 8)
        target = gammas[0]
        helpers = rng.sample(gammas[1:], 6)
        shares = [(g, repair_share(f, encode_node(f, m, g), target)) for g in helpers]
        bad = rng.randrange(6)
        shares[bad] = (shares[bad][0], shares[bad][1] ^ (1 + rng.randrange(f.order - 1)))
        assert secure_repair(f, shares, target, params) == encode_node(f, m, target)


def test_new_node_flexibility():
    """Appending node n+1 with a fresh coefficient needs no re-encoding."""
    f = prime_field(257)
    params = MbrParams(3, 4, n=8, p=1)
    rng = random.Random(16)
    msg = [rng.randrange(257) for _ in range(params.message_length)]
    m = build_message_matrix(f, msg, params)
    rows = [encode_node(f, m, g) for g in range(8)]
    fresh = encode_node(f, m, 100)
    grown = MbrParams(3, 4, n=9, p=1)
    shares = [(r.gamma, repair_share(f, r, 200)) for r in rows[:6]]
    assert secure_repair(f, shares, 200, grown) == encode_node(f, m, 200)
    assert secure_reconstruct(f, [fresh] + rows[:4], grown) == msg


def test_storage_accounting_matches_analytics():
    f = prime_field(257)
    params = MbrParams(4, 6, n=12, p=2)
    n = 12
    rng = random.Random(20)
    msg = [rng.randrange(257) for _ in range(params.message_length)]
    m = build_message_matrix(f, msg, params)
    rows = [encode_node(f, m, g) for g in range(n)]
    stored = sum(len(r.symbols) for r in rows)
    assert stored == n * params.alpha
    overhead = analytics.storage_overhead(
        analytics.ProtocolParams(
            protocol=analytics.SRB,
            n_s=n,
            total_blocks=params.message_length,
            alpha=params.alpha,
            k=params.k,
        )
    )
    assert Fraction(stored, params.message_length) == overhead
    assert overhead == Fraction(n * params.alpha, params.message_length)
