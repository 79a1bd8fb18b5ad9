import itertools
import random
from collections import Counter

import numpy as np
import pytest

from srb.errors import DecodeFailure
from srb.field import binary_field, prime_field
from srb.rs import invert_matrix, poly_divmod, rs_decode, rs_decode_many, solve_linear


def exhaustive_decode_oracle(f, points, dim, min_agree):
    """All coefficient vectors of length dim agreeing with >= min_agree points."""
    found = []
    for coeffs in itertools.product(range(f.order), repeat=dim):
        hits = sum(1 for x, y in points if f.poly_eval(list(coeffs), x) == y)
        if hits >= min_agree:
            found.append(list(coeffs))
    return found


def test_example_single_corruption_gf13():
    f = prime_field(13)
    points = [(1, 3), (2, 5), (3, 0), (4, 9)]  # codeword of [1, 2], (3, 7) corrupted
    oracle = exhaustive_decode_oracle(f, points, 2, 3)
    assert oracle == [[1, 2]]
    assert rs_decode(f, points, 2) == [1, 2]


def test_zero_errors_is_interpolation():
    f = prime_field(13)
    coeffs = [4, 0, 7]
    points = [(x, f.poly_eval(coeffs, x)) for x in (2, 5, 11)]
    assert rs_decode(f, points, 3) == coeffs
    # zero slack (n = dim + 1, e = 0): a wrong value is detected, never corrected
    points = [(x, f.poly_eval(coeffs, x)) for x in (2, 5, 11, 7)]
    assert rs_decode(f, points, 3) == coeffs
    for bad in range(len(points)):
        x, y = points[bad]
        with pytest.raises(DecodeFailure):
            rs_decode(f, points[:bad] + [(x, (y + 1) % 13)] + points[bad + 1:], 3)


def test_majority_vote_dim_one():
    f = prime_field(13)
    points = [(1, 6), (2, 6), (3, 9)]
    majority = Counter(y for _, y in points).most_common(1)[0][0]
    assert rs_decode(f, points, 1) == [majority]
    # outlier first: the one wrong value sits among the first dim points
    assert rs_decode(f, [(3, 9), (1, 6), (2, 6)], 1) == [6]


def test_duplicate_points_rejected():
    f = prime_field(13)
    with pytest.raises(ValueError):
        rs_decode(f, [(1, 3), (1, 5), (2, 4)], 1)
    with pytest.raises(ValueError):
        rs_decode_many(f, [1, 1, 2], [[3, 5, 4]], 1)


def test_too_few_points_rejected():
    f = prime_field(13)
    with pytest.raises(ValueError):
        rs_decode(f, [(1, 3)], 2)
    with pytest.raises(ValueError):
        rs_decode_many(f, [1], [[3]], 2)
    with pytest.raises(ValueError):
        rs_decode_many(f, [1, 2], [[3, 4]], 0)


@pytest.mark.parametrize("f,p", [(prime_field(13), 1), (prime_field(257), 2)])
def test_corrupt_up_to_p_recovers_exactly(f, p):
    rng = random.Random(11)
    dim = 3
    n = dim + 2 * p
    for _ in range(200):
        coeffs = [rng.randrange(f.order) for _ in range(dim)]
        xs = rng.sample(range(f.order), n)
        ys = [f.poly_eval(coeffs, x) for x in xs]
        for bad in rng.sample(range(n), p):
            ys[bad] = (ys[bad] + 1 + rng.randrange(f.order - 1)) % f.order
        assert rs_decode(f, list(zip(xs, ys)), dim) == coeffs


def test_corrupt_up_to_p_recovers_exactly_gf65536():
    f = binary_field(16)
    rng = random.Random(12)
    dim, p = 4, 2
    n = dim + 2 * p
    for _ in range(100):
        coeffs = [rng.randrange(f.order) for _ in range(dim)]
        xs = rng.sample(range(f.order), n)
        ys = [f.poly_eval(coeffs, x) for x in xs]
        for bad in rng.sample(range(n), p):
            ys[bad] ^= 1 + rng.randrange(f.order - 1)
        assert rs_decode(f, list(zip(xs, ys)), dim) == coeffs


def test_p_plus_one_corruptions_never_silently_wrong():
    """Decoded output must agree with >= dim + p points or fail loudly."""
    f = prime_field(257)
    rng = random.Random(13)
    dim, p = 3, 1
    n = dim + 2 * p
    failures = 0
    for _ in range(300):
        coeffs = [rng.randrange(f.order) for _ in range(dim)]
        xs = rng.sample(range(f.order), n)
        ys = [f.poly_eval(coeffs, x) for x in xs]
        for bad in rng.sample(range(n), p + 1):
            ys[bad] = (ys[bad] + 1 + rng.randrange(f.order - 1)) % f.order
        try:
            got = rs_decode(f, list(zip(xs, ys)), dim)
        except DecodeFailure:
            failures += 1
            continue
        hits = sum(1 for x, y in zip(xs, ys) if f.poly_eval(got, x) == y)
        assert hits >= dim + p  # returned only because it is a codeword in budget
        assert got != coeffs or hits >= n - p
    assert failures > 0


def test_exhaustive_corruption_patterns_small_field():
    """Every corruption pattern of weight p on GF(13) decodes back exactly."""
    f = prime_field(13)
    dim, p = 2, 1
    n = dim + 2 * p
    xs = [1, 2, 3, 4]
    rng = random.Random(5)
    for _ in range(40):
        coeffs = [rng.randrange(13) for _ in range(dim)]
        clean = [f.poly_eval(coeffs, x) for x in xs]
        for bad_pos in range(n):
            for wrong in range(13):
                if wrong == clean[bad_pos]:
                    continue
                ys = clean[:]
                ys[bad_pos] = wrong
                assert rs_decode(f, list(zip(xs, ys)), dim) == coeffs


def test_round_trip_all_dims_gf13():
    """Vandermonde codewords round-trip with zero errors for dims 1..8."""
    f = prime_field(13)
    rng = random.Random(23)
    for dim in range(1, 9):
        for start in range(13):
            xs = [(start + i) % 13 for i in range(dim)]
            vectors = (
                itertools.product(range(13), repeat=dim)
                if dim <= 2
                else ([rng.randrange(13) for _ in range(dim)] for _ in range(30))
            )
            for coeffs in vectors:
                coeffs = list(coeffs)
                points = [(x, f.poly_eval(coeffs, x)) for x in xs]
                assert rs_decode(f, points, dim) == coeffs


def test_decode_many_matches_single_decode():
    f = prime_field(257)
    rng = random.Random(31)
    dim, p = 4, 1
    n = dim + 2 * p
    xs = rng.sample(range(257), n)
    ys_list = []
    expect = []
    for _ in range(50):
        coeffs = [rng.randrange(257) for _ in range(dim)]
        ys = [f.poly_eval(coeffs, x) for x in xs]
        if rng.random() < 0.5:
            bad = rng.randrange(n)
            ys[bad] = (ys[bad] + 1) % 257
        ys_list.append(ys)
        expect.append(coeffs)
    assert rs_decode_many(f, xs, ys_list, dim).tolist() == expect


@pytest.mark.parametrize("f", [prime_field(257), binary_field(16)])
def test_decode_many_runs_welch_berlekamp_once_per_liar(f, monkeypatch):
    """Liars blamed on one word are erased from the rest: at most p WB runs."""
    rng = random.Random(32)
    dim, p = 5, 2
    n = dim + 2 * p
    xs = rng.sample(range(f.order), n)
    liars = [1, 3]  # among the first dim points, which the fast path uses
    ys_list, expect = [], []
    for _ in range(200):
        coeffs = [rng.randrange(f.order) for _ in range(dim)]
        ys = [f.poly_eval(coeffs, x) for x in xs]
        for bad in rng.sample(liars, rng.randint(0, p)):
            ys[bad] = (ys[bad] + 1 + rng.randrange(f.order - 1)) % f.order
        ys_list.append(ys)
        expect.append(coeffs)
    calls = []

    def counted(*args):
        calls.append(args)
        return rs_decode(*args)

    monkeypatch.setattr("srb.rs.rs_decode", counted)
    assert rs_decode_many(f, xs, ys_list, dim).tolist() == expect
    assert 1 <= len(calls) <= p


def _words_with_liars(f, rng, xs, dim, liars, count):
    """count codewords of random messages, each lying at every position in liars."""
    words, expect = [], []
    for _ in range(count):
        coeffs = [rng.randrange(f.order) for _ in range(dim)]
        ys = [f.poly_eval(coeffs, x) for x in xs]
        for bad in liars:
            ys[bad] = (ys[bad] + 1 + rng.randrange(f.order - 1)) % f.order
        words.append(ys)
        expect.append(coeffs)
    return words, expect


@pytest.mark.parametrize("f", [prime_field(257), binary_field(16)])
def test_decode_many_carries_blame_to_the_next_call(f, monkeypatch):
    """A liar blamed in one call is erased in the next: one WB run for both."""
    rng = random.Random(33)
    dim, p = 4, 1
    xs = rng.sample(range(f.order), dim + 2 * p)
    first, expect_first = _words_with_liars(f, rng, xs, dim, [2], 30)
    second, expect_second = _words_with_liars(f, rng, xs, dim, [2], 30)
    calls = []

    def counted(*args):
        calls.append(args)
        return rs_decode(*args)

    monkeypatch.setattr("srb.rs.rs_decode", counted)
    blamed = set()
    assert rs_decode_many(f, xs, first, dim, blamed).tolist() == expect_first
    assert blamed == {2}
    assert rs_decode_many(f, xs, second, dim, blamed).tolist() == expect_second
    assert len(calls) == 1
    # without a shared blame set each call runs Welch-Berlekamp again
    rs_decode_many(f, xs, second, dim)
    assert len(calls) == 2


def test_decode_many_blaming_honest_points_changes_no_result():
    """Blame only picks the points to interpolate from; results stay exact."""
    f = binary_field(16)
    rng = random.Random(34)
    dim, p = 3, 2
    xs = rng.sample(range(f.order), dim + 2 * p)
    words, expect = _words_with_liars(f, rng, xs, dim, [0, 5], 40)
    for blamed in ({1}, {1, 2}, {3, 4, 6}, set(range(len(xs)))):
        assert rs_decode_many(f, xs, words, dim, set(blamed)).tolist() == expect
    over_budget, _ = _words_with_liars(f, rng, xs, dim, [0, 1, 5], 3)
    with pytest.raises(DecodeFailure):
        rs_decode(f, list(zip(xs, over_budget[0])), dim)
    with pytest.raises(DecodeFailure):
        rs_decode_many(f, xs, over_budget, dim, {2, 3})


@pytest.mark.parametrize("dtype", [np.uint16, np.int32, np.int64, np.uint64])
def test_decode_many_keeps_the_words_in_any_integer_dtype(dtype):
    f = binary_field(16)
    rng = random.Random(35)
    dim = 3
    xs = rng.sample(range(f.order), dim + 2)
    words, expect = _words_with_liars(f, rng, xs, dim, [1], 20)
    got = rs_decode_many(f, xs, np.array(words, dtype=dtype), dim)
    assert got.dtype.kind in "iu"
    assert got.tolist() == expect


def test_solve_linear_inconsistent_and_underdetermined():
    f = prime_field(13)
    assert solve_linear(f, [[1, 1], [2, 2]], [3, 7]) is None
    sol = solve_linear(f, [[1, 1]], [5])
    assert sol is not None and (sol[0] + sol[1]) % 13 == 5


def test_invert_matrix():
    f = prime_field(13)
    m = [[1, 2], [3, 4]]
    inv = invert_matrix(f, m)
    assert f.matmul(inv, m).tolist() == [[1, 0], [0, 1]]
    assert invert_matrix(f, [[1, 2], [2, 4]]) is None


def test_poly_divmod():
    f = prime_field(13)
    # (x + 1)(x + 2) = x^2 + 3x + 2
    quot, rem = poly_divmod(f, [2, 3, 1], [1, 1])
    assert quot == [2, 1] and rem == []
    quot, rem = poly_divmod(f, [3, 3, 1], [1, 1])
    assert rem != []
    quot, rem = poly_divmod(f, [], [1, 1])
    assert quot == [] and rem == []
