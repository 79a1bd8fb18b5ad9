import functools
import random

import numpy as np
import pytest

from srb.field import (
    DEFAULT_REDUCTION_POLY,
    binary_field,
    field_from_header,
    gf2_is_irreducible,
    is_prime,
    parse_field,
    prime_field,
)


def clmul_oracle(a, b, poly):
    """Independent carry-less multiply + reduce, for checking table paths."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    deg = poly.bit_length() - 1
    while acc.bit_length() - 1 >= deg and acc:
        acc ^= poly << (acc.bit_length() - 1 - deg)
    return acc


def test_prime_arithmetic_examples():
    f = prime_field(13)
    assert f.add(7, 9) == 3
    assert f.mul(7, 9) == 11
    assert f.sub(3, 7) == 9
    assert f.div(1, 7) == pow(7, -1, 13)


def test_identity_elements():
    for f in (prime_field(13), prime_field(257), binary_field(16)):
        rng = random.Random(0)
        for _ in range(50):
            a = rng.randrange(f.order)
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a


def test_binary_multiply_example():
    f = binary_field(4, 0b10011)  # x^4 + x + 1
    assert f.mul(0b1000, 0b0010) == 0b0011


def test_binary_multiply_matches_clmul_oracle_exhaustive_gf16():
    f = binary_field(4)
    for a in range(16):
        for b in range(16):
            assert f.mul(a, b) == clmul_oracle(a, b, f.poly)


def test_binary_multiply_matches_clmul_oracle_sampled_gf65536():
    f = binary_field(16)
    rng = random.Random(1)
    for _ in range(2000):
        a = rng.randrange(f.order)
        b = rng.randrange(f.order)
        assert f.mul(a, b) == clmul_oracle(a, b, f.poly)


@pytest.mark.parametrize("f", [prime_field(13), prime_field(257), binary_field(8), binary_field(16)])
def test_field_axioms(f):
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randrange(f.order) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.sub(f.add(a, b), b) == a
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(f.mul(a, b), a) == b


def test_division_by_zero():
    for f in (prime_field(13), binary_field(16)):
        with pytest.raises(ZeroDivisionError):
            f.div(5, 0)
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_out_of_range_operands_rejected():
    f = prime_field(13)
    with pytest.raises(ValueError):
        f.add(7, 20)
    with pytest.raises(ValueError):
        f.mul(-1, 3)
    with pytest.raises(ValueError):
        f.check(13)
    g = binary_field(4)
    with pytest.raises(ValueError):
        g.mul(16, 1)


def test_vandermonde_rows():
    f = prime_field(13)
    assert f.vandermonde_row(2, 4) == [1, 2, 4, 8]
    assert f.vandermonde_row(5, 1) == [1]
    assert f.vandermonde_row(0, 3) == [1, 0, 0]
    with pytest.raises(ValueError):
        f.vandermonde_row(2, 0)


def test_poly_eval():
    f = prime_field(13)
    assert f.poly_eval([1, 2, 4], 3) == (1 + 2 * 3 + 4 * 9) % 13
    assert f.poly_eval([5, 7, 11], 0) == 5
    assert f.poly_eval([9], 6) == 9
    with pytest.raises(ValueError):
        f.poly_eval([], 1)


def test_poly_eval_matches_direct_sum():
    rng = random.Random(3)
    for f in (prime_field(257), binary_field(16)):
        for _ in range(100):
            coeffs = [rng.randrange(f.order) for _ in range(rng.randint(1, 8))]
            x = rng.randrange(f.order)
            direct = 0
            for j, c in enumerate(coeffs):
                direct = f.add(direct, f.mul(c, f.pow_(x, j)))
            assert f.poly_eval(coeffs, x) == direct


def test_pow():
    f = prime_field(13)
    assert f.pow_(2, 0) == 1
    assert f.pow_(0, 0) == 1
    assert f.pow_(0, 5) == 0
    g = binary_field(16)
    assert g.pow_(3, g.order - 1) == 1


def test_bulk_helpers_match_scalar_ops():
    rng = random.Random(5)
    for f in (prime_field(257), binary_field(16), binary_field(8, 0x11B)):
        vec_a = [rng.randrange(f.order) for _ in range(64)]
        vec_b = [rng.randrange(f.order) for _ in range(64)]
        c = rng.randrange(f.order)
        assert f.scale_vec(c, vec_a) == [f.mul(c, v) for v in vec_a]
        assert f.add_vec(vec_a, vec_b) == [f.add(x, y) for x, y in zip(vec_a, vec_b)]


@pytest.mark.parametrize(
    "f", [prime_field(13), prime_field(257), binary_field(8), binary_field(8, 0x11B), binary_field(16)]
)
def test_matmul_matches_scalar_products(f):
    rng = random.Random(12)
    for rows, n, words in ((1, 1, 0), (3, 4, 7), (5, 2, 33), (0, 3, 4)):
        coeffs = [[rng.choice((0, 1, rng.randrange(f.order))) for _ in range(n)] for _ in range(rows)]
        if coeffs:
            coeffs[0] = [0] * n  # an all-zero row yields zeros
        data = [[rng.choice((0, rng.randrange(f.order))) for _ in range(words)] for _ in range(n)]
        expect = []
        for row in coeffs:
            out = []
            for w in range(words):
                acc = 0
                for c, vec in zip(row, data):
                    acc = f.add(acc, f.mul(c, vec[w]))
                out.append(acc)
            expect.append(out)
        got = f.matmul(coeffs, np.array(data, dtype=np.uint16).reshape(n, words))
        assert got.shape == (rows, words)
        assert got.tolist() == expect
    with pytest.raises(ValueError):
        f.matmul([[1]], [[f.order]])
    with pytest.raises(ValueError):
        f.matmul([[f.order]], [[1]])


def test_aes_polynomial_matches_clmul_oracle_exhaustive():
    # x^8 + x^4 + x^3 + x + 1 is irreducible, but x has order 51, not 255:
    # the log/exp tables are built over another generator.
    f = binary_field(8, 0x11B)
    assert not f._primitive
    for a in range(256):
        for b in range(256):
            assert f.mul(a, b) == clmul_oracle(a, b, 0x11B)
        if a:
            assert clmul_oracle(a, f.inv(a), 0x11B) == 1


def test_prime_validation():
    with pytest.raises(ValueError):
        prime_field(12)
    with pytest.raises(ValueError):
        prime_field(1)
    assert is_prime(65521)
    with pytest.raises(ValueError):
        prime_field(65537)  # above the 2^16 ceiling


def test_reduction_poly_validation():
    with pytest.raises(ValueError):
        binary_field(4, 0b10101)  # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    with pytest.raises(ValueError):
        binary_field(4, 0b1011)  # degree 3, not 4
    with pytest.raises(ValueError):
        binary_field(17)


def test_default_polys_are_irreducible_exhaustively():
    for degree, poly in DEFAULT_REDUCTION_POLY.items():
        assert poly.bit_length() - 1 == degree
        assert gf2_is_irreducible(poly)


def test_gf2_irreducibility_reference_cases():
    assert gf2_is_irreducible(0b111)      # x^2 + x + 1
    assert not gf2_is_irreducible(0b110)  # x^2 + x = x(x + 1)
    assert not gf2_is_irreducible(0b1001) # x^3 + 1 = (x + 1)(x^2 + x + 1)
    assert gf2_is_irreducible(0b11111)    # x^4 + x^3 + x^2 + x + 1


def test_irreducible_but_not_primitive_poly_still_works():
    # x^4 + x^3 + x^2 + x + 1 is irreducible with x of order 5, not 15.
    f = binary_field(4, 0b11111)
    assert not f._primitive
    for a in range(16):
        for b in range(16):
            assert f.mul(a, b) == clmul_oracle(a, b, 0b11111)
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_header_round_trip_and_equality():
    for f in (prime_field(257), binary_field(16), binary_field(8)):
        g = field_from_header(f.header_kind, f.header_param)
        assert g == f
        assert hash(g) == hash(f)
    assert prime_field(13) != binary_field(4)


def test_parse_field():
    assert parse_field("prime:13") == prime_field(13)
    assert parse_field("binary:16") == binary_field(16)
    assert parse_field("binary:4:0x13") == binary_field(4, 0x13)
    with pytest.raises(ValueError):
        parse_field("gf:13")


def test_field_cache_returns_same_object():
    assert binary_field(16) is binary_field(16)
    assert prime_field(257) is prime_field(257)


def scalar_matmul(f, coeffs, data):
    """coeffs x data by the scalar operations, as nested Python ints."""
    return [
        [
            functools.reduce(f.add, (f.mul(c, vec[w]) for c, vec in zip(row, data)), 0)
            for w in range(len(data[0]) if data else 0)
        ]
        for row in coeffs
    ]


DTYPE_FIELDS = [
    prime_field(13),
    prime_field(257),
    binary_field(8),
    binary_field(8, 0x11B),
    binary_field(16),
    prime_field(65521),
]
DTYPES = [np.uint8, np.uint16, np.int32, np.int64, np.uint64]


@pytest.mark.parametrize("f", DTYPE_FIELDS, ids=lambda f: f.describe())
def test_matmul_dtype_contract(f):
    """Every integer dtype gives the scalar products, as an integer array."""
    rng = random.Random(13)
    coeffs = [[rng.choice((0, 1, f.order - 1, rng.randrange(f.order))) for _ in range(6)]
              for _ in range(4)]
    data = [[rng.choice((0, 1, f.order - 1, rng.randrange(f.order))) for _ in range(9)]
            for _ in range(6)]
    expect = scalar_matmul(f, coeffs, data)
    got = f.matmul(coeffs, data)
    assert got.dtype.kind in "iu"
    assert got.tolist() == expect
    for dtype in DTYPES:
        if f.order - 1 > np.iinfo(dtype).max:
            continue
        for c, d in ((coeffs, np.array(data, dtype)),
                     (np.array(coeffs, dtype), np.array(data, dtype))):
            got = f.matmul(c, d)
            assert got.dtype.kind in "iu", (dtype, got.dtype)
            assert got.tolist() == expect, dtype


@pytest.mark.parametrize("f", DTYPE_FIELDS, ids=lambda f: f.describe())
def test_matmul_rejects_entries_outside_the_field_in_every_dtype(f):
    for dtype in DTYPES:
        bad = [v for v in (f.order, -1, 1 << 63)
               if np.iinfo(dtype).min <= v <= np.iinfo(dtype).max]
        if dtype is np.uint64:
            assert 1 << 63 in bad
        for v in bad:
            with pytest.raises(ValueError):
                f.matmul([[1, 1]], np.array([[1, 2], [v, 0]], dtype))
            with pytest.raises(ValueError):
                f.matmul(np.array([[1, v]], dtype), np.array([[1], [2]], dtype))


@pytest.mark.parametrize("dtype", [list, np.uint16, np.int32, np.uint32, np.int64, np.uint64])
def test_prime_matmul_of_maximal_values_does_not_overflow(dtype):
    # q - 1 = -1, so n products of (q - 1)^2 sum to n; the raw sum is n * 2^32.
    f = prime_field(65521)
    n = 4096
    coeffs = np.full((8, n), f.order - 1)
    data = np.full((n, 3), f.order - 1)
    if dtype is not list:
        coeffs, data = coeffs.astype(dtype), data.astype(dtype)
    got = f.matmul(coeffs if dtype is not list else coeffs.tolist(),
                   data if dtype is not list else data.tolist())
    assert got.dtype.kind in "iu"
    assert got.tolist() == [[n] * 3] * 8


@pytest.mark.parametrize("poly", [0x11D, 0x11B])
def test_matmul_is_the_mul_table_exhaustively_in_gf256(poly):
    f = binary_field(8, poly)
    column = [[c] for c in range(256)]
    row = [list(range(256))]
    table = [[f.mul(c, v) for v in range(256)] for c in range(256)]
    for dtype in (np.uint8, np.uint16, np.int64):
        assert f.matmul(np.array(column, dtype), np.array(row, dtype)).tolist() == table


def test_matmul_reaches_the_table_edges_in_gf65536():
    f = binary_field(16)
    q = f.order
    top = f._exp[q - 2]  # log(top) = q - 2, the largest log of a nonzero element
    assert f._log[top] == q - 2
    # log(top) + log(top) is the last index of exp two nonzero factors reach;
    # log(top) + log(0), the sentinel, is the last entry of the table.
    assert 2 * (q - 2) < 2 * (q - 1) <= (q - 2) + f._log_np[0] == len(f._exp_np) - 1
    values = [0, 1, 2, top, q - 1, 0x8000, 0xABCD]
    coeffs = [
        [1, 0, 0, 0],
        [top, 0, 0, 0],
        [0, top, 1, 0],     # zeros mixed with nonzeros
        [top, 0, top, 0x1234],
        [0, 0, 0, 0],
    ]
    data = [values, values[::-1], [top] * len(values), [v ^ 0x5555 for v in values]]
    got = f.matmul(coeffs, np.array(data, dtype=np.uint16))
    assert got.dtype == np.uint16
    assert got.tolist() == scalar_matmul(f, coeffs, data)
    assert f.matmul([[top]], [[top]]).tolist() == [[clmul_oracle(top, top, f.poly)]]
    assert f.matmul([[top]], [[0]]).tolist() == [[0]]


@pytest.mark.parametrize("elements", [1, 5, 48, 64, 1 << 16])
def test_matmul_column_chunks_agree_with_scalar_products(elements, monkeypatch):
    """Any chunk width (1, 1, 8, 10 and all 37 columns here), partial last chunks included."""
    monkeypatch.setattr("srb.field._CHUNK_ELEMENTS", elements)
    rng = random.Random(14)
    for f in (binary_field(8), binary_field(16)):
        coeffs = [[rng.choice((0, rng.randrange(f.order))) for _ in range(6)] for _ in range(4)]
        data = [[rng.randrange(f.order) for _ in range(37)] for _ in range(6)]
        got = f.matmul(coeffs, np.array(data, dtype=np.uint16))
        assert got.tolist() == scalar_matmul(f, coeffs, data)
