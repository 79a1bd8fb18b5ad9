import functools
import random
import re

import numpy as np
import pytest

from field_helpers import div, poly_eval, pow_
from srb.field import (
    DEFAULT_REDUCTION_POLY,
    KIND_BINARY,
    BinaryField,
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
    assert div(f, 1, 7) == pow(7, -1, 13)


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
            assert div(f, f.mul(a, b), a) == b


def test_division_by_zero():
    for f in (prime_field(13), binary_field(16)):
        with pytest.raises(ZeroDivisionError):
            div(f, 5, 0)
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


@pytest.mark.parametrize("spec", ["prime:13", "prime:65521", "binary:4", "binary:16"])
def test_checked_scalar_operations_refuse_non_elements(spec):
    # numpy scalars, floats and bools pass a bare range test: np.uint16
    # products wrap, 1.5 + 2 is 3.5 and True + True is 2.  Every checked
    # operation refuses them, as check does.
    f = parse_field(spec)
    for bad in (np.uint16(3), 1.5, True, False, -1, f.order):
        for op in (f.add, f.sub, f.mul, functools.partial(div, f)):
            with pytest.raises(ValueError):
                op(bad, 1)
            with pytest.raises(ValueError):
                op(1, bad)
    with pytest.raises(ValueError):
        f.inv(np.uint16(3))
    with pytest.raises(ValueError):
        poly_eval(f, [np.uint16(300)] * 2, 300)
    # an exponent that is not an int >= 0 is malformed input, whatever its type
    for bad in (1.5, True, -1):
        with pytest.raises(ValueError):
            pow_(f, 2, bad)


def test_vandermonde_rows():
    f = prime_field(13)
    assert f.vandermonde_row(2, 4) == [1, 2, 4, 8]
    assert f.vandermonde_row(5, 1) == [1]
    assert f.vandermonde_row(0, 3) == [1, 0, 0]
    with pytest.raises(ValueError):
        f.vandermonde_row(2, 0)


@pytest.mark.parametrize(
    "spec", ["binary:8", "binary:8:0x11b", "binary:16", "prime:13", "prime:65521"]
)
def test_vandermonde_block_is_the_stacked_rows(spec):
    """In GF(2^8) modulo 0x11b the log table's generator is not x: log 2 = 25."""
    f = parse_field(spec)
    if spec == "binary:8:0x11b":
        assert f._log[2] == 25
    rng = random.Random(16)
    points = [0, 1, f.order - 1, rng.randrange(2, f.order - 1)]
    for width in (1, 8, 52):
        block = f.vandermonde(points, width)
        assert block.shape == (len(points), width)
        assert block.dtype == (np.uint16 if f.kind == "binary" else np.int64)
        assert block.tolist() == [f.vandermonde_row(x, width) for x in points]
        for x in points:
            assert f.vandermonde([x], width).tolist() == [f.vandermonde_row(x, width)]
    assert f.vandermonde([], 3).shape == (0, 3)
    for bad in (f.order, -1, True):
        with pytest.raises(ValueError, match="is not an element of") as scalar:
            f.vandermonde_row(bad, 4)
        with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
            f.vandermonde([1, bad], 4)
    for width in (0, -1):
        with pytest.raises(ValueError, match="^width must be >= 1$"):
            f.vandermonde_row(2, width)
        with pytest.raises(ValueError, match="^width must be >= 1$"):
            f.vandermonde([2], width)


def test_poly_eval():
    f = prime_field(13)
    assert poly_eval(f, [1, 2, 4], 3) == (1 + 2 * 3 + 4 * 9) % 13
    assert poly_eval(f, [5, 7, 11], 0) == 5
    assert poly_eval(f, [9], 6) == 9
    with pytest.raises(ValueError):
        poly_eval(f, [], 1)


def test_poly_eval_matches_direct_sum():
    rng = random.Random(3)
    for f in (prime_field(257), binary_field(16)):
        for _ in range(100):
            coeffs = [rng.randrange(f.order) for _ in range(rng.randint(1, 8))]
            x = rng.randrange(f.order)
            direct = 0
            for j, c in enumerate(coeffs):
                direct = f.add(direct, f.mul(c, pow_(f, x, j)))
            assert poly_eval(f, coeffs, x) == direct


def test_pow():
    f = prime_field(13)
    assert pow_(f, 2, 0) == 1
    assert pow_(f, 0, 0) == 1
    assert pow_(f, 0, 5) == 0
    g = binary_field(16)
    assert pow_(g, 3, g.order - 1) == 1


def test_bulk_helpers_match_scalar_ops():
    rng = random.Random(5)
    for f in (prime_field(257), binary_field(16), binary_field(8, 0x11B)):
        vec_a = [rng.randrange(f.order) for _ in range(64)]
        vec_b = [rng.randrange(f.order) for _ in range(64)]
        c = rng.randrange(f.order)
        assert f.matmul([[c]], [vec_a])[0].tolist() == [f.mul(c, v) for v in vec_a]
        assert f.matmul([[1, 1]], [vec_a, vec_b])[0].tolist() == [
            f.add(x, y) for x, y in zip(vec_a, vec_b)
        ]


@pytest.mark.parametrize(
    "f",
    [prime_field(13), prime_field(257), prime_field(65521), binary_field(8), binary_field(16)],
    ids=lambda f: f.describe(),
)
def test_unchecked_ops_match_checked_ops(f):
    add, sub, mul = f.unchecked_ops()
    if f.order <= 257:
        pairs = [(a, b) for a in range(f.order) for b in range(f.order)]
    else:
        rng = random.Random(11)
        edges = [0, 1, 2, f.order - 2, f.order - 1]
        pairs = [(a, b) for a in edges for b in edges]
        pairs += [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(20000)]
    assert [add(a, b) for a, b in pairs] == [f.add(a, b) for a, b in pairs]
    assert [sub(a, b) for a, b in pairs] == [f.sub(a, b) for a, b in pairs]
    assert [mul(a, b) for a, b in pairs] == [f.mul(a, b) for a, b in pairs]


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
    assert pow_(f, 2, 51) == 1
    for a in range(256):
        for b in range(256):
            assert f.mul(a, b) == clmul_oracle(a, b, 0x11B)
        if a:
            assert clmul_oracle(a, f.inv(a), 0x11B) == 1


def test_prime_validation(monkeypatch):
    with pytest.raises(ValueError, match="^12 is not prime$"):
        prime_field(12)
    with pytest.raises(ValueError, match="^1 is not prime$"):
        prime_field(1)
    assert is_prime(65521)
    with pytest.raises(ValueError, match=re.escape("not supported (got 65537)")):
        prime_field(65537)  # above the 2^16 ceiling
    # A 31-digit modulus is refused by the ceiling, before trial division up to
    # its square root, which would not end.
    huge = 10**30 + 57
    monkeypatch.setattr("srb.field.is_prime", lambda n: pytest.fail(f"is_prime({n}) ran"))
    with pytest.raises(ValueError, match=re.escape(f"not supported (got {huge})")):
        parse_field(f"prime:{huge}")


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
    assert not gf2_is_irreducible(0)      # the zero polynomial
    assert not gf2_is_irreducible(1)      # a nonzero constant: a unit, degree 0


def test_irreducible_but_not_primitive_poly_still_works():
    # x^4 + x^3 + x^2 + x + 1 is irreducible with x of order 5, not 15.
    f = binary_field(4, 0b11111)
    assert pow_(f, 2, 5) == 1
    for a in range(16):
        for b in range(16):
            assert f.mul(a, b) == clmul_oracle(a, b, 0b11111)
        if a:
            assert f.mul(a, f.inv(a)) == 1


def walked_tables(degree, poly):
    """Generator, log list and exp list by a plain walk over the powers of
    g = 1, 2, ...: the first g whose powers, each the last times g by
    clmul_oracle, reach all q - 1 nonzero elements before returning to 1."""
    q = 1 << degree
    for g in range(1, q):
        powers = [1]
        while (v := clmul_oracle(powers[-1], g, poly)) != 1:
            powers.append(v)
        if len(powers) == q - 1:
            break
    log = [2 * (q - 1)] * q  # log(0)'s entry; every other one is set below
    for i, v in enumerate(powers):
        log[v] = i
    return g, log, powers + powers


# The default polynomials and others of every degree 1-16.  Several are not
# primitive, so x does not generate the group: 0b11111 (g = 3) and those
# marked with the generator g the walk finds.
TABLE_POLYS = list(DEFAULT_REDUCTION_POLY.items()) + [
    (1, 0b10), (1, 0b11), (3, 0b1101), (4, 0b11001), (4, 0b11111), (5, 0x25), (5, 0x29),
    (6, 0x43), (6, 0x49),  # g = 3
    (7, 0x83), (7, 0x89), (8, 0x11B), (8, 0x12B),  # 0x11B: g = 3
    (9, 0x203), (9, 0x211), (10, 0x409), (10, 0x41D),  # 0x203, 0x41D: g = 7
    (11, 0x805), (11, 0x817), (12, 0x1009), (12, 0x1033),  # g = 3, g = 13
    (13, 0x201B), (13, 0x2027), (14, 0x4021), (14, 0x402B),  # 0x4021: g = 7
    (15, 0x8003), (15, 0x8011), (16, 0x1002B), (16, 0x1002D),  # 0x1002B: g = 3
]


@pytest.mark.parametrize("degree, poly", TABLE_POLYS, ids=[f"{d}:{p:#x}" for d, p in TABLE_POLYS])
def test_tables_are_those_of_a_plain_walk(degree, poly):
    g, log, exp = walked_tables(degree, poly)
    f = BinaryField(degree, poly)
    q = f.order
    assert f._exp[1] == g
    assert f._log == log and f._exp == exp
    assert f._log_np.dtype == np.int32 and f._log_np.tolist() == log
    assert f._exp_np.dtype == np.uint16 and f._exp_np.tolist() == exp + [0] * (q - 1)


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
    with pytest.raises(ValueError, match="degree must be >= 1"):
        parse_field("binary:0")
    with pytest.raises(ValueError, match="no default reduction polynomial for degree 5"):
        parse_field("binary:5")


def test_field_cache_returns_same_object():
    assert binary_field(16) is binary_field(16)
    assert prime_field(257) is prime_field(257)
    # one table build per field, however a caller spells it
    assert binary_field(16) is field_from_header(KIND_BINARY, 0x1100B)
    assert parse_field("binary:8") is binary_field(8, 0x11D)


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


@pytest.mark.parametrize("f", DTYPE_FIELDS, ids=lambda f: f.describe())
def test_matmul_rejects_non_integer_entries(f):
    with pytest.raises(ValueError):
        f.matmul([[1]], np.array([[1.7, 2.2]]))
    with pytest.raises(ValueError):
        f.matmul(np.array([[1.0]]), [[1, 2]])
    with pytest.raises(ValueError):
        f.matmul([[1]], [[1 << 64]])  # an object array
    with pytest.raises(ValueError, match="data must be 2-dimensional"):
        f.matmul([[1]], [1])
    # empty operands hold no entries to reject, whatever their dtype
    assert f.matmul([], np.zeros((2, 3), np.uint16)).shape == (0, 3)
    assert f.matmul([[1, 1]], np.zeros((2, 0))).shape == (1, 0)


@pytest.mark.parametrize("f", DTYPE_FIELDS, ids=lambda f: f.describe())
def test_elements_keeps_integer_dtypes_that_int64_holds(f):
    data = np.array([[0, 1], [2, f.order - 1]], np.uint16)
    assert f.elements(data) is data
    for dtype, want in ((np.uint64, np.int64), (bool, np.int64), (np.int8, np.int8)):
        got = f.elements(np.array([[0, 1]], dtype))
        assert got.dtype == want and got.tolist() == [[0, 1]]
    assert f.elements([[3, 1]]).dtype == np.int64


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
        # an all-zero row, a row with no zero and a sparse one in one product
        coeffs = [[0] * 6, [rng.randrange(1, f.order) for _ in range(6)],
                  [0, rng.randrange(1, f.order), 0, 0, rng.randrange(1, f.order), 0]]
        expect = scalar_matmul(f, coeffs, data)
        for c in (coeffs, np.array(coeffs, np.uint16), np.array(coeffs, np.int64)):
            assert f.matmul(c, np.array(data, dtype=np.uint16)).tolist() == expect


@pytest.mark.parametrize("f", DTYPE_FIELDS, ids=lambda f: f.describe())
def test_subtract_is_scalar_sub_elementwise_in_every_dtype(f):
    rng = random.Random(15)
    edge = (0, 1, f.order - 1)
    a = [[rng.choice(edge + (rng.randrange(f.order),)) for _ in range(7)] for _ in range(3)]
    b = [[rng.choice(edge + (rng.randrange(f.order),)) for _ in range(7)] for _ in range(3)]
    expect = [[f.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert f.subtract(a, b).tolist() == expect
    fits = [d for d in DTYPES if f.order - 1 <= np.iinfo(d).max]
    for da in fits:
        for db in fits:
            got = f.subtract(np.array(a, da), np.array(b, db))
            assert got.dtype == (np.uint16 if f.kind == "binary" else np.int64), (da, db)
            assert got.tolist() == expect, (da, db)


@pytest.mark.parametrize("f", DTYPE_FIELDS, ids=lambda f: f.describe())
def test_subtract_rejects_other_shapes_and_entries_outside_the_field(f):
    with pytest.raises(ValueError):
        f.subtract(np.zeros((2, 3), np.uint16), np.zeros((3, 2), np.uint16))
    for bad in (f.order, -1):
        with pytest.raises(ValueError):
            f.subtract([[1, bad]], [[1, 2]])
        with pytest.raises(ValueError):
            f.subtract([[1, 2]], [[bad, 1]])


def test_elements_range_check_depends_on_whether_the_dtype_holds_the_order():
    # uint16 cannot hold 2^16: every value is an element of GF(2^16)
    top = np.array([[0, 0xFFFF]], np.uint16)
    assert binary_field(16).elements(top) is top
    assert binary_field(8).elements(np.array([[255]], np.uint8)).tolist() == [[255]]
    # but it holds 256 and 257, which are not elements of GF(2^8) or GF(257)
    for f, bad in ((binary_field(8), 256), (prime_field(257), 257), (binary_field(16), 1 << 16)):
        for dtype in (np.uint16, ">u2", np.int32, np.uint32):
            if bad <= np.iinfo(dtype).max:
                with pytest.raises(ValueError):
                    f.elements(np.array([[0, bad]], dtype))
