"""Exact arithmetic in small finite fields.

Field elements are plain ints in ``[0, order)``.  A :class:`Field` instance
carries the defining parameters and implements the operations: prime fields
use modular arithmetic, binary extension fields GF(2^m) use log/exp tables
over a generator of the multiplicative group of GF(2)[x] modulo an
irreducible reduction polynomial.  Scalar operations take and return Python
ints, under one rule: check once at the boundary, then compute unchecked.
Each field writes add, sub, mul and inv once, as closures over its modulus or
its tables; :class:`Field` checks the operands of every public operation with
:meth:`Field.check` and then calls them, and :meth:`Field.unchecked_ops` hands
the same functions to inner loops whose operands were checked on entry.
:meth:`Field.matmul` is the one bulk kernel, multiplying a small coefficient
matrix by a numpy array of symbols, and :meth:`Field.subtract` the one
elementwise bulk operation.  :meth:`Field.vandermonde` builds the coefficient
rows [1, x, x^2, ...] of many points as one array, which GF(2^m) reads off
its log table; :meth:`Field.vandermonde_row` is its scalar reference.

The kernel works in the operands' own width: an integer array (the uint16
payloads, say) goes in as it is, GF(2^m) gathers through int32 log tables in
column chunks of bounded size, and no temporary the size of the data is ever
widened to 8 bytes.  GF(2^m) products come back as uint16, prime-field
products as int64.  :meth:`Field.elements` is the one check that an array
holds field elements, for matmul's operands and the codec's payloads alike.

Fields larger than 2^16 are rejected: two-byte symbols are the largest this
package stripes blocks into, and 65536 distinct encoder coefficients cover
any realistic shard.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable

import numpy as np

MAX_ORDER = 1 << 16

# Data entries BinaryField.matmul gathers logs for at once: 256 KB of int32
# plus take()'s 512 KB intp copy of the indices.  Temporaries this small are
# reused from the allocator's free lists call after call; a chunk of 2^17
# entries already made every 4 KiB-block encode fault ~1.7 MB of fresh pages
# in, which cost more than the gathers it saved.
_CHUNK_ELEMENTS = 1 << 16

# Reduction polynomial bitmasks (the x^m term included).  All are primitive:
# x itself generates the multiplicative group.
DEFAULT_REDUCTION_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,   # x^4 + x + 1
    8: 0x11D,     # x^8 + x^4 + x^3 + x^2 + 1
    16: 0x1100B,  # x^16 + x^12 + x^3 + x + 1
}

# Header codes used when a field spec is serialized into file headers.
KIND_PRIME = 1
KIND_BINARY = 2


def is_prime(n: int) -> bool:
    """Primality by trial division; fields here are small enough."""
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def gf2_mod(a: int, mod: int) -> int:
    """Remainder of a modulo mod, both polynomials over GF(2)."""
    deg = mod.bit_length() - 1
    while a.bit_length() - 1 >= deg and a:
        a ^= mod << (a.bit_length() - 1 - deg)
    return a


def gf2_is_irreducible(poly: int) -> bool:
    """Exhaustive divisor search; intended for degrees up to 16."""
    deg = poly.bit_length() - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if gf2_mod(poly, cand) == 0:
                return False
    return True


class Field:
    """A finite field; subclasses set the unchecked scalar arithmetic."""

    kind: str
    order: int
    # add, sub, mul and inv on field elements, unchecked: each subclass sets
    # them once as closures, which inner loops call without a bound method.
    _add: Callable[[int, int], int]
    _sub: Callable[[int, int], int]
    _mul: Callable[[int, int], int]
    _inv: Callable[[int], int]

    # -- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add(self.check(a), self.check(b))

    def sub(self, a: int, b: int) -> int:
        return self._sub(self.check(a), self.check(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul(self.check(a), self.check(b))

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._inv(a)

    def unchecked_ops(self) -> tuple[Callable[[int, int], int], ...]:
        """(add, sub, mul): the functions add, sub and mul call once their
        operands pass check.

        For scalar inner loops whose operands were checked once on entry: an
        operand outside the field gives a wrong value or an IndexError here,
        never the ValueError that add, sub and mul raise.
        """
        return self._add, self._sub, self._mul

    def check(self, a: int) -> int:
        """Validate that a is an element of this field and return it.

        Only a plain int is one: bool, numpy scalars and floats are refused.
        """
        if not (type(a) is int and 0 <= a < self.order):
            raise ValueError(f"{a!r} is not an element of {self}")
        return a

    # -- polynomial helpers ------------------------------------------------

    def vandermonde_row(self, gamma: int, width: int) -> list[int]:
        """[1, gamma, gamma^2, ..., gamma^(width-1)]."""
        if width < 1:
            raise ValueError("width must be >= 1")
        self.check(gamma)
        row = [1]
        cur = 1
        for _ in range(width - 1):
            cur = self._mul(cur, gamma)
            row.append(cur)
        return row

    def vandermonde(self, points, width: int) -> np.ndarray:
        """vandermonde_row(x, width) for each x in points, as the rows of a
        len(points) x width integer array: uint16 in GF(2^m), int64 in a
        prime field.

        Refuses a width below 1 and a point outside the field as
        vandermonde_row does.  Here the rows are stacked from it; GF(2^m)
        builds the whole block from its log table at once.
        """
        if width < 1:
            raise ValueError("width must be >= 1")
        rows = [self.vandermonde_row(x, width) for x in points]
        return np.array(rows, np.int64).reshape(len(rows), width)

    # -- bulk kernel -----------------------------------------------------------

    def matmul(self, coeffs, data) -> np.ndarray:
        """The product coeffs x data over this field.

        coeffs is a small rows x n matrix of field elements, data an n x words
        integer array of any integer dtype (or nested sequences of ints); see
        elements for which inputs are converted.  Returns a rows x words
        integer array, uint16 in GF(2^m) and int64 in a prime field, which
        bulk code keeps as an array.  Its values reach the scalar operations
        only as Python ints (``.tolist()``): numpy scalars are refused there.
        Raises ValueError if an operand has an entry that is not an element of
        the field.
        """
        raise NotImplementedError

    def subtract(self, a, b) -> np.ndarray:
        """a - b elementwise over this field, for two arrays of one shape.

        The operands are taken as elements takes them.  One pass and no table:
        XOR in GF(2^m), a difference reduced mod q in a prime field.  Returns
        matmul's dtype, uint16 in GF(2^m) and int64 in a prime field.  Raises
        ValueError if the shapes differ or an entry is not a field element.
        """
        raise NotImplementedError

    def _pair(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """subtract's operands as elements() arrays of one shape."""
        a, b = self.elements(a), self.elements(b)
        if a.shape != b.shape:
            raise ValueError(f"operands have shapes {a.shape} and {b.shape}; they must match")
        return a, b

    def _operands(self, coeffs, data) -> tuple[np.ndarray, np.ndarray]:
        """matmul's operands as elements() arrays of shape (rows, n) and (n, words)."""
        data = self.elements(data)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-dimensional, got shape {data.shape}")
        coeffs = self.elements(coeffs).reshape(len(coeffs), data.shape[0])
        return coeffs, data

    def elements(self, data) -> np.ndarray:
        """data (nested ints or an array) as an integer array of field elements.

        An integer array whose values int64 holds (int8 to int64, uint8 to
        uint32) comes back in its own dtype, uncopied.  Anything else becomes
        int64: nested ints and bool arrays as numpy converts them, an empty
        operand of any dtype, and uint64 arrays once their range is checked,
        since uint64 mixed with int64 promotes to float64.  Raises ValueError
        if an entry is not an integer or is outside the field.
        """
        arr = np.asarray(data)
        if arr.dtype.kind not in "iu":
            if arr.size and arr.dtype.kind != "b":
                raise ValueError(f"{arr.dtype} entries are not integers, so not elements of {self}")
            arr = arr.astype(np.int64)
        # min() and max() are full passes over the data: unsigned entries skip
        # the first, and a dtype too narrow to hold the order (uint16 in
        # GF(2^16)) the second.  The dtype's largest value, without np.iinfo,
        # which costs as much as max() on a small array.
        top = (1 << (8 * arr.itemsize - (arr.dtype.kind == "i"))) - 1
        if arr.size and ((arr.dtype.kind == "i" and arr.min() < 0)
                         or (top >= self.order and arr.max() >= self.order)):
            raise ValueError(f"an entry is not an element of {self}")
        if not np.can_cast(arr.dtype, np.int64):
            arr = arr.astype(np.int64)
        return arr

    # -- identity / serialization -------------------------------------------

    @property
    def header_param(self) -> int:
        raise NotImplementedError

    @property
    def header_kind(self) -> int:
        return KIND_PRIME if self.kind == "prime" else KIND_BINARY

    def describe(self) -> str:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.header_kind == other.header_kind
            and self.header_param == other.header_param
        )

    def __hash__(self) -> int:
        return hash((self.header_kind, self.header_param))

    def __repr__(self) -> str:
        return f"Field({self.describe()})"


class PrimeField(Field):
    """GF(q) for prime q."""

    kind = "prime"

    def __init__(self, modulus: int):
        # The ceiling first: trial division of a huge modulus would not end.
        if modulus > MAX_ORDER:
            raise ValueError(f"fields larger than 2^16 are not supported (got {modulus})")
        if not is_prime(modulus):
            raise ValueError(f"{modulus} is not prime")
        q = self.order = modulus
        self._add = lambda a, b: (a + b) % q
        self._sub = lambda a, b: (a - b) % q
        self._mul = lambda a, b: a * b % q
        self._inv = lambda a: pow(a, -1, q)

    def matmul(self, coeffs, data):
        # In int64 whatever the operands' dtypes: entries are below 2^16, so n
        # products sum below 2^63 for any n < 2^31.
        coeffs, data = self._operands(coeffs, data)
        return coeffs.astype(np.int64, copy=False) @ data % self.order

    def subtract(self, a, b):
        a, b = self._pair(a, b)
        out = np.subtract(a, b, dtype=np.int64)
        out %= self.order
        return out

    @property
    def header_param(self) -> int:
        return self.order

    def describe(self) -> str:
        return f"prime:{self.order}"


class BinaryField(Field):
    """GF(2^m) with an explicit irreducible reduction polynomial."""

    kind = "binary"

    def __init__(self, degree: int, poly: int | None = None):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if degree > 16:
            raise ValueError(f"fields larger than 2^16 are not supported (got degree {degree})")
        if poly is None:
            poly = DEFAULT_REDUCTION_POLY.get(degree)
            if poly is None:
                raise ValueError(f"no default reduction polynomial for degree {degree}")
        if poly.bit_length() - 1 != degree:
            raise ValueError(f"reduction polynomial {poly:#x} does not have degree {degree}")
        if not gf2_is_irreducible(poly):
            raise ValueError(f"reduction polynomial {poly:#x} is reducible")
        self.degree = degree
        self.poly = poly
        self.order = 1 << degree
        self._build_tables()

    def _build_tables(self):
        """Log/exp tables over the first generator found, trying x first.

        numpy tables serve matmul: log as int32, exp as uint16.  In them
        log(0) is 2(q-1), and exp is zero from 2(q-1) on, so any product with
        a zero factor gathers a zero.  A log sum is at most
        (q-2) + 2(q-1) < 3(q-1), the length of exp, so int32 holds every
        index.  Python lists of the same values serve the scalar operations,
        which are set here as closures over them.
        """
        q = self.order
        for g in range(1, q):  # 1 generates only GF(2)'s group; x is 2
            powers = self._powers(g)
            if powers is not None:
                break
        log_np = np.empty(q, dtype=np.int32)
        log_np[powers] = np.arange(q - 1, dtype=np.int32)
        log_np[0] = 2 * (q - 1)
        exp_np = np.concatenate((powers, powers, np.zeros(q - 1, dtype=np.uint16)))
        log = self._log = log_np.tolist()
        exp = self._exp = powers.tolist() * 2
        self._add = self._sub = operator.xor  # characteristic 2
        self._mul = lambda a, b: exp[log[a] + log[b]] if a and b else 0
        self._inv = lambda a: exp[q - 1 - log[a]]
        self._log_np, self._exp_np = log_np, exp_np

    def _powers(self, g: int) -> np.ndarray | None:
        """[1, g, g^2, ..., g^(q-2)] as uint16 if g generates the
        multiplicative group, else None.

        By doubling: the next 2^j powers are the first 2^j times g^(2^j),
        multiplied through that factor's tables for the low and high byte.
        g is no generator as soon as a power before g^(q-1) is 1.
        """
        q = self.order
        powers = np.ones(1, dtype=np.uint16)
        c = g  # g^(2^j)
        while len(powers) < q - 1:
            lo, hi = self._byte_products(c)
            head = powers[: q - 1 - len(powers)]
            block = lo[head & 0xFF] ^ hi[head >> 8]
            if (block == 1).any():
                return None
            powers = np.concatenate((powers, block))
            c = int(lo[c & 0xFF] ^ hi[c >> 8])
        return powers

    def _byte_products(self, c: int) -> np.ndarray:
        """Two uint16 tables indexed by a byte b: c * b, and c * (b << 8),
        the products with a multiplicand's low and high byte.

        Multiplying by c is linear over GF(2): c * b is the XOR of c * x^i
        over the bits i of b.
        """
        tables = np.zeros((2, 256), dtype=np.uint16)
        for table in tables:
            for i in range(8):
                table[1 << i : 2 << i] = table[: 1 << i] ^ c
                c <<= 1
                if c & self.order:
                    c ^= self.poly
        return tables

    def vandermonde(self, points, width):
        # Row x is exp[(log x * j) mod (q-1)].  Zero has no log: its row
        # comes out all ones, and is [1, 0, ..., 0].
        if width < 1:
            raise ValueError("width must be >= 1")
        xs = [self.check(x) for x in points]
        logs = np.array([self._log[x] for x in xs], np.int64)
        block = self._exp_np.take(np.multiply.outer(logs, np.arange(width)) % (self.order - 1))
        if 0 in xs:
            block[[i for i, x in enumerate(xs) if not x], 1:] = 0
        return block

    def matmul(self, coeffs, data):
        # Each row: gather exp[log(c) + log(v)] for its nonzero coefficients c,
        # then XOR the terms together.  take() beats fancy indexing here, but
        # copies its int32 indices to intp, so the columns go in chunks of
        # about _CHUNK_ELEMENTS data entries: every temporary is chunk-sized,
        # whatever the number of words.  The coefficients' logs come from one
        # take and their nonzero mask from one comparison, for every row at
        # once.  A row with no zero coefficient adds its logs to the chunk's
        # data logs without gathering its columns: at a bootstrap's small
        # products that take is a fixed cost per row and chunk.
        coeffs, data = self._operands(coeffs, data)
        log, exp = self._log_np, self._exp_np
        nonzero = coeffs != 0
        logs = log.take(coeffs)[..., None]
        terms = []  # (row, its nonzero columns or None for all, their logs as a column)
        for r, dense in enumerate(nonzero.all(axis=1).tolist()):
            if dense:
                terms.append((r, None, logs[r]))
            else:
                cols = np.flatnonzero(nonzero[r])
                if cols.size:
                    terms.append((r, cols, logs[r].take(cols, axis=0)))
        out = np.zeros((coeffs.shape[0], data.shape[1]), dtype=np.uint16)
        width = max(1, _CHUNK_ELEMENTS // max(1, data.shape[0]))
        for start in range(0, data.shape[1] if terms else 0, width):
            part = slice(start, start + width)
            logd = log.take(data[:, part])
            for r, cols, logc in terms:
                if cols is None:
                    index = logd + logc
                else:
                    index = logd.take(cols, axis=0)
                    index += logc
                out[r, part] = np.bitwise_xor.reduce(exp.take(index), axis=0)
        return out

    def subtract(self, a, b):
        a, b = self._pair(a, b)
        return np.bitwise_xor(a, b).astype(np.uint16, copy=False)

    @property
    def header_param(self) -> int:
        return self.poly

    def describe(self) -> str:
        return f"binary:{self.degree}:{self.poly:#x}"


# Fields kept built per process.  Headers are untrusted and name the field,
# and a GF(2^16) costs about 6 MB of tables, so the caches are bounded.
FIELD_CACHE_SIZE = 16


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def prime_field(modulus: int) -> PrimeField:
    return PrimeField(modulus)


def binary_field(degree: int, poly: int | None = None) -> BinaryField:
    """GF(2^degree) modulo poly, or modulo the degree's default polynomial."""
    return _binary_field(degree, DEFAULT_REDUCTION_POLY.get(degree) if poly is None else poly)


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def _binary_field(degree: int, poly: int | None) -> BinaryField:
    return BinaryField(degree, poly)


def field_from_header(kind: int, param: int) -> Field:
    """Rebuild a field from its serialized (kind, param) header pair."""
    if kind == KIND_PRIME:
        return prime_field(param)
    if kind == KIND_BINARY:
        return binary_field(param.bit_length() - 1, param)
    raise ValueError(f"unknown field kind code {kind}")


def parse_field(text: str) -> Field:
    """Parse a field spec string: 'prime:Q' or 'binary:M[:POLY]'."""
    parts = text.strip().lower().split(":")
    if parts[0] == "prime" and len(parts) == 2:
        return prime_field(int(parts[1], 0))
    if parts[0] == "binary" and len(parts) in (2, 3):
        degree = int(parts[1], 0)
        poly = int(parts[2], 0) if len(parts) == 3 else None
        return binary_field(degree, poly)
    raise ValueError(f"bad field spec {text!r}; expected 'prime:Q' or 'binary:M[:POLY]'")
