"""Exact arithmetic in small finite fields.

Field elements are plain ints in ``[0, order)``.  A :class:`Field` instance
carries the defining parameters and implements the operations: prime fields
use modular arithmetic, binary extension fields GF(2^m) use log/exp tables
over a generator of the multiplicative group of GF(2)[x] modulo an
irreducible reduction polynomial.  Scalar operations take and return Python
ints; :meth:`Field.matmul` is the one bulk kernel, multiplying a small
coefficient matrix by a numpy array of symbols.

The kernel works in the operands' own width: an integer array (the uint16
payloads, say) goes in as it is, GF(2^m) gathers through int32 log tables in
column chunks of bounded size, and no temporary the size of the data is ever
widened to 8 bytes.  GF(2^m) products come back as uint16, prime-field
products as int64.

Fields larger than 2^16 are rejected: two-byte symbols are the largest this
package stripes blocks into, and 65536 distinct encoder coefficients cover
any realistic shard.
"""

from __future__ import annotations

import functools
import math

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
    """A finite field; subclasses provide the scalar arithmetic."""

    kind: str
    order: int

    # -- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        return self.mul(a, self.inv(b))

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def pow_(self, a: int, e: int) -> int:
        """a**e by square and multiply; e must be >= 0."""
        if e < 0:
            raise ValueError("negative exponent; invert explicitly")
        result = 1
        base = self.check(a)
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def check(self, a: int) -> int:
        """Validate that a is an element of this field and return it."""
        if not (isinstance(a, int) and 0 <= a < self.order):
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
            cur = self.mul(cur, gamma)
            row.append(cur)
        return row

    def poly_eval(self, coeffs: list[int], x: int) -> int:
        """Evaluate sum(coeffs[j] * x^j) by Horner's rule."""
        if not coeffs:
            raise ValueError("empty coefficient vector")
        self.check(x)
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    # -- bulk kernel -----------------------------------------------------------

    def matmul(self, coeffs, data) -> np.ndarray:
        """The product coeffs x data over this field.

        coeffs is a small rows x n matrix of field elements, data an n x words
        integer array of any integer dtype (or nested sequences of ints); see
        _operands for which inputs are converted.  Returns a rows x words
        integer array, uint16 in GF(2^m) and int64 in a prime field, which
        bulk code keeps as an array.  Its values reach the scalar operations
        only as Python ints (``.tolist()``): numpy scalars overflow there,
        e.g. PrimeField.mul on two ``np.uint16`` wraps.  Raises ValueError if
        an operand has an entry outside the field.
        """
        raise NotImplementedError

    def _operands(self, coeffs, data) -> tuple[np.ndarray, np.ndarray]:
        """matmul's operands as integer arrays of shape (rows, n) and (n, words).

        An integer array whose values int64 holds (int8 to int64, uint8 to
        uint32) is used in its own dtype, uncopied.  Anything else becomes
        int64: nested ints, bool or float arrays as numpy converts them, and
        uint64 arrays once their range is checked, since uint64 mixed with
        int64 promotes to float64.  Raises ValueError if an entry is outside
        the field.
        """
        data = self._in_field(data)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-dimensional, got shape {data.shape}")
        coeffs = self._in_field(coeffs).reshape(len(coeffs), data.shape[0])
        return coeffs, data

    def _in_field(self, operand) -> np.ndarray:
        arr = np.asarray(operand)
        if arr.dtype.kind not in "iu":
            arr = np.asarray(operand, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.order):
            raise ValueError(f"matmul operand has entries outside {self}")
        if not np.can_cast(arr.dtype, np.int64):
            arr = arr.astype(np.int64)
        return arr

    def scale_vec(self, c: int, vec: list[int]) -> list[int]:
        """[c * v for v in vec]."""
        return self.matmul([[c]], [vec])[0].tolist()

    def add_vec(self, a: list[int], b: list[int]) -> list[int]:
        """Element-wise a + b of two equal-length vectors."""
        return self.matmul([[1, 1]], [a, b])[0].tolist()

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
        if not is_prime(modulus):
            raise ValueError(f"{modulus} is not prime")
        if modulus > MAX_ORDER:
            raise ValueError(f"fields larger than 2^16 are not supported (got {modulus})")
        self.order = modulus

    def add(self, a, b):
        q = self.order
        if not (0 <= a < q and 0 <= b < q):
            raise ValueError(f"operands {a!r}, {b!r} out of range for {self}")
        return (a + b) % q

    def sub(self, a, b):
        q = self.order
        if not (0 <= a < q and 0 <= b < q):
            raise ValueError(f"operands {a!r}, {b!r} out of range for {self}")
        return (a - b) % q

    def mul(self, a, b):
        q = self.order
        if not (0 <= a < q and 0 <= b < q):
            raise ValueError(f"operands {a!r}, {b!r} out of range for {self}")
        return (a * b) % q

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        self.check(a)
        return pow(a, -1, self.order)

    def pow_(self, a, e):
        if e < 0:
            raise ValueError("negative exponent; invert explicitly")
        return pow(self.check(a), e, self.order)

    def matmul(self, coeffs, data):
        # In int64 whatever the operands' dtypes: entries are below 2^16, so n
        # products sum below 2^63 for any n < 2^31.
        coeffs, data = self._operands(coeffs, data)
        return coeffs.astype(np.int64, copy=False) @ data % self.order

    # Bound on each field class, like its other operations, so that
    # per-class instrumentation finds them.
    scale_vec = Field.scale_vec
    add_vec = Field.add_vec

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

        Python lists serve the scalar operations; numpy copies serve matmul:
        log as int32, exp as uint16.  In the numpy tables log(0) is 2(q-1),
        and exp is zero from 2(q-1) on, so any product with a zero factor
        gathers a zero.  A log sum is at most (q-2) + 2(q-1) < 3(q-1), the
        length of exp, so int32 holds every index.
        """
        q = self.order
        for g in range(1, q):  # 1 generates only GF(2)'s group; x is 2
            powers = self._powers(g)
            if len(powers) == q - 1:
                break
        self._primitive = g == gf2_mod(0b10, self.poly)
        exp_np = np.array(powers, dtype=np.int32)
        log_np = np.empty(q, dtype=np.int32)
        log_np[exp_np] = np.arange(q - 1, dtype=np.int32)
        log_np[0] = 2 * (q - 1)
        self._log = log_np.tolist()
        self._exp = powers + powers
        self._log_np = log_np
        self._exp_np = np.zeros(3 * (q - 1), dtype=np.uint16)
        self._exp_np[: q - 1] = exp_np
        self._exp_np[q - 1 : 2 * (q - 1)] = exp_np

    def _powers(self, g: int) -> list[int]:
        """[1, g, g^2, ...] up to the first power equal to 1, excluded.

        Multiplying by g is linear over GF(2), so it is tabulated for the low
        and high byte of the multiplicand.
        """
        q = self.order
        basis = []  # g * x^j for j = 0 .. 15
        v = g
        for _ in range(16):
            basis.append(v)
            v <<= 1
            if v & q:
                v ^= self.poly
        lo, hi = _xor_span(basis[:8]), _xor_span(basis[8:])
        out = []
        v = 1
        while True:
            out.append(v)
            v = lo[v & 0xFF] ^ hi[v >> 8]
            if v == 1:
                return out

    def add(self, a, b):
        q = self.order
        if not (0 <= a < q and 0 <= b < q):
            raise ValueError(f"operands {a!r}, {b!r} out of range for {self}")
        return a ^ b

    sub = add  # characteristic 2

    def mul(self, a, b):
        q = self.order
        if not (0 <= a < q and 0 <= b < q):
            raise ValueError(f"operands {a!r}, {b!r} out of range for {self}")
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        self.check(a)
        return self._exp[self.order - 1 - self._log[a]]

    def matmul(self, coeffs, data):
        # Each row: gather exp[log(c) + log(v)] for its nonzero coefficients c,
        # then XOR the terms together.  take() beats fancy indexing here, but
        # copies its int32 indices to intp, so the columns go in chunks of
        # about _CHUNK_ELEMENTS data entries: every temporary is chunk-sized,
        # whatever the number of words.
        coeffs, data = self._operands(coeffs, data)
        log, exp = self._log_np, self._exp_np
        terms = []  # (row, its nonzero columns, their logs as a column)
        for r, row in enumerate(coeffs):
            cols = np.flatnonzero(row)
            if cols.size:
                terms.append((r, cols, log.take(row[cols])[:, None]))
        out = np.zeros((coeffs.shape[0], data.shape[1]), dtype=np.uint16)
        width = max(1, _CHUNK_ELEMENTS // max(1, data.shape[0]))
        for start in range(0, data.shape[1] if terms else 0, width):
            part = slice(start, start + width)
            logd = log.take(data[:, part])
            for r, cols, logc in terms:
                index = logd.take(cols, axis=0)
                index += logc
                out[r, part] = np.bitwise_xor.reduce(exp.take(index), axis=0)
        return out

    scale_vec = Field.scale_vec
    add_vec = Field.add_vec

    @property
    def header_param(self) -> int:
        return self.poly

    def describe(self) -> str:
        return f"binary:{self.degree}:{self.poly:#x}"


def _xor_span(vectors: list[int]) -> list[int]:
    """XOR of every subset of vectors, indexed by the subset's bitmask."""
    out = [0]
    for vec in vectors:
        out += [u ^ vec for u in out]
    return out


@functools.lru_cache(maxsize=None)
def prime_field(modulus: int) -> PrimeField:
    return PrimeField(modulus)


@functools.lru_cache(maxsize=None)
def binary_field(degree: int, poly: int | None = None) -> BinaryField:
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
