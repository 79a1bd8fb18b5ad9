"""Reed-Solomon decoding over arbitrary evaluation points.

Bounded-distance decoding of an evaluation-style codeword: given n pairs
(x_i, y_i) with distinct x_i, recover the coefficient vector of the unique
polynomial of degree < dim that agrees with all but at most
e = (n - dim) // 2 of them.  No structure is assumed on the evaluation
points, so this works for any set of node encoder coefficients.

rs_decode accepts a word exactly when Gao's final division r1 = f * v1
leaves no remainder and a quotient f of degree < dim, and then f agrees with
at least n - e of the points.  Proof: Bezout at each point, where the master
polynomial vanishes, gives v1(x_i) * y_i = r1(x_i) = v1(x_i) * f(x_i), so f
misses y_i only at roots of v1, and v1 != 0 has degree at most e.  With at
most e corruptions that f is unique, so a success is never a silently wrong
answer within the error budget.

Every solve is O(n^2) scalar field arithmetic; there is no elimination.
The module keeps field.py's one rule: check once at the boundary, then
compute unchecked.  Its three public entries are that boundary: rs_decode
checks every point and value on entry, DecodeSetup its points and
rs_decode_many its values.  Nothing else checks again; the private helpers
below them (the Lagrange basis, polynomial division, the cofactor update)
take checked input and run on the field's unchecked_ops.  A product with
one word (an interpolant, a codeword) is a scalar dot product, since
Field.matmul's fixed cost per row exceeds it at every decode shape.
_lagrange_basis gives a point set's master polynomial prod(x - x_i) and the
inverse of its Vandermonde block, whose columns are the Lagrange basis.
rs_decode decodes one word by Gao's algorithm: interpolate the word, run
the extended Euclidean algorithm on the master polynomial and the
interpolant until the remainder has degree below (n + dim) / 2, and divide
the remainder by its Bezout cofactor; with zero slack (e = 0) that is
interpolation with a consistency check.  It is the per-word reference and
depends on nothing below it.

rs_decode_many, the one batched decoder, decodes many words over the
point set of a DecodeSetup, word for word as rs_decode would, into one
words x dim integer array; it never builds Python ints per word.  Like
rs_decode, it checks that every value of every word is a field element, in
one Field.elements call on entry.  It holds
the only interpolate-then-check step, which decodes every word from dim
trusted points and checks the rest; words that fail it are decoded by
blame-then-erasure, which against at most e lying points runs rs_decode at
most e times.

A DecodeSetup is everything one decode keeps from one rs_decode_many call
to the next, as the codec's decode of one generation does across its
stripe slices: the checked points and dim, their Vandermonde rows, the
Lagrange basis of each trusted set, built once, and the blame set, so that
a liar found in one call is erased in every later one and costs one
rs_decode run in all.  It lives for one decode; nothing is cached across
them.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import DecodeFailure
from .field import Field


def _trim(poly: list[int]) -> list[int]:
    """poly without its trailing zero coefficients, in place."""
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_submul(field: Field, a: list[int], q: list[int], b: list[int]) -> list[int]:
    """a - q * b as a new list, trimmed."""
    _, sub, mul = field.unchecked_ops()
    out = a + [0] * (len(q) + len(b) - 1 - len(a))
    for i, qi in enumerate(q):
        for j, bj in enumerate(b):
            out[i + j] = sub(out[i + j], mul(qi, bj))
    return _trim(out)


def _lagrange_basis(field: Field, xs: list[int]) -> tuple[list[int], list[list[int]]]:
    """The master polynomial prod(x - x_i) of distinct points xs, and the
    inverse of their Vandermonde block (row i is [x_i^j for j < n]).

    Column i of the inverse is the Lagrange basis polynomial of x_i, one at
    x_i and zero at the other points: the master polynomial divided by
    (x - x_i), scaled by the inverse of that quotient's value at x_i.
    Coefficients ascend; O(n^2) field operations, all unchecked: the callers
    pass checked points.
    """
    add, sub, mul = field.unchecked_ops()
    n = len(xs)
    master = [1]
    for x in xs:  # master * (x - x_i): shift up, add the product by -x_i
        minus_x = sub(0, x)
        master = [add(high, mul(low, minus_x)) for high, low in zip([0] + master, master + [0])]
    columns = []
    for x in xs:
        quot = [0] * n
        acc = 0
        for j in range(n, 0, -1):  # synthetic division by (x - x_i)
            acc = add(master[j], mul(acc, x))
            quot[j - 1] = acc
        value = 0
        for c in reversed(quot):  # Horner: the quotient at x_i
            value = add(mul(value, x), c)
        scale = field.inv(value)
        columns.append([mul(scale, c) for c in quot])
    return master, [list(row) for row in zip(*columns)]


def _matvec(field: Field, matrix: list[list[int]], vector: list[int]) -> list[int]:
    """matrix x vector over field, for entries known to be field elements."""
    add, _, mul = field.unchecked_ops()
    return [reduce(add, map(mul, row, vector), 0) for row in matrix]


def _poly_divmod(field: Field, num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of polynomial division; coefficients ascending.

    For trimmed num and den != [] of field elements, unchecked; a num
    shorter than den gives the quotient [].
    """
    _, sub, mul = field.unchecked_ops()
    rem = list(num)
    lead_inv = field.inv(den[-1])
    quot = [0] * (len(rem) - len(den) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        if len(rem) < len(den) + shift:
            continue
        coeff = mul(rem[len(den) + shift - 1], lead_inv)
        quot[shift] = coeff
        if coeff != 0:
            for i, d in enumerate(den):
                rem[i + shift] = sub(rem[i + shift], mul(coeff, d))
        _trim(rem)
    return quot, rem


def _checked_points(field: Field, xs: list[int], dim: int) -> list[int]:
    """xs as a new list, checked as the evaluation points of words of dim
    coefficients: dim >= 1, at least dim points, all distinct field elements.

    Raises ValueError otherwise.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if len(xs) < dim:
        raise ValueError(f"need at least dim={dim} points, got {len(xs)}")
    xs = [field.check(x) for x in xs]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate evaluation points")
    return xs


def rs_decode(field: Field, points: list[tuple[int, int]], dim: int) -> list[int]:
    """Recover the length-dim coefficient vector behind noisy evaluations.

    Corrects up to (len(points) - dim) // 2 wrong values by Gao's algorithm;
    with zero slack it is interpolation with a consistency check.  Raises
    DecodeFailure when no polynomial of degree < dim agrees with enough
    points, ValueError on malformed input (too few points, duplicate
    evaluation points).
    """
    n = len(points)
    xs = _checked_points(field, [x for x, _ in points], dim)
    ys = [field.check(y) for _, y in points]

    # Gao: run Euclid on the master polynomial and the word's interpolant,
    # keeping each remainder's cofactor v1 of the interpolant, until the
    # remainder's degree first drops below (n + dim) / 2.  Within the error
    # budget v1 vanishes at the corrupted points and divides the remainder
    # exactly, with the message as quotient.
    r0, inverse = _lagrange_basis(field, xs)
    r1 = _trim(_matvec(field, inverse, ys))
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= n + dim:
        quot, rem = _poly_divmod(field, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, _poly_submul(field, v0, quot, v1)
    quot, rem = _poly_divmod(field, r1, v1)
    if rem or len(quot) > dim:
        raise DecodeFailure("no consistent codeword within the error budget")
    return quot + [0] * (dim - len(quot))


class DecodeSetup:
    """One decode over one point set: what it needs before it sees a word,
    and what it learns about the points as it goes.

    Built once per decode of a generation and handed to each of its
    rs_decode_many calls (one per slice of stripes, and reconstruct's V and
    U decodes), so none of them rebuilds it.  It holds the points, checked,
    and dim; their Vandermonde block, row i [x_i^j for j < max(dim, width)],
    as one Field.vandermonde array in rows, and each row's first dim entries
    as Python ints in powers, for the scalar decoder; the agreement threshold
    n - (n - dim) // 2 that accepts a word; memoized per trusted point set,
    that set's Lagrange basis and the powers of the other points; and
    blamed, the positions (indices into xs) found lying so far, empty at
    first.  It lives as long as that one decode; nothing here is kept
    between calls of the codec.  Raises ValueError unless dim >= 1 and xs
    are at least dim distinct field elements.
    """

    def __init__(self, field: Field, xs: list[int], dim: int, width: int = 0):
        self.field, self.xs, self.dim = field, _checked_points(field, xs, dim), dim
        self.threshold = len(self.xs) - (len(self.xs) - dim) // 2
        self.blamed: set[int] = set()
        self.rows = field.vandermonde(self.xs, max(dim, width))
        self.powers = self.rows[:, :dim].tolist()
        self._checks: dict[tuple[int, ...], tuple] = {}

    def trusted(self) -> tuple[int, ...]:
        """The first dim positions, unblamed ones first, listed in ascending
        order, so that one point set is always one tuple."""
        return tuple(sorted(sorted(range(len(self.xs)), key=self.blamed.__contains__)[: self.dim]))

    def interpolate(self, points: tuple[int, ...], words):
        """Interpolate every word (a column of words) from its values at points.

        Returns the coefficients, dim x words, and a mask of the words that
        agree with at least threshold of their values: the dim interpolated
        ones and enough of the others.
        """
        if points not in self._checks:
            _, base = _lagrange_basis(self.field, [self.xs[i] for i in points])
            others = [i for i in range(len(self.xs)) if i not in points]
            self._checks[points] = np.array(base), others, self.rows[others, : self.dim]
        base, others, other_powers = self._checks[points]
        coeffs = self.field.matmul(base, words[list(points)])
        hits = (self.field.matmul(other_powers, coeffs) == words[others]).sum(axis=0)
        return coeffs, hits >= self.threshold - len(points)


def rs_decode_many(setup: DecodeSetup, ys_list) -> np.ndarray:
    """Decode many received words over setup's evaluation points.

    ys_list holds one word of len(setup.xs) values per row: nested sequences
    of ints or a 2-d integer array, used in its own dtype.  Returns a words x
    dim integer array whose row w is exactly what rs_decode returns for word
    w, and raises DecodeFailure exactly when rs_decode fails on some word.
    Raises ValueError, before any word is decoded, if a value is not a field
    element: rs_decode raises it for such a word.

    Every word is interpolated from setup.trusted(), the first dim points
    outside the blame set, and evaluated at the rest, as two products over
    all words at once.  A word that agrees with fewer than setup.threshold
    points is dirty.  While dirty words are left, the first one is decoded
    by rs_decode, and the positions where its codeword differs from it join
    setup.blamed: within the error budget they are lying evaluation points.
    If that changes the set of trusted points, the remaining dirty words are
    interpolated from them again, i.e. decoded as erasures.  Words that
    corrupt a fixed set of at most e positions (Byzantine helpers or nodes)
    thus cost at most e rs_decode runs, however many words they touch, and
    over every call that shares the setup.  Blame only chooses the points to
    interpolate from; every result agrees with at least setup.threshold
    points (counted on the first pass, guaranteed by rs_decode's division),
    so it never changes what a decode returns.
    """
    field, xs, dim = setup.field, setup.xs, setup.dim
    n = len(xs)
    received = field.elements(ys_list).reshape(len(ys_list), n).T
    tried = setup.trusted()
    coeffs, ok = setup.interpolate(tried, received)
    out = coeffs.T.copy()
    dirty = np.flatnonzero(~ok)
    while dirty.size:
        w, dirty = dirty[0], dirty[1:]
        word = received[:, w].tolist()
        decoded = rs_decode(field, list(zip(xs, word)), dim)
        out[w] = decoded
        codeword = _matvec(field, setup.powers, decoded)
        setup.blamed.update(i for i in range(n) if codeword[i] != word[i])
        if dirty.size and setup.trusted() != tried:
            tried = setup.trusted()
            fixed, ok = setup.interpolate(tried, received[:, dirty])
            out[dirty[ok]] = fixed[:, ok].T
            dirty = dirty[~ok]
    return out
