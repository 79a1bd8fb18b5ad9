"""Reed-Solomon decoding over arbitrary evaluation points.

Bounded-distance decoding of an evaluation-style codeword: given n pairs
(x_i, y_i) with distinct x_i, recover the coefficient vector of the unique
polynomial of degree < dim that agrees with all but at most
e = (n - dim) // 2 of them.  No structure is assumed on the evaluation
points, so this works for any set of node encoder coefficients.

A decoded polynomial is accepted only if it agrees with at least n - e of
the supplied points; with at most e corruptions that polynomial is unique,
so a success is never a silently wrong answer within the error budget.

Every solve is O(n^2) scalar field arithmetic; there is no elimination.
Its loops check their inputs once and then use the field's unchecked_ops,
and a product with one word (an interpolant, a codeword) is a scalar dot
product, since Field.matmul's fixed cost per row exceeds it at every
decode shape.
lagrange_basis gives a point set's master polynomial prod(x - x_i) and the
inverse of its Vandermonde block, whose columns are the Lagrange basis.
rs_decode decodes one word by Gao's algorithm: interpolate the word, run
the extended Euclidean algorithm on the master polynomial and the
interpolant until the remainder has degree below (n + dim) / 2, and divide
the remainder by its Bezout cofactor; with zero slack (e = 0) that is
interpolation with a consistency check.  rs_decode_many, the one batched
decoder, decodes many words sharing one point set, word for word as
rs_decode would, into one words x dim integer array; it never builds
Python ints per word.  It holds the only interpolate-then-check step, which
decodes every word from dim trusted points and checks the rest; words that
fail it are decoded by blame-then-erasure, which against at most e lying
points runs rs_decode at most e times.

Two things can be carried from one rs_decode_many call to the next over the
same points, as the codec does across the stripe slices of one generation:
the blame set, so that a liar found in one call is erased in every later
one and costs one rs_decode run in all, and a DecodeSetup, the points'
Vandermonde rows and the Lagrange basis of each trusted set, built once.
Both live for one decode of the codec; no basis is cached across them.
"""

from __future__ import annotations

from functools import reduce
from itertools import zip_longest

import numpy as np

from .errors import DecodeFailure
from .field import Field


def _trim(poly: list[int]) -> list[int]:
    """poly without its trailing zero coefficients, in place."""
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mul(field: Field, a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return out


def _poly_sub(field: Field, a: list[int], b: list[int]) -> list[int]:
    return _trim([field.sub(u, v) for u, v in zip_longest(a, b, fillvalue=0)])


def lagrange_basis(field: Field, xs: list[int]) -> tuple[list[int], list[list[int]]]:
    """The master polynomial prod(x - x_i) of distinct points xs, and the
    inverse of their Vandermonde block (row i is [x_i^j for j < n]).

    Column i of the inverse is the Lagrange basis polynomial of x_i, one at
    x_i and zero at the other points: the master polynomial divided by
    (x - x_i), scaled by the inverse of that quotient's value at x_i.
    Coefficients ascend; O(n^2) field operations.  The points are checked
    once on entry, and the inner loops use the field's unchecked_ops.
    """
    for x in xs:
        field.check(x)
    add, mul = field.unchecked_ops()
    n = len(xs)
    master = [1]
    for x in xs:  # master * (x - x_i): shift up, add the product by -x_i
        minus_x = field.neg(x)
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
    add, mul = field.unchecked_ops()
    return [reduce(add, map(mul, row, vector), 0) for row in matrix]


def poly_divmod(field: Field, num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of polynomial division; coefficients ascending."""
    den = _trim(den[:])
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = _trim(num[:])
    if len(rem) < len(den):
        return [], rem
    lead_inv = field.inv(den[-1])
    quot = [0] * (len(rem) - len(den) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        if len(rem) < len(den) + shift:
            continue
        coeff = field.mul(rem[len(den) + shift - 1], lead_inv)
        quot[shift] = coeff
        if coeff != 0:
            for i, d in enumerate(den):
                rem[i + shift] = field.sub(rem[i + shift], field.mul(coeff, d))
        _trim(rem)
    return quot, rem


def _agreement(field: Field, coeffs: list[int], points: list[tuple[int, int]]) -> int:
    return sum(1 for x, y in points if field.poly_eval(coeffs, x) == y)


def rs_decode(field: Field, points: list[tuple[int, int]], dim: int) -> list[int]:
    """Recover the length-dim coefficient vector behind noisy evaluations.

    Corrects up to (len(points) - dim) // 2 wrong values by Gao's algorithm;
    with zero slack it is interpolation with a consistency check.  Raises
    DecodeFailure when no polynomial of degree < dim agrees with enough
    points, ValueError on malformed input (too few points, duplicate
    evaluation points).
    """
    n = len(points)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n < dim:
        raise ValueError(f"need at least dim={dim} points, got {n}")
    xs = [field.check(x) for x, _ in points]
    ys = [field.check(y) for _, y in points]
    if len(set(xs)) != n:
        raise ValueError("duplicate evaluation points")
    e = (n - dim) // 2

    # Gao: run Euclid on the master polynomial and the word's interpolant,
    # keeping each remainder's cofactor v1 of the interpolant, until the
    # remainder's degree first drops below (n + dim) / 2.  Within the error
    # budget v1 vanishes at the corrupted points and divides the remainder
    # exactly, with the message as quotient.
    r0, inverse = lagrange_basis(field, xs)
    r1 = _trim(_matvec(field, inverse, ys))
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= n + dim:
        quot, rem = poly_divmod(field, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, _poly_sub(field, v0, _poly_mul(field, quot, v1))
    quot, rem = poly_divmod(field, r1, v1)
    if rem or len(quot) > dim:
        raise DecodeFailure("no consistent codeword within the error budget")
    coeffs = quot + [0] * (dim - len(quot))
    if _agreement(field, coeffs, points) < n - e:
        raise DecodeFailure("no consistent codeword within the error budget")
    return coeffs


class DecodeSetup:
    """What decoding words over one point set needs before it sees a word.

    Built once per decode of a generation and handed to each of its
    rs_decode_many calls (one per slice of stripes, and reconstruct's V and
    U decodes), so none of them rebuilds it: the points checked, each point's
    Vandermonde row [x^j for j < max(dim, width)] in rows and its first dim
    entries in powers, and, memoized per trusted point set, that set's
    Lagrange basis and the powers of the other points.  It lives as long as
    that one decode; nothing here is kept between calls of the codec.
    """

    def __init__(self, field: Field, xs: list[int], dim: int, width: int = 0):
        n = len(xs)
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if n < dim:
            raise ValueError(f"need at least dim={dim} points, got {n}")
        if len(set(xs)) != n:
            raise ValueError("duplicate evaluation points")
        self.field, self.xs, self.dim = field, list(xs), dim
        self.rows = [field.vandermonde_row(x, max(dim, width)) for x in xs]
        self.powers = [row[:dim] for row in self.rows]
        self._checks: dict[tuple[int, ...], tuple] = {}

    def interpolate(self, points: tuple[int, ...], words, threshold: int):
        """Interpolate every word (a column of words) from its values at points.

        Returns the coefficients, dim x words, and a mask of the words that
        agree with at least threshold of their values: the dim interpolated
        ones and enough of the others.
        """
        if points not in self._checks:
            _, base = lagrange_basis(self.field, [self.xs[i] for i in points])
            others = [i for i in range(len(self.xs)) if i not in points]
            self._checks[points] = base, others, [self.powers[i] for i in others]
        base, others, other_powers = self._checks[points]
        coeffs = self.field.matmul(base, words[list(points)])
        hits = (self.field.matmul(other_powers, coeffs) == words[others]).sum(axis=0)
        return coeffs, hits >= threshold - len(points)


def rs_decode_many(
    field: Field,
    xs: list[int],
    ys_list,
    dim: int,
    blamed: set[int] | None = None,
    setup: DecodeSetup | None = None,
) -> np.ndarray:
    """Decode many received words sharing one evaluation-point set.

    ys_list holds one word of len(xs) values per row: nested sequences of
    ints or a 2-d integer array, used in its own dtype.  Returns a words x
    dim integer array whose row w is exactly what rs_decode returns for word
    w, and raises DecodeFailure exactly when rs_decode fails on some word.

    Every word is interpolated from the first dim points outside the blame
    set (the first dim points when it is empty) and evaluated at the rest,
    as two products over all words at once.  A word that agrees with fewer
    than n - e points is dirty.  While dirty words are left, the first one
    is decoded by rs_decode, and the positions where its
    codeword differs from it join the blame set: within the error budget
    they are lying evaluation points.  If that changes the first dim
    unblamed points, the remaining dirty words are interpolated from them
    again, i.e. decoded as erasures.  Words that corrupt a fixed set of at
    most e positions (Byzantine helpers or nodes) thus cost at most e
    rs_decode runs, however many words they touch.

    blamed, if given, is the blame set to start from, as positions in xs,
    and is updated in place; setup, if given, is a DecodeSetup for these xs
    and dim.  Passing both to several calls over the same points (the
    slices of one generation, reconstruct's V and U decodes) lets a later
    call erase the positions an earlier one blamed and reuse its rows and
    bases.  Blame only chooses the points to interpolate from; every result
    is accepted by its agreement count, so it never changes what a decode
    returns.
    """
    if setup is None:
        setup = DecodeSetup(field, xs, dim)
    elif (setup.field, setup.xs, setup.dim) != (field, list(xs), dim):
        raise ValueError("setup was built for other points or another dim")
    if blamed is None:
        blamed = set()
    n = len(xs)
    threshold = n - (n - dim) // 2
    received = np.asarray(ys_list).reshape(len(ys_list), n).T

    def trusted() -> tuple[int, ...]:
        """The first dim positions, unblamed ones first."""
        return tuple(sorted(range(n), key=blamed.__contains__)[:dim])

    tried = trusted()
    coeffs, ok = setup.interpolate(tried, received, threshold)
    out = coeffs.T.copy()
    dirty = np.flatnonzero(~ok)
    while dirty.size:
        w, dirty = dirty[0], dirty[1:]
        word = received[:, w].tolist()
        decoded = rs_decode(field, list(zip(xs, word)), dim)
        out[w] = decoded
        codeword = _matvec(field, setup.powers, decoded)
        blamed.update(i for i in range(n) if codeword[i] != word[i])
        if dirty.size and trusted() != tried:
            tried = trusted()
            fixed, ok = setup.interpolate(tried, received[:, dirty], threshold)
            out[dirty[ok]] = fixed[:, ok].T
            dirty = dirty[~ok]
    return out
