"""Reed-Solomon decoding over arbitrary evaluation points.

Welch-Berlekamp decoding of an evaluation-style codeword: given n pairs
(x_i, y_i) with distinct x_i, recover the coefficient vector of the unique
polynomial of degree < dim that agrees with all but at most
e = (n - dim) // 2 of them.  No structure is assumed on the evaluation
points, so this works for any set of node encoder coefficients.

A decoded polynomial is accepted only if it agrees with at least n - e of
the supplied points; with at most e corruptions that polynomial is unique,
so a success is never a silently wrong answer within the error budget.

rs_decode decodes one word by Welch-Berlekamp alone; with zero slack
(e = 0) its system is plain interpolation with a consistency check.
rs_decode_many, the one batched decoder, decodes many words sharing one
point set, word for word as rs_decode would, into one words x dim integer
array; it never builds Python ints per word.  It holds the only fast path
(interpolate every word from its first dim points, check the rest); words
that fail it are decoded by blame-then-erasure, which against at most e
lying points runs Welch-Berlekamp at most e times.  solve_linear and
invert_matrix share one Gauss-Jordan elimination.
"""

from __future__ import annotations

import numpy as np

from .errors import DecodeFailure
from .field import Field


def _row_reduce(field: Field, aug: list[list[int]], n_cols: int) -> list[int]:
    """Gauss-Jordan on the first n_cols columns of aug, in place.

    Each pivot row is scaled to a leading 1 and cleared from every other
    row; rows without a pivot end up below the pivot rows.  Returns the
    pivot columns, one per pivot row, in row order.
    """
    n_rows = len(aug)
    pivot_cols: list[int] = []
    for col in range(n_cols):
        rank = len(pivot_cols)
        pivot = next((i for i in range(rank, n_rows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = field.inv(aug[rank][col])
        aug[rank] = [field.mul(inv, v) for v in aug[rank]]
        lead = aug[rank]
        for i in range(n_rows):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(aug[i], lead)]
        pivot_cols.append(col)
        if len(pivot_cols) == n_rows:
            break
    return pivot_cols


def solve_linear(field: Field, rows: list[list[int]], rhs: list[int]) -> list[int] | None:
    """One solution of rows * x = rhs by Gauss-Jordan, or None if inconsistent.

    Free variables are set to zero. The system may be over- or
    under-determined.
    """
    n_cols = len(rows[0]) if rows else 0
    aug = [row[:] + [r] for row, r in zip(rows, rhs)]
    pivot_cols = _row_reduce(field, aug, n_cols)
    if any(row[-1] != 0 for row in aug[len(pivot_cols):]):
        return None
    solution = [0] * n_cols
    for row, col in zip(aug, pivot_cols):
        solution[col] = row[-1]
    return solution


def invert_matrix(field: Field, matrix: list[list[int]]) -> list[list[int]] | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(matrix)
    aug = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(matrix)]
    if len(_row_reduce(field, aug, n)) < n:
        return None
    return [row[n:] for row in aug]


def poly_divmod(field: Field, num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of polynomial division; coefficients ascending."""
    den = den[:]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = num[:]
    while rem and rem[-1] == 0:
        rem.pop()
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
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def _agreement(field: Field, coeffs: list[int], points: list[tuple[int, int]]) -> int:
    return sum(1 for x, y in points if field.poly_eval(coeffs, x) == y)


def rs_decode(field: Field, points: list[tuple[int, int]], dim: int) -> list[int]:
    """Recover the length-dim coefficient vector behind noisy evaluations.

    Corrects up to (len(points) - dim) // 2 wrong values; with zero slack the
    Welch-Berlekamp system is plain interpolation.  Raises DecodeFailure when no
    polynomial of degree < dim agrees with enough points, ValueError on
    malformed input (too few points, duplicate evaluation points).
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

    # Welch-Berlekamp: find Q, E with deg Q < dim + e, E monic of degree e,
    # such that Q(x_i) = y_i * E(x_i) for all i; then the message is Q / E.
    q_terms = dim + e
    rows = []
    rhs = []
    for x, y in zip(xs, ys):
        powers = field.vandermonde_row(x, q_terms)
        row = powers[:q_terms] + [field.neg(field.mul(y, powers[j])) for j in range(e)]
        rows.append(row)
        rhs.append(field.mul(y, powers[e]))
    solution = solve_linear(field, rows, rhs)
    if solution is None:
        raise DecodeFailure("no consistent codeword within the error budget")
    q_poly = solution[:q_terms]
    e_poly = solution[q_terms:] + [1]
    quot, rem = poly_divmod(field, q_poly, e_poly)
    if rem:
        raise DecodeFailure("no consistent codeword within the error budget")
    if len(quot) > dim:
        raise DecodeFailure("no consistent codeword within the error budget")
    coeffs = quot + [0] * (dim - len(quot))
    if _agreement(field, coeffs, points) < n - e:
        raise DecodeFailure("no consistent codeword within the error budget")
    return coeffs


def _interpolate_from(field: Field, powers: list[list[int]], points: list[int], words):
    """Coefficients of every word (a column of words) from its values at points."""
    base = invert_matrix(field, [powers[i] for i in points])
    if base is None:  # distinct xs make the Vandermonde block regular
        raise DecodeFailure("interpolation failed")
    return field.matmul(base, words[points])


def rs_decode_many(
    field: Field,
    xs: list[int],
    ys_list,
    dim: int,
) -> np.ndarray:
    """Decode many received words sharing one evaluation-point set.

    ys_list holds one word of len(xs) values per row: nested sequences of
    ints or a 2-d integer array.  Returns a words x dim integer array whose
    row w is exactly what rs_decode returns for word w, and raises
    DecodeFailure exactly when rs_decode fails on some word.

    Every word is first interpolated from its first dim points and evaluated
    at the rest, as two products over all words at once.  A word that agrees
    with fewer than n - e points is dirty.  While dirty words are left, the
    first one is decoded by Welch-Berlekamp (rs_decode), and the positions
    where its codeword differs from it join a blame set: within the error
    budget they are lying evaluation points.  The remaining dirty words are
    then interpolated in one product from the first dim points outside the
    blame set, i.e. decoded as erasures, and each is accepted if it agrees
    with at least n - e points.  Words that corrupt a fixed set of at most e
    positions (Byzantine helpers or nodes) thus cost at most e Welch-Berlekamp
    runs per call, however many words they touch.
    """
    n = len(xs)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n < dim:
        raise ValueError(f"need at least dim={dim} points, got {n}")
    if len(set(xs)) != n:
        raise ValueError("duplicate evaluation points")
    threshold = n - (n - dim) // 2
    powers = [field.vandermonde_row(x, dim) for x in xs]
    received = np.asarray(ys_list, dtype=np.int64).reshape(len(ys_list), n).T
    coeffs = _interpolate_from(field, powers, list(range(dim)), received)
    hits = (field.matmul(powers[dim:], coeffs) == received[dim:]).sum(axis=0)
    out = coeffs.T.copy()
    dirty = np.flatnonzero(hits < threshold - dim)
    blamed: set[int] = set()
    while dirty.size:
        w, dirty = dirty[0], dirty[1:]
        word = received[:, w].tolist()
        decoded = rs_decode(field, list(zip(xs, word)), dim)
        out[w] = decoded
        codeword = field.matmul(powers, [[c] for c in decoded])[:, 0].tolist()
        blamed.update(i for i in range(n) if codeword[i] != word[i])
        trusted = [i for i in range(n) if i not in blamed][:dim]
        if not dirty.size or len(trusted) < dim:
            continue
        words = received[:, dirty]
        fixed = _interpolate_from(field, powers, trusted, words)
        ok = (field.matmul(powers, fixed) == words).sum(axis=0) >= threshold
        out[dirty[ok]] = fixed[:, ok].T
        dirty = dirty[~ok]
    return out
