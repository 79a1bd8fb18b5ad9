"""Product-matrix minimum-bandwidth-regenerating code, one stripe at a time.

The message matrix M is alpha x alpha and symmetric: a symmetric k x k block
U, a k x (alpha-k) block V, V transposed below U, and a zero block in the
bottom-right corner.  A node with encoder coefficient gamma stores the row
psi^T M where psi = [1, gamma, ..., gamma^(alpha-1)].  Because M is
symmetric, a helper can serve the single symbol psi_target^T M psi_helper
from its own row alone, and a new node recovers its full row from
alpha + 2p such symbols by Reed-Solomon decoding, tolerating p corrupt
helpers.  Any k + 2p full rows recover the message, again tolerating p
liars.

message_layout fixes where each of the L message symbols sits in M: its
first k rows, [U V], as one k x alpha array of message indices, built once
per (k, alpha).  build_message_matrix and extract_message here, and the bulk
encode and reconstruct in srb.codec, all read that one array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DecodeFailure, IntegrityError
from .field import Field
from .rs import rs_decode


def message_length(k: int, alpha: int) -> int:
    """Free entries of the message matrix: k*alpha - k*(k-1)/2."""
    return k * alpha - k * (k - 1) // 2


@dataclass(frozen=True)
class MbrParams:
    """Code parameters at the MBR point (beta = 1, so d = alpha).

    n is the current number of nodes; pass None in contexts where only the
    per-operation arities matter (e.g. when params are rebuilt from a file
    header).
    """

    k: int
    alpha: int
    n: int | None = None
    p: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.alpha < self.k:
            raise ValueError("alpha must be >= k")
        if self.p < 0:
            raise ValueError("p must be >= 0")
        # With k <= alpha, this also keeps the reconstruction degree k+2p below n.
        if self.n is not None and self.alpha + 2 * self.p > self.n - 1:
            raise ValueError(
                f"repair degree alpha+2p={self.alpha + 2 * self.p} needs n-1 helpers, n={self.n}"
            )

    @property
    def message_length(self) -> int:
        return message_length(self.k, self.alpha)

    @property
    def repair_degree(self) -> int:
        return self.alpha + 2 * self.p

    @property
    def reconstruct_degree(self) -> int:
        return self.k + 2 * self.p


@dataclass(frozen=True)
class NodeRow:
    """One node's stored stripe symbols: psi(gamma)^T M."""

    gamma: int
    symbols: tuple[int, ...]


# Layouts kept built per process.  Headers are untrusted and name (k, alpha),
# so the cache is bounded, like the field tables; as k * alpha <= 2L, a layout
# takes at most 16 bytes per message index, four times its header's pad words.
@functools.lru_cache(maxsize=16)
def message_layout(k: int, alpha: int) -> np.ndarray:
    """M's first k rows, [U V], as a read-only k x alpha array of message indices.

    U's upper triangle is numbered row-major 0 .. k(k+1)/2 - 1 and mirrored
    below its diagonal, then V row-major with the rest, up to L - 1.  M's
    other rows, [V^T 0], are implied.  Built once per (k, alpha), in O(L).
    """
    first = np.empty((k, alpha), np.intp)
    rows, cols = np.triu_indices(k)
    first[rows, cols] = first[cols, rows] = np.arange(len(rows))
    first[:, k:] = np.arange(len(rows), message_length(k, alpha)).reshape(k, alpha - k)
    first.flags.writeable = False
    return first


def build_message_matrix(field: Field, msg: list[int], params: MbrParams) -> list[list[int]]:
    """Arrange L message symbols into the symmetric matrix [[U, V], [V^T, 0]]."""
    want, alpha = params.message_length, params.alpha
    if len(msg) != want:
        raise ValueError(f"expected {want} message symbols, got {len(msg)}")
    for v in msg:
        field.check(v)
    matrix = [[0] * alpha for _ in range(alpha)]
    for i, row in enumerate(message_layout(params.k, alpha).tolist()):
        for j, g in enumerate(row):
            matrix[i][j] = matrix[j][i] = msg[g]
    return matrix


def extract_message(field: Field, matrix: list[list[int]], params: MbrParams) -> list[int]:
    """Inverse of build_message_matrix; validates the structural invariants."""
    alpha, k = params.alpha, params.k
    if len(matrix) != alpha or any(len(row) != alpha for row in matrix):
        raise ValueError(f"matrix must be {alpha}x{alpha}")
    for i in range(alpha):
        for j in range(i + 1, alpha):
            if matrix[i][j] != matrix[j][i]:
                raise IntegrityError(f"matrix is not symmetric at ({i},{j})")
    for i in range(k, alpha):
        for j in range(k, alpha):
            if matrix[i][j] != 0:
                raise IntegrityError(f"bottom-right block is nonzero at ({i},{j})")
    out = [0] * params.message_length
    for i, row in enumerate(message_layout(k, alpha).tolist()):
        for j, g in enumerate(row):
            out[g] = field.check(matrix[i][j])
    return out


def row_times_matrix(field: Field, psi: list[int], matrix: list[list[int]]) -> list[int]:
    """psi^T M; exactly len(psi)**2 field multiplications."""
    width = len(matrix)
    out = []
    for j in range(width):
        acc = 0
        for i, c in enumerate(psi):
            acc = field.add(acc, field.mul(c, matrix[i][j]))
        out.append(acc)
    return out


def encode_node(field: Field, matrix: list[list[int]], gamma: int) -> NodeRow:
    """The row stored by the node with encoder coefficient gamma."""
    psi = field.vandermonde_row(gamma, len(matrix))
    return NodeRow(gamma, tuple(row_times_matrix(field, psi, matrix)))


def repair_share(field: Field, helper: NodeRow, target_gamma: int) -> int:
    """The helper's contribution to repairing the node at target_gamma.

    Computable from the helper's stored row alone; equals
    psi_target^T M psi_helper by symmetry of M.
    """
    if helper.gamma == target_gamma:
        raise ValueError("a node cannot serve a repair share to itself")
    psi = field.vandermonde_row(target_gamma, len(helper.symbols))
    acc = 0
    for c, s in zip(psi, helper.symbols):
        acc = field.add(acc, field.mul(c, s))
    return acc


def secure_repair(
    field: Field,
    shares: list[tuple[int, int]],
    target_gamma: int,
    params: MbrParams,
) -> NodeRow:
    """Rebuild a node's row from alpha + 2p helper shares, <= p of them corrupt.

    The shares (gamma_j, s_j) are evaluations at gamma_j of the polynomial
    whose coefficients are M psi_target, so a (alpha+2p, alpha) RS decode
    recovers the row exactly.
    """
    if len(shares) != params.repair_degree:
        raise ValueError(f"need alpha + 2p = {params.repair_degree} shares, got {len(shares)}")
    helper_gammas = [g for g, _ in shares]
    if len(set(helper_gammas)) != len(helper_gammas):
        raise ValueError("duplicate helper coefficients")
    if target_gamma in helper_gammas:
        raise ValueError("the target cannot be one of its own helpers")
    try:
        coeffs = rs_decode(field, list(shares), params.alpha)
    except DecodeFailure as exc:
        raise DecodeFailure("repair failed: error budget exceeded") from exc
    return NodeRow(target_gamma, tuple(coeffs))


def secure_reconstruct(field: Field, rows: list[NodeRow], params: MbrParams) -> list[int]:
    """Recover all L message symbols from k + 2p rows, <= p of them corrupt.

    Step 1 decodes each column of V from the trailing alpha-k coordinates;
    step 2 subtracts the V^T contribution from the leading k coordinates and
    decodes each column of U.  U's symmetry is verified afterwards as a free
    integrity check.
    """
    k, alpha = params.k, params.alpha
    if len(rows) != params.reconstruct_degree:
        raise ValueError(f"need k + 2p = {params.reconstruct_degree} rows, got {len(rows)}")
    gammas = [r.gamma for r in rows]
    if len(set(gammas)) != len(gammas):
        raise ValueError("duplicate node coefficients")
    for r in rows:
        if len(r.symbols) != alpha:
            raise ValueError(f"rows must carry alpha = {alpha} symbols")

    # Step 1: V, column by column (empty when alpha == k).
    v_cols: list[list[int]] = []
    for c in range(alpha - k):
        pts = [(r.gamma, r.symbols[k + c]) for r in rows]
        try:
            v_cols.append(rs_decode(field, pts, k))
        except DecodeFailure as exc:
            raise DecodeFailure("reconstruction failed: error budget exceeded") from exc

    # Step 2: subtract the V^T contribution, then decode U's columns.
    powers = {r.gamma: field.vandermonde_row(r.gamma, alpha) for r in rows}
    u_cols: list[list[int]] = []
    for c in range(k):
        pts = []
        for r in rows:
            pw = powers[r.gamma]
            corr = 0
            for b in range(alpha - k):
                corr = field.add(corr, field.mul(pw[k + b], v_cols[b][c]))
            pts.append((r.gamma, field.sub(r.symbols[c], corr)))
        try:
            u_cols.append(rs_decode(field, pts, k))
        except DecodeFailure as exc:
            raise DecodeFailure("reconstruction failed: error budget exceeded") from exc

    for i in range(k):
        for j in range(i + 1, k):
            if u_cols[j][i] != u_cols[i][j]:
                raise IntegrityError("recovered U block is not symmetric")

    matrix = [[0] * alpha for _ in range(alpha)]
    for i in range(k):
        for j in range(k):
            matrix[i][j] = u_cols[j][i]
        for c in range(alpha - k):
            matrix[i][k + c] = v_cols[c][i]
            matrix[k + c][i] = v_cols[c][i]
    return extract_message(field, matrix, params)
