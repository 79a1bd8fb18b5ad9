"""Block-level coding: striping, per-node coded state, repair shares, files.

Raw blocks are opaque byte strings.  They are zero-padded to a common
block_size, chunked big-endian into field symbols ("stripes"), and each
stripe position forms an independent message matrix.  A node's coded state
is its alpha coded blocks (one row symbol per stripe), carried in a
self-describing header that is sufficient to serve repair shares with no
other context.

File formats (version 1, header integers little-endian, symbols big-endian):

  node state:   "SRB1" | version u16 | field kind u8 | field param u32 |
                k u16 | alpha u16 | gamma u32 | generation u32 |
                block_size u32 | Z u32 | L u32 | L x (pad length u32) |
                alpha*Z symbols
  repair share: same header (gamma = the helper's), then target gamma u32,
                then Z symbols

The pad-length words record each block's original byte length so that
de-striping is exact.

All bulk work runs on numpy arrays through Field.matmul; the dataclasses
hold tuples of Python ints.  srb.mbr is the one-stripe scalar reference that
the tests compare this module against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DecodeFailure
from .field import Field, field_from_header
from .mbr import MbrParams, NodeRow, message_index_matrix, secure_reconstruct
from .rs import rs_decode_many

MAGIC = b"SRB1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<HBIHHIIIII")


def stripe_symbol_bytes(field: Field) -> int:
    """Raw block bytes packed into one symbol when striping."""
    return max(1, (field.order.bit_length() - 1) // 8)


def stored_symbol_bytes(field: Field) -> int:
    """Bytes one symbol occupies in a serialized payload."""
    return ((field.order - 1).bit_length() + 7) // 8


def _dtype(symbol_bytes: int) -> str:
    """numpy dtype of one big-endian symbol of the given width (1 or 2 bytes)."""
    return ">u2" if symbol_bytes == 2 else "u1"


def state_header_size(message_count: int) -> int:
    return len(MAGIC) + _HEADER.size + 4 * message_count


def share_header_size(message_count: int) -> int:
    return state_header_size(message_count) + 4


@dataclass(frozen=True)
class StripeSet:
    """Blocks chopped into per-stripe field symbols."""

    z: int
    symbol_bytes: int
    symbols: tuple[tuple[int, ...], ...]  # one symbol vector per block
    pad_lengths: tuple[int, ...]          # original byte length per block


def _stripe_array(
    blocks: list[bytes], field: Field, block_size: int
) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """Z, the L x Z symbol array, and the block lengths; see stripe_blocks."""
    if block_size < 0:
        raise ValueError("block_size must be >= 0")
    sb = stripe_symbol_bytes(field)
    z = -(-block_size // sb)
    for i, block in enumerate(blocks):
        if len(block) > block_size:
            raise ValueError(f"block {i} is {len(block)} bytes; block_size is {block_size}")
    raw = b"".join(block.ljust(z * sb, b"\0") for block in blocks)
    symbols = np.frombuffer(raw, _dtype(sb)).reshape(len(blocks), z)
    if 256**sb > field.order:
        bad = np.flatnonzero((symbols >= field.order).any(axis=1))
        if bad.size:
            raise ValueError(f"block {bad[0]} has byte values that do not fit in {field}")
    return z, symbols, tuple(len(block) for block in blocks)


def stripe_blocks(blocks: list[bytes], field: Field, block_size: int) -> StripeSet:
    """Pad blocks to block_size and pack their bytes big-endian into symbols."""
    z, symbols, lengths = _stripe_array(blocks, field, block_size)
    return StripeSet(z, stripe_symbol_bytes(field), tuple(map(tuple, symbols.tolist())), lengths)


def unstripe_blocks(stripes: StripeSet) -> list[bytes]:
    """Exact inverse of stripe_blocks."""
    symbols = np.array(stripes.symbols, dtype=_dtype(stripes.symbol_bytes))
    return [row.tobytes()[:length] for row, length in zip(symbols, stripes.pad_lengths)]


@dataclass(frozen=True)
class CodedNodeState:
    """One node's stored data for one generation."""

    field: Field
    k: int
    alpha: int
    gamma: int
    generation: int
    block_size: int
    z: int
    pad_lengths: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]  # alpha coded blocks of Z symbols

    @property
    def message_count(self) -> int:
        return len(self.pad_lengths)

    def payload_bytes(self) -> int:
        return self.alpha * self.z * stored_symbol_bytes(self.field)

    def header_bytes(self) -> int:
        return state_header_size(self.message_count)


@dataclass(frozen=True)
class RepairShare:
    """One helper's contribution to a bootstrap: one coded block of Z symbols."""

    field: Field
    k: int
    alpha: int
    gamma: int            # the helper's coefficient
    generation: int
    block_size: int
    z: int
    pad_lengths: tuple[int, ...]
    target_gamma: int
    symbols: tuple[int, ...]

    def payload_bytes(self) -> int:
        return self.z * stored_symbol_bytes(self.field)

    def header_bytes(self) -> int:
        return share_header_size(len(self.pad_lengths))


def encode_generation(
    blocks: list[bytes],
    gamma: int,
    params: MbrParams,
    field: Field,
    generation: int = 0,
    block_size: int | None = None,
) -> CodedNodeState:
    """Encode one generation of L blocks into the node's alpha coded blocks.

    Per stripe this stores psi(gamma)^T M_s; stripes are independent and the
    output is deterministic and byte-exact for identical inputs.  Over all
    stripes at once that is one product: coded block j is the sum over the
    cells (i, j) of M of psi_i times the message block housed there.
    """
    want = params.message_length
    if len(blocks) != want:
        raise ValueError(f"a generation encodes exactly L = {want} blocks, got {len(blocks)}")
    if block_size is None:
        block_size = max((len(b) for b in blocks), default=0)
    field.check(gamma)
    z, symbols, lengths = _stripe_array(blocks, field, block_size)
    psi = field.vandermonde_row(gamma, params.alpha)
    coeffs = [[0] * want for _ in range(params.alpha)]
    for i, row in enumerate(message_index_matrix(params)):
        for j, g in enumerate(row):
            if g is not None:
                coeffs[j][g] = psi[i]
    coded = field.matmul(coeffs, symbols)
    return CodedNodeState(
        field=field,
        k=params.k,
        alpha=params.alpha,
        gamma=gamma,
        generation=generation,
        block_size=block_size,
        z=z,
        pad_lengths=lengths,
        blocks=tuple(map(tuple, coded.tolist())),
    )


def serve_repair(state: CodedNodeState, target_gamma: int) -> RepairShare:
    """The linear combination this node sends to the node at target_gamma."""
    if target_gamma == state.gamma:
        raise ValueError("a node cannot serve a repair share to itself")
    f = state.field
    tv = f.vandermonde_row(target_gamma, state.alpha)
    (symbols,) = f.matmul([tv], np.array(state.blocks).reshape(state.alpha, state.z)).tolist()
    return RepairShare(
        field=f,
        k=state.k,
        alpha=state.alpha,
        gamma=state.gamma,
        generation=state.generation,
        block_size=state.block_size,
        z=state.z,
        pad_lengths=state.pad_lengths,
        target_gamma=target_gamma,
        symbols=tuple(symbols),
    )


def _common_header(items, what: str):
    head = (
        items[0].field,
        items[0].k,
        items[0].alpha,
        items[0].generation,
        items[0].block_size,
        items[0].z,
        items[0].pad_lengths,
    )
    for it in items[1:]:
        if (it.field, it.k, it.alpha, it.generation, it.block_size, it.z, it.pad_lengths) != head:
            raise ValueError(f"{what} headers disagree")
    return head


def bootstrap_node(shares: list[RepairShare], target_gamma: int, p: int = 0) -> CodedNodeState:
    """Rebuild a node's full coded state from alpha + 2p repair shares.

    The result is byte-identical to what encode_generation would have
    produced for target_gamma.  Raises DecodeFailure when more than p shares
    are corrupt, ValueError on inconsistent share headers.
    """
    if not shares:
        raise ValueError("no shares supplied")
    f, k, alpha, generation, block_size, z, pads = _common_header(shares, "share")
    if len(shares) != alpha + 2 * p:
        raise ValueError(f"need alpha + 2p = {alpha + 2 * p} shares, got {len(shares)}")
    for s in shares:
        if s.target_gamma != target_gamma:
            raise ValueError("share was produced for a different target")
    xs = [s.gamma for s in shares]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate helper coefficients")
    if target_gamma in xs:
        raise ValueError("the target cannot be one of its own helpers")
    received = np.array([s.symbols for s in shares]).reshape(len(shares), z)
    try:
        rows = rs_decode_many(f, xs, received.T, alpha)
    except DecodeFailure as exc:
        raise DecodeFailure("repair failed: error budget exceeded") from exc
    coded = tuple(zip(*rows)) if z else ((),) * alpha
    return CodedNodeState(
        field=f,
        k=k,
        alpha=alpha,
        gamma=target_gamma,
        generation=generation,
        block_size=block_size,
        z=z,
        pad_lengths=pads,
        blocks=coded,
    )


def reconstruct_generation(states: list[CodedNodeState], p: int = 0) -> list[bytes]:
    """Recover the original L raw blocks from k + 2p coded node states."""
    if not states:
        raise ValueError("no states supplied")
    f, k, alpha, generation, block_size, z, pads = _common_header(states, "state")
    if len(states) != k + 2 * p:
        raise ValueError(f"need k + 2p = {k + 2 * p} states, got {len(states)}")
    gammas = [s.gamma for s in states]
    if len(set(gammas)) != len(gammas):
        raise ValueError("duplicate node coefficients")
    params = MbrParams(k, alpha, n=None, p=p)
    message_symbols: list[list[int]] = [[] for _ in range(params.message_length)]
    for stripe in range(z):
        rows = [
            NodeRow(st.gamma, tuple(st.blocks[j][stripe] for j in range(alpha))) for st in states
        ]
        msg = secure_reconstruct(f, rows, params)
        for i, v in enumerate(msg):
            message_symbols[i].append(v)
    stripes = StripeSet(z, stripe_symbol_bytes(f), tuple(map(tuple, message_symbols)), pads)
    return unstripe_blocks(stripes)


# -- serialization -----------------------------------------------------------


def state_to_bytes(state: CodedNodeState) -> bytes:
    head = MAGIC + _HEADER.pack(
        FORMAT_VERSION,
        state.field.header_kind,
        state.field.header_param,
        state.k,
        state.alpha,
        state.gamma,
        state.generation,
        state.block_size,
        state.z,
        state.message_count,
    )
    head += struct.pack(f"<{state.message_count}I", *state.pad_lengths)
    return head + _symbol_bytes(state.blocks, state.field)


def share_to_bytes(share: RepairShare) -> bytes:
    head = MAGIC + _HEADER.pack(
        FORMAT_VERSION,
        share.field.header_kind,
        share.field.header_param,
        share.k,
        share.alpha,
        share.gamma,
        share.generation,
        share.block_size,
        share.z,
        len(share.pad_lengths),
    )
    head += struct.pack(f"<{len(share.pad_lengths)}I", *share.pad_lengths)
    head += struct.pack("<I", share.target_gamma)
    return head + _symbol_bytes(share.symbols, share.field)


def _symbol_bytes(symbols, field: Field) -> bytes:
    """Symbols (nested in row order) as stored_symbol_bytes-wide big-endian words."""
    return np.array(symbols, dtype=_dtype(stored_symbol_bytes(field))).tobytes()


def _parse_header(data: bytes, what: str):
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError(f"not an SRB1 {what} file")
    off = len(MAGIC)
    if len(data) < off + _HEADER.size:
        raise ValueError(f"truncated {what} header")
    version, kind, param, k, alpha, gamma, generation, block_size, z, count = _HEADER.unpack_from(
        data, off
    )
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    field = field_from_header(kind, param)
    off += _HEADER.size
    if len(data) < off + 4 * count:
        raise ValueError(f"truncated {what} header")
    pads = struct.unpack_from(f"<{count}I", data, off)
    off += 4 * count
    if k < 1 or alpha < k:
        raise ValueError(f"invalid parameters in {what} header (k={k}, alpha={alpha})")
    return field, k, alpha, gamma, generation, block_size, z, pads, off


def _read_symbols(
    data: bytes, off: int, rows: int, z: int, field: Field, what: str
) -> list[list[int]]:
    """rows x z symbols from the payload at off, as nested lists of ints."""
    sb = stored_symbol_bytes(field)
    if len(data) < off + rows * z * sb:
        raise ValueError(f"truncated {what} payload")
    syms = np.frombuffer(data, _dtype(sb), rows * z, off)
    if syms.size and syms.max() >= field.order:
        raise ValueError(f"{what} payload has symbols outside {field}")
    return syms.reshape(rows, z).tolist()


def state_from_bytes(data: bytes) -> CodedNodeState:
    field, k, alpha, gamma, generation, block_size, z, pads, off = _parse_header(data, "state")
    blocks = _read_symbols(data, off, alpha, z, field, "state")
    if len(data) != off + alpha * z * stored_symbol_bytes(field):
        raise ValueError("trailing bytes after state payload")
    return CodedNodeState(
        field, k, alpha, gamma, generation, block_size, z, pads, tuple(map(tuple, blocks))
    )


def share_from_bytes(data: bytes) -> RepairShare:
    field, k, alpha, gamma, generation, block_size, z, pads, off = _parse_header(data, "share")
    if len(data) < off + 4:
        raise ValueError("truncated share header")
    (target_gamma,) = struct.unpack_from("<I", data, off)
    off += 4
    (syms,) = _read_symbols(data, off, 1, z, field, "share")
    if len(data) != off + z * stored_symbol_bytes(field):
        raise ValueError("trailing bytes after share payload")
    return RepairShare(
        field, k, alpha, gamma, generation, block_size, z, pads, target_gamma, tuple(syms)
    )
