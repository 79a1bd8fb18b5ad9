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

Every header is untrusted input (up to p helpers are Byzantine), so
GenerationHeader checks it whenever one is built, parsed or replaced:
  - (k, alpha) are valid MBR parameters (1 <= k <= alpha) and fit u16;
  - gamma, and a share's target gamma, are elements of the field;
  - generation and block_size fit u32;
  - Z = ceil(block_size / stripe symbol bytes);
  - there are exactly L = k*alpha - k(k-1)/2 pad lengths, each in
    [0, block_size].

A node state's payload is one read-only alpha x Z uint16 array and a
share's one of length Z.  The constructor copies it and checks, once, its
shape and that every symbol is in the field; encode, serve, decode and the
file I/O then use that array as it stands and never build Python ints in
bulk.  The .blocks and .symbols views return tuples of Python ints, built on
each access, for scalar code and tests.

Decoding goes through srb.rs.rs_decode_many, batched over every word of a
generation: bootstrap decodes the Z words of the shares, reconstruct the
(alpha-k)*Z words of V and then the k*Z words of U, sharing one blame
set.  Its blame-then-erasure step keeps a bootstrap or a
reconstruct against p liars to at most p Welch-Berlekamp runs.  In GF(2^m)
the payloads stay uint16 through every product and decode; nothing on this
path widens them.
srb.mbr is the one-stripe scalar reference that the tests compare this
module against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import DecodeFailure, IntegrityError
from .field import Field, field_from_header
from .mbr import MbrParams, message_index_matrix, message_length
from .rs import rs_decode_many

MAGIC = b"SRB1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<HBIHHIIIII")
_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF


def stripe_symbol_bytes(field: Field) -> int:
    """Raw block bytes packed into one symbol when striping."""
    return max(1, (field.order.bit_length() - 1) // 8)


def symbols_per_block(field: Field, block_size: int) -> int:
    """Z: the stripe symbols one block of block_size bytes packs into."""
    return -(-block_size // stripe_symbol_bytes(field))


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
    z = symbols_per_block(field, block_size)
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


def _unstripe_array(symbols, symbol_bytes: int, pad_lengths: tuple[int, ...]) -> list[bytes]:
    """The blocks behind an L x Z symbol array; see unstripe_blocks."""
    rows = np.asarray(symbols)
    if rows.size and (rows.min() < 0 or rows.max() >= 256**symbol_bytes):
        raise ValueError(f"a stripe symbol does not fit in {symbol_bytes} block byte(s)")
    rows = rows.astype(_dtype(symbol_bytes))
    return [row.tobytes()[:length] for row, length in zip(rows, pad_lengths)]


def unstripe_blocks(stripes: StripeSet) -> list[bytes]:
    """Exact inverse of stripe_blocks.

    Raises ValueError if a symbol does not fit in symbol_bytes bytes.
    """
    return _unstripe_array(stripes.symbols, stripes.symbol_bytes, stripes.pad_lengths)


@dataclass(frozen=True)
class GenerationHeader:
    """The generation a node state or repair share belongs to, and its gamma.

    Every instance is a valid header: __post_init__ runs on construction, on
    parse and on dataclasses.replace, and is the one place that decides.
    """

    field: Field
    k: int
    alpha: int
    gamma: int
    generation: int
    block_size: int
    z: int
    pad_lengths: tuple[int, ...]

    def __post_init__(self):
        MbrParams(self.k, self.alpha)
        if self.alpha > _U16_MAX:  # k <= alpha
            raise ValueError(f"alpha={self.alpha} does not fit a u16 header field")
        self.field.check(self.gamma)
        for name in ("generation", "block_size"):
            if not 0 <= getattr(self, name) <= _U32_MAX:
                raise ValueError(f"{name}={getattr(self, name)} does not fit a u32 header field")
        want_z = symbols_per_block(self.field, self.block_size)
        if self.z != want_z:
            raise ValueError(f"Z={self.z} does not match block_size={self.block_size} (Z={want_z})")
        want_l = message_length(self.k, self.alpha)
        if self.message_count != want_l:
            raise ValueError(
                f"{self.message_count} pad lengths; (k, alpha) = ({self.k}, {self.alpha}) "
                f"needs L = {want_l}"
            )
        for pad in self.pad_lengths:
            if not 0 <= pad <= self.block_size:
                raise ValueError(f"pad length {pad} is outside [0, block_size={self.block_size}]")

    @property
    def message_count(self) -> int:
        return len(self.pad_lengths)

    def same_generation(self) -> tuple:
        """Every header field but gamma; equal for all inputs of one decode."""
        return (self.field, self.k, self.alpha, self.generation, self.block_size, self.z,
                self.pad_lengths)

    def _identity(self) -> tuple:
        """What == and hash compare: every field, an array payload as its bytes."""
        values = (getattr(self, f.name) for f in fields(self))
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())


_HEADER_FIELDS = tuple(f.name for f in fields(GenerationHeader))


def _header_of(h: GenerationHeader, **changes) -> dict:
    """h's header fields as constructor keywords, with changes applied."""
    return {name: getattr(h, name) for name in _HEADER_FIELDS} | changes


def _frozen_payload(data, shape: tuple[int, ...], field: Field, what: str) -> np.ndarray:
    """data (nested ints or an integer array) as a new read-only uint16 array.

    The copy keeps a caller's later writes to its own array from reaching the
    object.  Raises ValueError unless data has the given shape and every
    entry is an element of field.
    """
    arr = np.asarray(data)
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}; its header needs {shape}")
    if arr.size:
        if arr.dtype.kind not in "biu":
            raise ValueError(f"{what} holds {arr.dtype} values, not integers")
        if (arr.dtype.kind == "i" and arr.min() < 0) or arr.max() >= field.order:
            raise ValueError(f"{what} has symbols outside {field}")
    out = arr.astype(np.uint16, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, init=False, eq=False)
class CodedNodeState(GenerationHeader):
    """One node's stored data for one generation.

    payload holds the alpha coded blocks as the rows of a read-only alpha x Z
    uint16 array.  The constructor takes it as blocks= (nested ints or an
    array, copied); blocks= wins over payload=, so that
    dataclasses.replace(state, blocks=...) replaces the payload.
    """

    payload: np.ndarray

    def __init__(self, *, blocks=None, payload=None, **header):
        super().__init__(**header)
        data = _frozen_payload(payload if blocks is None else blocks, (self.alpha, self.z),
                               self.field, "a node state")
        object.__setattr__(self, "payload", data)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The payload as alpha tuples of Z Python ints, built on each access."""
        return tuple(map(tuple, self.payload.tolist()))

    def payload_bytes(self) -> int:
        return self.alpha * self.z * stored_symbol_bytes(self.field)

    def header_bytes(self) -> int:
        return state_header_size(self.message_count)


@dataclass(frozen=True, init=False, eq=False)
class RepairShare(GenerationHeader):
    """One helper's contribution to a bootstrap: one coded block of Z symbols.

    gamma is the helper's coefficient, target_gamma the joining node's.
    payload is the coded block as a read-only uint16 array of length Z, taken
    as symbols= the way CodedNodeState takes blocks=.
    """

    target_gamma: int
    payload: np.ndarray

    def __init__(self, *, target_gamma, symbols=None, payload=None, **header):
        super().__init__(**header)
        object.__setattr__(self, "target_gamma", self.field.check(target_gamma))
        data = _frozen_payload(payload if symbols is None else symbols, (self.z,),
                               self.field, "a repair share")
        object.__setattr__(self, "payload", data)

    @property
    def symbols(self) -> tuple[int, ...]:
        """The payload as a tuple of Z Python ints, built on each access."""
        return tuple(self.payload.tolist())

    def payload_bytes(self) -> int:
        return self.z * stored_symbol_bytes(self.field)

    def header_bytes(self) -> int:
        return share_header_size(self.message_count)


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
        blocks=coded,
    )


def serve_repair(state: CodedNodeState, target_gamma: int) -> RepairShare:
    """The linear combination this node sends to the node at target_gamma."""
    if target_gamma == state.gamma:
        raise ValueError("a node cannot serve a repair share to itself")
    f = state.field
    tv = f.vandermonde_row(target_gamma, state.alpha)
    (symbols,) = f.matmul([tv], state.payload)
    return RepairShare(**_header_of(state), target_gamma=target_gamma, symbols=symbols)


def _common_header(items: list[GenerationHeader], what: str) -> tuple:
    head = items[0].same_generation()
    for it in items[1:]:
        if it.same_generation() != head:
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
    received = np.stack([s.payload for s in shares])
    try:
        rows = rs_decode_many(f, xs, received.T, alpha)
    except DecodeFailure as exc:
        raise DecodeFailure("repair failed: error budget exceeded") from exc
    return CodedNodeState(**_header_of(shares[0], gamma=target_gamma), blocks=rows.T)


def reconstruct_generation(states: list[CodedNodeState], p: int = 0) -> list[bytes]:
    """Recover the original L raw blocks from k + 2p coded node states.

    Two batched decodes over all stripes, as srb.mbr.secure_reconstruct does
    per stripe: first V's columns, then, with the V^T term subtracted, U's.
    They share one blame set, so a state blamed in the first is erased in
    the second.
    Raises DecodeFailure when more than p states are corrupt and no codeword
    is within budget, IntegrityError when the recovered U is not symmetric or
    a recovered symbol does not fit in block bytes, ValueError on
    inconsistent state headers.
    """
    if not states:
        raise ValueError("no states supplied")
    f, k, alpha, generation, block_size, z, pads = _common_header(states, "state")
    if len(states) != k + 2 * p:
        raise ValueError(f"need k + 2p = {k + 2 * p} states, got {len(states)}")
    gammas = [s.gamma for s in states]
    if len(set(gammas)) != len(gammas):
        raise ValueError("duplicate node coefficients")
    params = MbrParams(k, alpha, p=p)
    n, width = len(states), alpha - k
    received = np.stack([st.payload for st in states])
    blamed: set[int] = set()  # a liar blamed in V is erased in U

    def decode(words):
        """The k coefficients of each column of words (n x words), as k x words."""
        try:
            return rs_decode_many(f, gammas, words.T, k, blamed).T
        except DecodeFailure as exc:
            raise DecodeFailure("reconstruction failed: error budget exceeded") from exc

    # V: node i's trailing alpha-k coordinates, one word per (column, stripe),
    # are evaluations at gamma_i of V's columns.
    v = decode(received[:, k:].reshape(n, width * z)).reshape(k, width, z)
    # U: node i's leading coordinate c is psi_i[:k] . U[:, c] plus
    # psi_i[k:] . V[c, :]; subtract the V^T term, then decode U's columns.
    powers = [f.vandermonde_row(g, alpha)[k:] for g in gammas]
    vt_term = f.matmul(powers, v.transpose(1, 0, 2).reshape(width, k * z))
    lead = received[:, :k].reshape(n, k * z)
    u_words = f.matmul([[1, f.neg(1)]], np.stack([lead.ravel(), vt_term.ravel()]))
    u = decode(u_words.reshape(n, k * z)).reshape(k, k, z)
    if not np.array_equal(u, u.transpose(1, 0, 2)):
        raise IntegrityError("recovered U block is not symmetric")
    top = np.concatenate([u, v], axis=1)  # the first k rows of M, per stripe
    grid = message_index_matrix(params)  # each index once on or above the diagonal
    _, rows, cols = zip(*sorted((grid[i][j], i, j) for i in range(k) for j in range(i, alpha)))
    message = top[list(rows), list(cols)]
    sb = stripe_symbol_bytes(f)
    if message.max(initial=0) >= 256**sb:
        raise IntegrityError("recovered message symbols do not fit in block bytes")
    return _unstripe_array(message, sb, pads)


# -- serialization -----------------------------------------------------------


def _pack_header(h: GenerationHeader) -> bytes:
    head = MAGIC + _HEADER.pack(
        FORMAT_VERSION,
        h.field.header_kind,
        h.field.header_param,
        h.k,
        h.alpha,
        h.gamma,
        h.generation,
        h.block_size,
        h.z,
        h.message_count,
    )
    return head + struct.pack(f"<{h.message_count}I", *h.pad_lengths)


def state_to_bytes(state: CodedNodeState) -> bytes:
    return b"".join((_pack_header(state), _stored_payload(state)))


def share_to_bytes(share: RepairShare) -> bytes:
    return b"".join((_pack_header(share), struct.pack("<I", share.target_gamma),
                     _stored_payload(share)))


def _stored_payload(h: CodedNodeState | RepairShare) -> np.ndarray:
    """The payload in row order as stored_symbol_bytes-wide big-endian words.

    bytes.join reads the array's buffer, so the file is built in one copy.
    """
    return h.payload.astype(_dtype(stored_symbol_bytes(h.field)))


def _parse_header(data: bytes, what: str) -> tuple[dict, int]:
    """The header at the start of data as constructor keywords, and its end.

    Only the framing is checked here; the constructor validates the values.
    """
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
    head = dict(field=field, k=k, alpha=alpha, gamma=gamma, generation=generation,
                block_size=block_size, z=z, pad_lengths=pads)
    return head, off + 4 * count


def _read_payload(data: bytes, off: int, count: int, field: Field, what: str) -> np.ndarray:
    """The count symbols from off to the end of data, as a read-only view.

    The constructor the view goes to checks that every symbol is in field.
    """
    sb = stored_symbol_bytes(field)
    end = off + count * sb
    if len(data) < end:
        raise ValueError(f"truncated {what} payload")
    if len(data) > end:
        raise ValueError(f"trailing bytes after {what} payload")
    return np.frombuffer(data, _dtype(sb), count, off)


def state_from_bytes(data: bytes) -> CodedNodeState:
    head, off = _parse_header(data, "state")
    alpha, z = head["alpha"], head["z"]
    payload = _read_payload(data, off, alpha * z, head["field"], "state")
    return CodedNodeState(**head, blocks=payload.reshape(alpha, z))


def share_from_bytes(data: bytes) -> RepairShare:
    head, off = _parse_header(data, "share")
    if len(data) < off + 4:
        raise ValueError("truncated share header")
    (target_gamma,) = struct.unpack_from("<I", data, off)
    payload = _read_payload(data, off + 4, head["z"], head["field"], "share")
    return RepairShare(**head, target_gamma=target_gamma, symbols=payload)
