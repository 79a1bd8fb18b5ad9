"""Block-level coding: striping, per-node coded state, repair shares, files.

Raw blocks are opaque byte strings.  They are zero-padded to a common
block_size, chunked big-endian into field symbols ("stripes"), and each
stripe position forms an independent message matrix.  stripe_blocks returns
the symbols as one read-only L x Z array (a StripeSet), a view of the padded
bytes that encode multiplies as it stands; reconstruct hands its recovered
L x Z array back through unstripe_blocks.  A node's coded state
is its alpha coded blocks (one row symbol per stripe), carried in a
self-describing header that is sufficient to serve repair shares with no
other context.  encode_nodes encodes a generation for a list of nodes with
one striping.  Several nodes take two products, of their stacked Vandermonde
rows with the message blocks gathered into [S; T^T] and T, because with
M = [[S, T], [T^T, 0]] a node's row psi^T M is [psi^T [S; T^T], psi[:k]^T T].
One node takes one product of alpha sparse coefficient rows with the L x Z
blocks while alpha <= Z, so that the rows are no larger than the blocks,
and the block form past that (see encode_nodes); encode_generation is the
one-node case.  Both forms, and reconstruct's return to message order,
index the one layout srb.mbr.message_layout builds once per (k, alpha): M's
first k rows as a k x alpha array of message indices, so no layout work
grows with alpha^2.

File formats (version 1, header integers little-endian, symbols big-endian):

  node state:   "SRB1" | version u16 | field kind u8 | field param u32 |
                k u16 | alpha u16 | gamma u32 | generation u32 |
                block_size u32 | Z u32 | L u32 | L x (pad length u32) |
                alpha*Z symbols
  repair share: same header (gamma = the helper's), then target gamma u32,
                then Z symbols

The pad-length words record each block's original byte length so that
de-striping is exact.

Two rules decide what is checked and copied, so that no payload is checked
or copied more than once:
  - outside input is checked, and its payload copied, on entry: the public
    constructors, and so parsing and dataclasses.replace, check the header
    rules below and that the payload has its shape and holds field elements;
  - a derived object (encode_nodes' states, serve_repair's shares, a
    bootstrap's state) takes the header fields of an object that passed the
    checks, and its gamma is checked by the operation that computed it:
    encode's gammas by Field.vandermonde, a bootstrap's target on entry to
    bootstrap_payloads, and serve_repair's gamma is its state's.  Only a
    share's target gamma, which it sets afresh, is checked again.  Its
    payload is a product or decode of checked operands, so it is not
    checked again: an array that owns its memory and is already uint16 is
    adopted as it stands, and any other (a view, such as a row of a larger
    product, or a prime field's int64 product) is copied once, so that no
    object keeps another's rows alive.
The header rules (every header is untrusted input: up to p helpers are
Byzantine):
  - (k, alpha) are valid MBR parameters (1 <= k <= alpha) and fit u16;
  - gamma, and a share's target gamma, are elements of the field;
  - a share's target gamma differs from its helper gamma;
  - generation and block_size fit u32;
  - Z = ceil(block_size / stripe symbol bytes);
  - there are exactly L = k*alpha - k(k-1)/2 pad lengths, one per block,
    each in [0, block_size].  encode_nodes takes its blocks' lengths as the
    pad lengths, so these two rules are its block count and block length
    checks, and their messages name blocks.

A node state's payload is one read-only alpha x Z uint16 array and a
share's one of length Z.  Encode, serve, decode and the file I/O use it as
it stands and never build Python ints in bulk.  The .blocks and .symbols
views return tuples of Python ints, built on each access, for scalar code
and tests.

Decoding goes through srb.rs.rs_decode_many, batched over the words of a
slice of stripes.  Stripes are independent message matrices, so bootstrap
and reconstruct walk Z in slices of _SLICE_SYMBOLS // (n * alpha) stripes
for n shares or states, and write each slice into an output allocated up
front: bootstrap decodes a slice's words of the shares into its alpha x Z
state, reconstruct a slice's (alpha-k) words of V per stripe and then,
with the V^T term subtracted by Field.subtract, its k words of U per
stripe, into the blocks' rows.  Every temporary is slice-sized, so the
memory a decode needs above its input and output does not grow with the
block size.  Each bootstrap or reconstruct builds one srb.rs.DecodeSetup,
the one object its decode keeps from call to call: the gammas, checked
(distinct field elements, else ValueError), their Vandermonde rows, the
Lagrange bases and the blame set.  Every rs_decode_many call of that
decode takes it, so blame-then-erasure keeps a bootstrap or a reconstruct
against p liars to at most p runs of the per-word fallback, rs_decode (a
bounded-distance decode by Gao's algorithm), however many slices they
corrupt.  Each decode has one array core over a checked header, the n
gammas and the n payloads, given as a list of arrays or as one array:
bootstrap_payloads, which the simulator feeds from shares_from_target's
n x Z product, and reconstruct_payloads.  bootstrap_node and
reconstruct_generation, the list forms, check their items' headers and
hand the core their payloads as they stand.  Each slice stacks only its own
stripes of the payloads, so no decode copies its whole input.  Integrity
checks on the recovered message wait until every slice has decoded, so a
decode failure anywhere wins over them.  In GF(2^m) the payloads stay
uint16 through every product and decode; nothing on this path widens them.
srb.mbr is the one-stripe scalar reference that the tests compare this
module against.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import DecodeFailure, IntegrityError
from .field import Field, field_from_header
from .mbr import MbrParams, message_layout
from .rs import DecodeSetup, rs_decode_many

MAGIC = b"SRB1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<HBIHHIIIII")
_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF

# Bootstrap and reconstruct take _SLICE_SYMBOLS // (n * alpha) stripes at a
# time from n shares or states.  A reconstruct slice thus holds at most
# _SLICE_SYMBOLS input symbols (alpha per state and stripe), a bootstrap
# slice _SLICE_SYMBOLS / alpha (one per share and stripe), so every decode
# temporary is a few MB whatever the block size.  A generation at k=5,
# alpha=8 and 2 KiB blocks (n * alpha * Z = 80 * 1024 to bootstrap) decodes
# in one slice; k=30, alpha=50 reconstructs 655 stripes per slice.
_SLICE_SYMBOLS = 1 << 20


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


@dataclass(frozen=True, eq=False)
class StripeSet:
    """Blocks chopped into per-stripe field symbols."""

    z: int
    symbol_bytes: int
    symbols: np.ndarray              # L x Z, one row of big-endian symbols per block
    pad_lengths: tuple[int, ...]     # original byte length per block


def stripe_blocks(blocks: list[bytes], field: Field, block_size: int) -> StripeSet:
    """Pad blocks to block_size and pack their bytes big-endian into symbols.

    symbols is a read-only view of the padded bytes.  Raises ValueError if a
    block is longer than block_size or packs into a symbol outside field.
    """
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
    return StripeSet(z, sb, symbols, tuple(len(block) for block in blocks))


def unstripe_blocks(stripes: StripeSet) -> list[bytes]:
    """Exact inverse of stripe_blocks; symbols may be any integer array.

    Raises ValueError if a symbol does not fit in symbol_bytes bytes.
    """
    rows, sb = stripes.symbols, stripes.symbol_bytes
    if rows.size and ((rows.dtype.kind != "u" and rows.min() < 0)
                      or (np.iinfo(rows.dtype).max >= 256**sb and rows.max() >= 256**sb)):
        raise ValueError(f"a stripe symbol does not fit in {sb} block byte(s)")
    rows = rows.astype(_dtype(sb), copy=False)
    return [row.tobytes()[:length] for row, length in zip(rows, stripes.pad_lengths)]


@dataclass(frozen=True)
class GenerationHeader:
    """The generation a node state or repair share belongs to, and its gamma.

    Every instance is a valid header: __post_init__ runs on construction, on
    parse, on dataclasses.replace and on every encode, and is the one place
    that decides.  A subclass object derived by _derived copies the fields
    of a header that passed it, with a gamma its caller checked, and takes
    the payload the codec computed for it (see _derived).
    """

    field: Field
    k: int
    alpha: int
    gamma: int
    generation: int
    block_size: int
    z: int
    pad_lengths: tuple[int, ...]

    @classmethod
    def _derived(cls, source: GenerationHeader, gamma: int, payload: np.ndarray, *rest):
        """A cls on source's checked header, with gamma and payload as its own.

        gamma is not checked: the caller computed it and checked it on its
        way in (see the module docstring).  _finish(*rest) sets and checks
        the subclass's other fields, as the constructor does.  payload,
        computed by the codec from checked operands, is not checked: an
        array that owns its memory and is already uint16 is adopted,
        read-only and uncopied, so the caller hands it over and writes to it
        no more; any other array (a view, or an int64 prime-field product)
        is copied once.
        flags.owndata makes that test: np.ascontiguousarray would pass a
        view of a larger array through, and keep all of it alive.
        """
        obj = cls.__new__(cls)
        for name in _HEADER_FIELDS:
            object.__setattr__(obj, name, getattr(source, name))
        object.__setattr__(obj, "gamma", gamma)
        obj._finish(*rest)
        if not (payload.flags.owndata and payload.dtype == np.uint16):
            payload = payload.astype(np.uint16, order="C")
        payload.flags.writeable = False
        object.__setattr__(obj, "payload", payload)
        return obj

    def _finish(self):
        """Set and check the fields a subclass adds to the header, but its payload."""

    def __post_init__(self):
        want_l = MbrParams(self.k, self.alpha).message_length
        if self.alpha > _U16_MAX:  # k <= alpha
            raise ValueError(f"alpha={self.alpha} does not fit a u16 header field")
        self.field.check(self.gamma)
        for name in ("generation", "block_size"):
            if not 0 <= getattr(self, name) <= _U32_MAX:
                raise ValueError(f"{name}={getattr(self, name)} does not fit a u32 header field")
        want_z = symbols_per_block(self.field, self.block_size)
        if self.z != want_z:
            raise ValueError(f"Z={self.z} does not match block_size={self.block_size} (Z={want_z})")
        if self.message_count != want_l:
            raise ValueError(
                f"{self.message_count} blocks; (k, alpha) = ({self.k}, {self.alpha}) "
                f"needs L = {want_l}"
            )
        for i, pad in enumerate(self.pad_lengths):
            if not 0 <= pad <= self.block_size:
                raise ValueError(f"block {i} is {pad} bytes; block_size is {self.block_size}")

    @property
    def message_count(self) -> int:
        return len(self.pad_lengths)

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
# A header's fields but its gamma, as one tuple: what the items of one
# bootstrap or reconstruct must share.
_common_fields = operator.attrgetter(*(name for name in _HEADER_FIELDS if name != "gamma"))


def _frozen_payload(obj: GenerationHeader, data, shape: tuple[int, ...], what: str) -> None:
    """Set obj's payload to data (nested ints or an integer array) as a new read-only uint16 array.

    The public constructors, and so parsing and dataclasses.replace, take
    every payload through here: outside input is checked, and copied, once
    on entry.  The copy keeps a caller's later writes to its own array from
    reaching the object.  Raises ValueError unless data has the given shape
    and obj.field.elements accepts it.  _derived does neither for what the
    codec computed itself.
    """
    arr = np.asarray(data)
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}; its header needs {shape}")
    out = obj.field.elements(arr).astype(np.uint16, order="C")
    out.flags.writeable = False
    object.__setattr__(obj, "payload", out)


@dataclass(frozen=True, init=False, eq=False)
class CodedNodeState(GenerationHeader):
    """One node's stored data for one generation.

    payload holds the alpha coded blocks as the rows of a read-only alpha x Z
    uint16 array.  The constructor takes it as blocks= (nested ints or an
    array, checked and copied); blocks= wins over payload=, so that
    dataclasses.replace(state, blocks=...) replaces the payload.  A state
    that encode or bootstrap derives adopts the array they computed for it.
    """

    payload: np.ndarray

    def __init__(self, *, blocks=None, payload=None, **header):
        super().__init__(**header)
        data = payload if blocks is None else blocks
        _frozen_payload(self, data, (self.alpha, self.z), "a node state")

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

    gamma is the helper's coefficient, target_gamma the joining node's; a
    share whose target gamma is its own gamma is refused with ValueError, so
    no share (served, parsed or replaced) is self-targeted.  payload is the
    coded block as a read-only uint16 array of length Z, taken as symbols=
    the way CodedNodeState takes blocks=.
    """

    target_gamma: int
    payload: np.ndarray

    def __init__(self, *, target_gamma, symbols=None, payload=None, **header):
        super().__init__(**header)
        self._finish(target_gamma)
        data = payload if symbols is None else symbols
        _frozen_payload(self, data, (self.z,), "a repair share")

    def _finish(self, target_gamma):
        object.__setattr__(self, "target_gamma", self.field.check(target_gamma))
        if self.target_gamma == self.gamma:
            raise ValueError("a node cannot serve a repair share to itself")

    @property
    def symbols(self) -> tuple[int, ...]:
        """The payload as a tuple of Z Python ints, built on each access."""
        return tuple(self.payload.tolist())

    def payload_bytes(self) -> int:
        return self.z * stored_symbol_bytes(self.field)

    def header_bytes(self) -> int:
        return share_header_size(self.message_count)


def encode_nodes(
    blocks: list[bytes],
    gammas: list[int],
    params: MbrParams,
    field: Field,
    generation: int = 0,
    *,
    block_size: int,
) -> list[CodedNodeState]:
    """Encode one generation of L blocks for every node in gammas, in order.

    Per stripe, node gamma stores psi(gamma)^T M_s; stripes are independent
    and the output is deterministic and byte-exact for identical inputs.
    Over all stripes at once that is a product with the striped blocks, in
    one of two forms:

      - sparse: alpha coefficient rows per node over the L x Z blocks; coded
        block j is the sum over the cells (i, j) of M of psi_i times the
        message block housed there.  With first = message_layout(k, alpha),
        row j takes psi_i at first[i, j] for i < k and, for j < k, at
        first[j, i] for i >= k: two array assignments.
      - block: M = [[S, T], [T^T, 0]] makes psi^T M equal to
        [psi^T [S; T^T], phi^T T] with phi = psi[:k].  The blocks are
        gathered once, by first[:, :k] over first[:, k:]^T and by
        first[:, k:], into [S; T^T] (alpha x k*Z) and T (k x (alpha-k)*Z),
        and two products make every state: the stacked psi rows against the
        first, the stacked phi rows against the second (none when k ==
        alpha).  That is one row per node in each product, over k*Z and
        (alpha-k)*Z columns.

    The rule: several nodes take the block form, which shares one gather
    among them.  One node takes the sparse form, the faster one in GF(2^m)
    at small L, only while alpha <= Z: then its dense alpha x L coefficient
    rows are no larger than the L x Z blocks.  Past that (a wide alpha over
    short blocks, up to k=1, alpha=65535 over empty blocks) those rows would
    grow as alpha * L, so one node takes the block form too, whose gathers
    are O(L * Z).  The one node's state adopts its sparse product as it
    stands; in the block form each state copies its own rows of the n x
    alpha x Z product, so no state keeps another's rows alive.

    The generation's header (k, alpha, generation, block_size, Z and the
    blocks' lengths as its pad lengths) is built and checked first, then
    every gamma, and only then are the blocks striped, so a value no header
    can hold is refused before any block is padded.  The header is the one
    check of the block count ("{n} blocks; ... needs L = {L}") and of each
    block's length ("block {i} is {n} bytes; block_size is {b}").  Every
    state is derived from that header.
    """
    k, alpha = params.k, params.alpha
    header = GenerationHeader(field=field, k=k, alpha=alpha, gamma=0, generation=generation,
                              block_size=block_size, z=symbols_per_block(field, block_size),
                              pad_lengths=tuple(len(b) for b in blocks))
    psis = field.vandermonde(gammas, alpha)
    stripes = stripe_blocks(blocks, field, block_size)
    first, n, z = message_layout(k, alpha), len(gammas), stripes.z
    if n == 1 and alpha <= z:
        # coded block j is row j: psi_i at the index of each cell (i, j) of M,
        # first[i, j] for i < k and, by symmetry, first[j, i] for i >= k
        rows = np.zeros((alpha, len(blocks)), psis.dtype)
        rows[np.arange(alpha), first] = psis[0, :k, None]
        rows[np.arange(k)[:, None], first[:, k:]] = psis[0, k:]
        coded = [field.matmul(rows, stripes.symbols)]  # handed to the one state uncopied
    else:
        coded = np.empty((n, alpha, z), np.uint16)
        left = stripes.symbols[np.concatenate((first[:, :k], first[:, k:].T))]
        coded[:, :k] = field.matmul(psis, left.reshape(alpha, k * z)).reshape(n, k, z)
        if k < alpha:
            right = stripes.symbols[first[:, k:]].reshape(k, (alpha - k) * z)
            coded[:, k:] = field.matmul(psis[:, :k], right).reshape(n, alpha - k, z)
    return [CodedNodeState._derived(header, gamma, rows) for gamma, rows in zip(gammas, coded)]


def encode_generation(
    blocks: list[bytes],
    gamma: int,
    params: MbrParams,
    field: Field,
    generation: int = 0,
    *,
    block_size: int,
) -> CodedNodeState:
    """Encode one generation of L blocks into one node's alpha coded blocks.

    encode_nodes for the single node at gamma.
    """
    return encode_nodes(blocks, [gamma], params, field, generation, block_size=block_size)[0]


def serve_repair(state: CodedNodeState, target_gamma: int) -> RepairShare:
    """The linear combination this node sends to the node at target_gamma.

    M is symmetric, so that is the payload target_gamma would serve this
    node: shares_from_target's product for the one gamma.
    """
    (symbols,) = shares_from_target(state, [target_gamma])
    return RepairShare._derived(state, state.gamma, symbols, target_gamma)


def shares_from_target(state: CodedNodeState, helper_gammas: list[int]) -> np.ndarray:
    """The payloads the nodes at helper_gammas serve to state's node, from its own state.

    M is symmetric, so the share helper h sends to target t,
    psi(h)^T M psi(t), is also psi(h)^T times t's coded state psi(t)^T M
    (Rashmi, Shah, Kumar, IEEE T-IT 57(8), 2011): row i equals the payload
    of serve_repair(encode_generation(blocks, helper_gammas[i], ...), t).
    All of them are one product of the helpers' Vandermonde rows with
    state's payload, returned as a new writable n x Z array: uint16 in
    GF(2^m), int64 in a prime field.  Raises ValueError for a helper gamma
    outside the field; bootstrap_payloads refuses one equal to state's gamma.
    """
    f = state.field
    return f.matmul(f.vandermonde(helper_gammas, state.alpha), state.payload)


def _decode_inputs(items: list[GenerationHeader], what: str) -> tuple:
    """(head, gammas, payloads) of a list form's items, for its array core.

    head is the first item, once every item's header but its gamma equals
    it; gammas and payloads are the items' own, in order, uncopied.
    """
    if not items:
        raise ValueError(f"no {what}s supplied")
    common = _common_fields(items[0])
    if any(_common_fields(it) != common for it in items[1:]):
        raise ValueError(f"{what} headers disagree")
    return items[0], [it.gamma for it in items], [it.payload for it in items]


def _decode(setup: DecodeSetup, words: np.ndarray, what: str) -> np.ndarray:
    """The setup.dim coefficients of each column of words (n x words), as dim x words.

    A DecodeFailure is raised again as the failure of what.
    """
    try:
        return rs_decode_many(setup, words.T).T
    except DecodeFailure as exc:
        raise DecodeFailure(f"{what} failed: error budget exceeded") from exc


def _slices(z: int, n: int, alpha: int) -> list[slice]:
    """The stripe ranges a decode over n shares or states of alpha rows walks."""
    step = max(1, _SLICE_SYMBOLS // (n * alpha))
    return [slice(start, start + step) for start in range(0, z, step)]


def bootstrap_payloads(head: GenerationHeader, target_gamma: int, helper_gammas: list[int],
                       payloads: np.ndarray | list[np.ndarray], p: int = 0) -> CodedNodeState:
    """Rebuild the coded state of the node at target_gamma from alpha + 2p payloads.

    head is a checked header of the generation; its gamma is not read.
    payloads is n payloads, a list of integer arrays of length Z or one
    n x Z array, payload i the coded block the node at helper_gammas[i]
    sent.  They are not checked against any header, so they must come from
    checked shares (bootstrap_node) or from products of checked rows
    (shares_from_target).  The result, head's header with target_gamma as
    its gamma, is byte-identical to what encode_generation would have
    produced for target_gamma.  The Z words are decoded in slices of
    stripes, each stacked from its own stripes of the payloads, with one
    DecodeSetup for all of them, into one alpha x Z array, which the state
    adopts as its payload.  Raises DecodeFailure when more than p payloads
    are corrupt, ValueError on a negative p, a count other than alpha + 2p,
    a target_gamma outside the field or equal to a helper gamma, or helper
    gammas that are not distinct field elements; target_gamma is checked on
    entry, before any slice decodes.
    """
    need = MbrParams(head.k, head.alpha, p=p).repair_degree
    if len(helper_gammas) != need:
        raise ValueError(f"need alpha + 2p = {need} shares, got {len(helper_gammas)}")
    head.field.check(target_gamma)
    if target_gamma in helper_gammas:
        raise ValueError("the target cannot be one of its own helpers")
    setup = DecodeSetup(head.field, helper_gammas, head.alpha)
    out = np.empty((head.alpha, head.z), np.uint16)
    for part in _slices(head.z, need, head.alpha):
        out[:, part] = _decode(setup, np.stack([row[..., part] for row in payloads]), "repair")
    return CodedNodeState._derived(head, target_gamma, out)


def bootstrap_node(shares: list[RepairShare], target_gamma: int, p: int = 0) -> CodedNodeState:
    """Rebuild a node's full coded state from alpha + 2p repair shares.

    The list form of bootstrap_payloads: the shares must agree on every
    header field but the helper's gamma and be produced for target_gamma,
    and each slice reads their payloads as they stand.  Raises
    DecodeFailure when more than p shares are corrupt, ValueError on a
    negative p, a share count other than alpha + 2p, inconsistent share
    headers, a share for another target or a helper given twice.
    """
    head, gammas, payloads = _decode_inputs(shares, "share")
    if any(s.target_gamma != target_gamma for s in shares):
        raise ValueError("share was produced for a different target")
    return bootstrap_payloads(head, target_gamma, gammas, payloads, p)


def reconstruct_payloads(head: GenerationHeader, gammas: list[int],
                         payloads: np.ndarray | list[np.ndarray], p: int = 0) -> list[bytes]:
    """Recover the original L raw blocks from the payloads of k + 2p node states.

    head is a checked header of the generation; its gamma is not read.
    payloads is n payloads, a list of alpha x Z integer arrays or one
    n x alpha x Z array, payload i the coded state of the node at gammas[i].
    Like bootstrap_payloads, it checks no payload against any header, so
    they must come from checked states (reconstruct_generation).
    Stripes are independent message matrices, so they are decoded in slices
    of stripes, each stacked from its own stripes of the payloads.  Each
    slice takes two batched decodes, as srb.mbr.secure_reconstruct does per
    stripe: first V's columns, then, with the V^T term subtracted, U's.  All
    of them share one DecodeSetup, so a state blamed in one decode is erased
    in every later one.
    The decoded [U V] rows return to message order by one gather, at the
    cells of message_layout on or above its diagonal.
    The recovered message rows go into arrays of whole blocks allocated up
    front, a group of rows each, which are turned into bytes one group at a
    time: above its input and output, a reconstruct holds slice-sized
    temporaries and one group.
    Raises DecodeFailure when more than p states are corrupt and no codeword
    is within budget (in any slice, before any IntegrityError), IntegrityError
    when the recovered U is not symmetric or a recovered symbol does not fit
    in block bytes, ValueError on a negative p, a count other than k + 2p or
    gammas that are not distinct field elements.
    """
    f, k, alpha, z, pads = head.field, head.k, head.alpha, head.z, head.pad_lengths
    params = MbrParams(k, alpha, p=p)
    if len(gammas) != params.reconstruct_degree:
        raise ValueError(f"need k + 2p = {params.reconstruct_degree} states, got {len(gammas)}")
    n, width = len(gammas), alpha - k
    setup = DecodeSetup(f, gammas, k, width=alpha)
    # the cell of [U V] that houses each message index, once on or above the diagonal
    upper = np.triu(np.ones((k, alpha), bool))
    cells = np.empty(len(pads), np.intp)
    cells[message_layout(k, alpha)[upper]] = np.flatnonzero(upper)
    sb = stripe_symbol_bytes(f)
    step = max(1, _SLICE_SYMBOLS // max(1, z))
    groups = [(start, np.empty((len(pads[start : start + step]), z), _dtype(sb)))
              for start in range(0, len(pads), step)]

    def decode_slice(part: slice) -> tuple[bool, bool]:
        """Decode the stripes in part into the groups; is U symmetric, does every symbol fit?

        Its temporaries die when it returns, before the next slice's are made.
        """
        received = np.stack([row[..., part] for row in payloads])
        s = received.shape[2]
        # V: node i's trailing alpha-k coordinates, one word per (column,
        # stripe), are evaluations at gamma_i of V's columns.
        v = _decode(setup, received[:, k:].reshape(n, width * s), "reconstruction")
        v = v.reshape(k, width, s)
        # U: node i's leading coordinate c is psi_i[:k] . U[:, c] plus
        # psi_i[k:] . V[c, :]; subtract the V^T term, then decode U's columns.
        vt_term = f.matmul(setup.rows[:, k:], v.transpose(1, 0, 2).reshape(width, k * s))
        u = _decode(setup, f.subtract(received[:, :k].reshape(n, k * s), vt_term),
                    "reconstruction").reshape(k, k, s)
        message = np.concatenate([u, v], axis=1).reshape(k * alpha, s)[cells]
        for start, group in groups:  # a symbol too wide wraps here, and is refused below
            group[:, part] = message[start : start + len(group)]
        return np.array_equal(u, u.transpose(1, 0, 2)), message.max(initial=0) < 256**sb

    checks = [decode_slice(part) for part in _slices(z, n, alpha)]
    # Only now, so that a decode failure in any slice wins over these.
    if not all(symmetric for symmetric, _ in checks):
        raise IntegrityError("recovered U block is not symmetric")
    if not all(fits for _, fits in checks):
        raise IntegrityError("recovered message symbols do not fit in block bytes")
    blocks = []
    while groups:
        start, group = groups.pop(0)
        blocks += unstripe_blocks(StripeSet(z, sb, group, pads[start : start + len(group)]))
    return blocks


def reconstruct_generation(states: list[CodedNodeState], p: int = 0) -> list[bytes]:
    """Recover the original L raw blocks from k + 2p coded node states.

    The list form of reconstruct_payloads: the states must agree on every
    header field but their gamma, and each slice reads their payloads as
    they stand.  Raises as reconstruct_payloads does, and ValueError on no
    states or inconsistent state headers.
    """
    return reconstruct_payloads(*_decode_inputs(states, "state"), p)


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
