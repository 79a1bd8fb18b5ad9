import random
from dataclasses import replace

import numpy as np
import pytest

from srb import codec, rs
from srb.errors import DecodeFailure, IntegrityError
from srb.field import binary_field, prime_field
from srb.mbr import MbrParams, build_message_matrix, encode_node, repair_share


def make_generation(f, params, rng, block_size, generation=0, gammas=None):
    blocks = [rng.randbytes(rng.randint(0, block_size)) for _ in range(params.message_length)]
    if gammas is None:
        gammas = range(params.n)
    states = [
        codec.encode_generation(blocks, g, params, f, generation=generation, block_size=block_size)
        for g in gammas
    ]
    return blocks, states


def test_symbol_widths():
    assert codec.stripe_symbol_bytes(binary_field(16)) == 2
    assert codec.stripe_symbol_bytes(prime_field(257)) == 1
    assert codec.stripe_symbol_bytes(prime_field(13)) == 1
    assert codec.stored_symbol_bytes(binary_field(16)) == 2
    assert codec.stored_symbol_bytes(prime_field(257)) == 2
    assert codec.stored_symbol_bytes(prime_field(13)) == 1


def test_stripe_packing_example():
    f = binary_field(16)
    got = codec.stripe_blocks([bytes([0xAA, 0xBB, 0xCC, 0xDD])], f, 4)
    assert got.z == 2
    assert got.symbols == ((0xAABB, 0xCCDD),)
    assert got.pad_lengths == (4,)
    # independent big-endian packing oracle
    raw = bytes([0xAA, 0xBB, 0xCC, 0xDD])
    assert list(got.symbols[0]) == [int.from_bytes(raw[i : i + 2], "big") for i in (0, 2)]


def test_stripe_empty_block_is_padding():
    f = binary_field(16)
    got = codec.stripe_blocks([b""], f, 6)
    assert got.z == 3
    assert got.symbols == ((0, 0, 0),)
    assert got.pad_lengths == (0,)


def test_stripe_oversize_rejected():
    with pytest.raises(ValueError):
        codec.stripe_blocks([b"abcde"], binary_field(16), 4)


def test_stripe_value_range_checked_for_small_fields():
    with pytest.raises(ValueError):
        codec.stripe_blocks([bytes([200])], prime_field(13), 1)
    assert codec.stripe_blocks([bytes([12])], prime_field(13), 1).symbols == ((12,),)


def test_stripe_round_trip_random():
    rng = random.Random(0)
    for f in (binary_field(16), prime_field(257)):
        for _ in range(50):
            size = rng.randint(1, 40)
            blocks = [rng.randbytes(rng.randint(0, size)) for _ in range(rng.randint(1, 6))]
            got = codec.unstripe_blocks(codec.stripe_blocks(blocks, f, size))
            assert got == blocks


@pytest.mark.parametrize(
    "symbol_bytes, symbols", [(1, ((1, 256),)), (2, ((65536, 0),)), (1, ((-1, 0),))],
    ids=["256-in-one-byte", "65536-in-two-bytes", "negative"],
)
def test_unstripe_symbol_wider_than_its_bytes_is_value_error(symbol_bytes, symbols):
    stripes = codec.StripeSet(2, symbol_bytes, symbols, (2 * symbol_bytes,))
    with pytest.raises(ValueError):
        codec.unstripe_blocks(stripes)


def test_encode_generation_reference_example():
    """Single-symbol blocks 1..9 over GF(13): node i stores psi_i^T M."""
    f = prime_field(13)
    params = MbrParams(3, 4, n=6, p=0)
    blocks = [bytes([v]) for v in range(1, 10)]
    m = build_message_matrix(f, list(range(1, 10)), params)
    for gamma in range(6):
        state = codec.encode_generation(blocks, gamma, params, f, block_size=1)
        expected = encode_node(f, m, gamma)
        assert state.z == 1
        assert tuple(b[0] for b in state.blocks) == expected.symbols


def test_encode_generation_zero_blocks():
    f = binary_field(16)
    params = MbrParams(2, 3, n=5)
    blocks = [b"\x00" * 8 for _ in range(params.message_length)]
    state = codec.encode_generation(blocks, 3, params, f, block_size=8)
    assert all(all(s == 0 for s in blk) for blk in state.blocks)


def test_encode_generation_stripe_independence():
    f = binary_field(16)
    params = MbrParams(2, 3, n=5)
    rng = random.Random(1)
    blocks = [rng.randbytes(4) for _ in range(params.message_length)]
    both = codec.encode_generation(blocks, 2, params, f, block_size=4)
    first = codec.encode_generation([b[:2] for b in blocks], 2, params, f, block_size=2)
    second = codec.encode_generation([b[2:] for b in blocks], 2, params, f, block_size=2)
    for j in range(params.alpha):
        assert both.blocks[j] == first.blocks[j] + second.blocks[j]


def test_encode_generation_wrong_arity():
    f = binary_field(16)
    with pytest.raises(ValueError):
        codec.encode_generation([b"x"], 0, MbrParams(2, 3), f, block_size=1)


def test_encode_generation_matches_per_stripe_oracle():
    f = binary_field(16)
    params = MbrParams(3, 4, n=8, p=1)
    rng = random.Random(2)
    blocks = [rng.randbytes(10) for _ in range(params.message_length)]
    state = codec.encode_generation(blocks, 5, params, f, block_size=10)
    stripes = codec.stripe_blocks(blocks, f, 10)
    for s in range(state.z):
        msg = [stripes.symbols[i][s] for i in range(params.message_length)]
        m = build_message_matrix(f, msg, params)
        row = encode_node(f, m, 5)
        assert tuple(state.blocks[j][s] for j in range(params.alpha)) == row.symbols


def test_serve_repair_examples():
    f = prime_field(13)
    params = MbrParams(2, 3, n=5)
    blocks = [bytes([v]) for v in (1, 2, 3, 4, 5)]
    state = codec.encode_generation(blocks, 2, params, f, block_size=1)
    share = codec.serve_repair(state, 3)
    assert share.symbols == (10,)
    assert codec.serve_repair(state, 0).symbols == (state.blocks[0][0],)
    with pytest.raises(ValueError):
        codec.serve_repair(state, 2)


def test_serve_repair_per_stripe_matches_mbr():
    f = binary_field(16)
    params = MbrParams(2, 3, n=5)
    rng = random.Random(3)
    blocks = [rng.randbytes(4) for _ in range(params.message_length)]
    state = codec.encode_generation(blocks, 1, params, f, block_size=4)
    share = codec.serve_repair(state, 4)
    assert share.payload_bytes() == 4  # one coded block
    stripes = codec.stripe_blocks(blocks, f, 4)
    for s in range(state.z):
        msg = [stripes.symbols[i][s] for i in range(params.message_length)]
        m = build_message_matrix(f, msg, params)
        row = encode_node(f, m, 1)
        assert share.symbols[s] == repair_share(f, row, 4)


def test_bootstrap_matches_direct_encoding():
    f = binary_field(16)
    params = MbrParams(3, 4, n=8, p=1)
    rng = random.Random(4)
    blocks, states = make_generation(f, params, rng, 32)
    target = 7
    shares = [codec.serve_repair(states[g], target) for g in range(6)]
    shares[2] = replace(shares[2], symbols=(0,) * shares[2].z)
    got = codec.bootstrap_node(shares, target, p=1)
    direct = codec.encode_generation(blocks, target, params, f, block_size=32)
    assert codec.state_to_bytes(got) == codec.state_to_bytes(direct)


def test_bootstrap_no_adversary_paper_parameters():
    for f in (prime_field(13), binary_field(16)):
        params = MbrParams(3, 4, n=6, p=0)
        blocks = [bytes([v]) for v in range(1, 10)]
        states = [
            codec.encode_generation(blocks, g, params, f, block_size=1) for g in range(1, 7)
        ]
        shares = [codec.serve_repair(states[g - 1], 6) for g in (2, 3, 4, 5)]
        got = codec.bootstrap_node(shares, 6, p=0)
        assert codec.state_to_bytes(got) == codec.state_to_bytes(states[5])


def test_bootstrap_header_mismatch_rejected():
    f = binary_field(16)
    params = MbrParams(2, 3, n=6, p=0)
    rng = random.Random(5)
    blocks, states = make_generation(f, params, rng, 16)
    other_blocks = [rng.randbytes(16) for _ in range(params.message_length)]
    other = codec.encode_generation(other_blocks, 9, params, f, generation=1, block_size=16)
    shares = [codec.serve_repair(states[g], 8) for g in (0, 1)] + [codec.serve_repair(other, 8)]
    with pytest.raises(ValueError):
        codec.bootstrap_node(shares, 8, p=0)


def test_bootstrap_wrong_share_count():
    f = binary_field(16)
    params = MbrParams(2, 3, n=6, p=1)
    rng = random.Random(6)
    _, states = make_generation(f, params, rng, 8)
    shares = [codec.serve_repair(states[g], 9) for g in range(3)]
    with pytest.raises(ValueError):
        codec.bootstrap_node(shares, 9, p=1)  # needs alpha + 2 = 5


def test_bootstrap_budget_exceeded_raises():
    f = binary_field(16)
    params = MbrParams(2, 3, n=8, p=1)
    rng = random.Random(7)
    _, states = make_generation(f, params, rng, 8)
    shares = [codec.serve_repair(states[g], 9) for g in range(5)]
    for i in (0, 1):
        shares[i] = replace(shares[i], symbols=(0,) * shares[i].z)
    with pytest.raises(DecodeFailure):
        codec.bootstrap_node(shares, 9, p=1)


def test_reconstruct_generation():
    f = binary_field(16)
    params = MbrParams(3, 4, n=8, p=1)
    rng = random.Random(8)
    blocks, states = make_generation(f, params, rng, 24)
    # p = 0: any k states
    assert codec.reconstruct_generation(states[:3], p=0) == blocks
    # p = 1 with one state fully randomized
    sel = states[2:7]
    bad = sel[1]
    garbage = tuple(
        tuple(rng.randrange(f.order) for _ in range(bad.z)) for _ in range(bad.alpha)
    )
    sel[1] = replace(bad, blocks=garbage)
    assert codec.reconstruct_generation(sel, p=1) == blocks


def test_reconstruct_runs_welch_berlekamp_once_per_liar(monkeypatch):
    """The V decode blames the zeroed state; the U decode erases it, no WB run."""
    f = binary_field(16)
    params = MbrParams(3, 5, p=1)
    blocks, states = make_generation(f, params, random.Random(9), 40, gammas=range(1, 6))
    states[1] = replace(states[1], blocks=np.zeros((params.alpha, states[1].z), dtype=np.uint16))
    calls = []
    decode = rs.rs_decode

    def counted(*args):
        calls.append(args)
        return decode(*args)

    monkeypatch.setattr(rs, "rs_decode", counted)
    assert codec.reconstruct_generation(states, p=1) == blocks
    assert len(calls) == 1


def test_reconstruct_generation_reference_parameters_any_subset():
    f = prime_field(13)
    params = MbrParams(3, 4, n=5, p=0)
    blocks = [bytes([v]) for v in range(1, 10)]
    states = [codec.encode_generation(blocks, g, params, f, block_size=1) for g in range(5)]
    import itertools

    for subset in itertools.combinations(range(5), 3):
        assert codec.reconstruct_generation([states[i] for i in subset], p=0) == blocks


def test_reconstruct_symbol_outside_block_bytes_is_integrity_error():
    """States that all lie consistently may decode to a symbol no byte packs into."""
    f = prime_field(257)
    params = MbrParams(2, 3, p=1)
    blocks = [b"\x01"] * params.message_length
    shift = build_message_matrix(f, [255] + [0] * (params.message_length - 1), params)
    states = []
    for g in range(1, 5):
        st = codec.encode_generation(blocks, g, params, f, block_size=1)
        lie = encode_node(f, shift, g).symbols  # adds 255 to the first byte: 256
        states.append(replace(st, blocks=tuple((f.add(b, d),) for (b,), d in zip(st.blocks, lie))))
    with pytest.raises(IntegrityError):
        codec.reconstruct_generation(states, p=1)


def test_end_to_end_with_bootstrapped_node():
    f = binary_field(16)
    params = MbrParams(2, 3, n=6, p=1)
    rng = random.Random(9)
    blocks, states = make_generation(f, params, rng, 2048)
    shares = [codec.serve_repair(states[g], 9) for g in range(5)]
    fresh = codec.bootstrap_node(shares, 9, p=1)
    recovered = codec.reconstruct_generation([fresh, states[0], states[3], states[4]], p=1)
    assert recovered == blocks


def test_round_trip_in_field_with_non_primitive_polynomial():
    f = binary_field(8, 0x11B)  # AES polynomial: x does not generate the group
    params = MbrParams(2, 3, n=7, p=1)
    rng = random.Random(12)
    blocks, states = make_generation(f, params, rng, 17)
    target = 7
    shares = [codec.serve_repair(states[g], target) for g in range(5)]
    shares[1] = replace(shares[1], symbols=tuple(rng.randrange(256) for _ in range(shares[1].z)))
    fresh = codec.bootstrap_node(shares, target, p=1)
    direct = codec.encode_generation(blocks, target, params, f, block_size=17)
    assert codec.state_to_bytes(fresh) == codec.state_to_bytes(direct)
    assert codec.reconstruct_generation([fresh, states[0], states[2], states[6]], p=1) == blocks


def test_state_serialization_round_trip_and_sizes():
    rng = random.Random(10)
    for f in (binary_field(16), prime_field(257), prime_field(13)):
        params = MbrParams(2, 3, n=5)
        block_size = 9
        blocks = [
            bytes(rng.randrange(min(256, f.order)) for _ in range(rng.randint(0, block_size)))
            for _ in range(params.message_length)
        ]
        state = codec.encode_generation(blocks, 2, params, f, generation=3, block_size=block_size)
        data = codec.state_to_bytes(state)
        assert codec.state_from_bytes(data) == state
        assert len(data) == state.header_bytes() + state.payload_bytes()
        share = codec.serve_repair(state, 4)
        sdata = codec.share_to_bytes(share)
        assert codec.share_from_bytes(sdata) == share
        assert len(sdata) == share.header_bytes() + share.payload_bytes()


def test_state_file_golden_bytes():
    f = prime_field(13)
    params = MbrParams(1, 1, n=3)
    state = codec.encode_generation([b"\x07"], 2, params, f, block_size=1)
    expected = (
        b"SRB1"
        + (1).to_bytes(2, "little")       # version
        + (1).to_bytes(1, "little")       # field kind: prime
        + (13).to_bytes(4, "little")      # field param
        + (1).to_bytes(2, "little")       # k
        + (1).to_bytes(2, "little")       # alpha
        + (2).to_bytes(4, "little")       # gamma
        + (0).to_bytes(4, "little")       # generation
        + (1).to_bytes(4, "little")       # block_size
        + (1).to_bytes(4, "little")       # Z
        + (1).to_bytes(4, "little")       # L
        + (1).to_bytes(4, "little")       # pad length of block 0
        + bytes([7])                      # the single coded symbol
    )
    assert codec.state_to_bytes(state) == expected


def test_share_file_golden_bytes():
    f = prime_field(13)
    params = MbrParams(1, 1, n=3)
    state = codec.encode_generation([b"\x07"], 2, params, f, block_size=1)
    share = codec.serve_repair(state, 1)
    data = codec.share_to_bytes(share)
    assert data[:4] == b"SRB1"
    assert data[-5:-1] == (1).to_bytes(4, "little")  # target gamma before payload
    assert data[-1] == 7  # k=1: the share equals the helper's stored symbol


def test_malformed_files_rejected():
    f = binary_field(16)
    params = MbrParams(2, 3, n=5)
    state = codec.encode_generation([b"ab"] * 5, 1, params, f, block_size=2)
    data = codec.state_to_bytes(state)
    with pytest.raises(ValueError):
        codec.state_from_bytes(b"NOPE" + data[4:])
    with pytest.raises(ValueError):
        codec.state_from_bytes(data[:-1])
    with pytest.raises(ValueError):
        codec.state_from_bytes(data + b"\x00")
    bad_version = data[:4] + (9).to_bytes(2, "little") + data[6:]
    with pytest.raises(ValueError):
        codec.state_from_bytes(bad_version)


def test_payload_symbols_outside_field_rejected():
    params = MbrParams(2, 3, n=5)
    state = codec.encode_generation([b"\x01\x02"] * 5, 1, params, prime_field(13), block_size=2)
    data = bytearray(codec.state_to_bytes(state))
    data[-1] = 13  # one-byte symbols; 13 is not an element of GF(13)
    with pytest.raises(ValueError):
        codec.state_from_bytes(bytes(data))

    state = codec.encode_generation([b"\x01\x02"] * 5, 1, params, prime_field(257), block_size=2)
    data = bytearray(codec.share_to_bytes(codec.serve_repair(state, 4)))
    data[-2:] = (257).to_bytes(2, "big")  # two-byte symbols; 257 is outside GF(257)
    with pytest.raises(ValueError):
        codec.share_from_bytes(bytes(data))


# Byte offsets of header words in a version-1 file (layout as in
# test_state_file_golden_bytes); a share's target gamma follows the pads.
GAMMA, BLOCK_SIZE, COUNT, PADS = 15, 23, 31, 35


def _put_u32(data, off, value):
    return data[:off] + value.to_bytes(4, "little") + data[off + 4 :]


@pytest.mark.parametrize(
    "what, patch",
    [
        ("state", lambda d: _put_u32(d, PADS, 5)),
        ("state", lambda d: _put_u32(d, COUNT, 4)[: PADS + 16] + d[PADS + 20 :]),
        ("state", lambda d: _put_u32(d, GAMMA, 1 << 16)),
        ("share", lambda d: _put_u32(d, PADS + 20, 1 << 16)),
        ("state", lambda d: _put_u32(d, BLOCK_SIZE, 8)),
    ],
    ids=["pad-over-block-size", "count-not-L", "gamma", "target-gamma", "z-not-block-size"],
)
def test_invalid_header_rejected(what, patch):
    """Each patch leaves a well-formed file whose header breaks one rule."""
    params = MbrParams(2, 3, n=5)  # L = 5
    state = codec.encode_generation([b"abcd"] * 5, 1, params, binary_field(16), block_size=4)
    if what == "state":
        with pytest.raises(ValueError):
            codec.state_from_bytes(patch(codec.state_to_bytes(state)))
    else:
        with pytest.raises(ValueError):
            codec.share_from_bytes(patch(codec.share_to_bytes(codec.serve_repair(state, 4))))


@pytest.mark.parametrize(
    "changes", [{"k": 70000, "alpha": 70000}, {"generation": -1}, {"generation": 1 << 32}]
)
def test_header_values_must_fit_the_format(changes):
    state = codec.encode_generation([b"\x01"], 2, MbrParams(1, 1), prime_field(13), block_size=1)
    with pytest.raises(ValueError):
        codec.state_to_bytes(replace(state, **changes))


@pytest.mark.parametrize(
    "blocks", [((1,), (2,), (3,)), ((1, 2), (3, 4)), ((1, 2), (3, 4), (5, 6), (7, 8))],
    ids=["short-blocks", "too-few-blocks", "too-many-blocks"],
)
def test_state_payload_must_be_alpha_by_z(blocks):
    params = MbrParams(2, 3, n=5)  # alpha = 3, L = 5
    state = codec.encode_generation([b"abcd"] * 5, 1, params, binary_field(16), block_size=4)
    assert state.z == 2
    with pytest.raises(ValueError):
        replace(state, blocks=blocks)


@pytest.mark.parametrize("symbols", [(1,), (1, 2, 3)])
def test_share_payload_must_be_z_symbols(symbols):
    params = MbrParams(2, 3, n=5)
    state = codec.encode_generation([b"abcd"] * 5, 1, params, binary_field(16), block_size=4)
    share = codec.serve_repair(state, 4)
    assert share.z == 2
    with pytest.raises(ValueError):
        replace(share, symbols=symbols)


def test_paper_geometry_decodes_one_liar_exactly():
    """k=30, alpha=50, p=1 in GF(2^16), 64-byte blocks (L=1065, Z=32).

    The liars sit among the first k nodes and the first alpha helpers, the
    points the decoder interpolates from, so both decodes take the dirty-word
    path: blame by Welch-Berlekamp, then erasure decoding.
    """
    f = binary_field(16)
    params = MbrParams(30, 50, p=1)
    assert params.message_length == 1065
    rng = random.Random(30)
    blocks = [rng.randbytes(64) for _ in range(params.message_length)]
    gammas = rng.sample(range(1, f.order), params.repair_degree + 1)
    target, helpers = gammas[0], gammas[1:]
    states = [codec.encode_generation(blocks, g, params, f, block_size=64) for g in helpers]

    nodes = states[: params.reconstruct_degree]
    lie = tuple(tuple(rng.randrange(f.order) for _ in range(32)) for _ in range(50))
    nodes[7] = replace(nodes[7], blocks=lie)
    assert codec.reconstruct_generation(nodes, p=1) == blocks

    shares = [codec.serve_repair(state, target) for state in states]
    shares[11] = replace(shares[11], symbols=tuple(rng.randrange(f.order) for _ in range(32)))
    fresh = codec.bootstrap_node(shares, target, p=1)
    assert fresh == codec.encode_generation(blocks, target, params, f, block_size=64)


def test_encode_deterministic():
    f = binary_field(16)
    params = MbrParams(3, 4, n=6)
    rng = random.Random(11)
    blocks = [rng.randbytes(33) for _ in range(params.message_length)]
    a = codec.state_to_bytes(codec.encode_generation(blocks, 4, params, f, block_size=40))
    b = codec.state_to_bytes(codec.encode_generation(blocks, 4, params, f, block_size=40))
    assert a == b


def test_storage_accounting():
    f = binary_field(16)
    params = MbrParams(2, 3, n=6, p=1)
    blocks = [b"x" * 2048 for _ in range(params.message_length)]
    state = codec.encode_generation(blocks, 0, params, f, block_size=2048)
    assert state.payload_bytes() == params.alpha * 2048
    share = codec.serve_repair(state, 4)
    assert share.payload_bytes() == 2048  # one coded block per helper
    # alpha <= L with equality iff k == 1
    assert params.alpha < params.message_length
    assert MbrParams(1, 4).alpha == 4 and MbrParams(1, 4).message_length == 4


def _small_state_and_share():
    """A GF(2^16) state with alpha=3, Z=2, and the share it serves to gamma 4."""
    params = MbrParams(2, 3, n=5)
    state = codec.encode_generation([b"abcd"] * 5, 1, params, binary_field(16), block_size=4)
    return state, codec.serve_repair(state, 4)


def test_payload_is_a_copy_of_a_writable_caller_array():
    state, share = _small_state_and_share()
    blocks = np.array(state.blocks, dtype=np.int64)
    symbols = np.array(share.symbols, dtype=np.uint16)
    built = replace(state, blocks=blocks)
    sent = replace(share, symbols=symbols)
    before = (codec.state_to_bytes(built), hash(built), codec.share_to_bytes(sent), hash(sent))
    blocks[0, 0] ^= 1
    symbols[1] ^= 1
    after = (codec.state_to_bytes(built), hash(built), codec.share_to_bytes(sent), hash(sent))
    assert after == before
    assert built == state and sent == share


def test_payload_is_read_only():
    state, share = _small_state_and_share()
    with pytest.raises(ValueError):
        state.payload[0, 0] = 1
    with pytest.raises(ValueError):
        share.payload[0] = 1
    assert state.payload.dtype == np.uint16 and state.payload.shape == (3, 2)


def test_payload_equality_and_hash_follow_the_symbols():
    state, share = _small_state_and_share()
    from_tuples = replace(state, blocks=state.blocks)
    from_array = replace(state, blocks=np.array(state.blocks))
    assert from_tuples == from_array and hash(from_tuples) == hash(from_array)
    changed = [list(row) for row in state.blocks]
    changed[2][1] ^= 1
    assert replace(state, blocks=changed) != from_array
    assert replace(from_array, gamma=2) != from_array
    assert replace(share, symbols=share.symbols) == share
    assert hash(replace(share, symbols=np.array(share.symbols))) == hash(share)
    assert replace(share, symbols=(share.symbols[0] ^ 1, share.symbols[1])) != share
    assert replace(share, gamma=2) != share
    assert replace(share, target_gamma=5) != share


@pytest.mark.parametrize(
    "f, bad", [(prime_field(13), 13), (prime_field(13), -1), (binary_field(8), 256)],
    ids=["prime13-13", "prime13-negative", "binary8-256"],
)
def test_payload_symbol_outside_the_field_is_rejected(f, bad):
    params = MbrParams(1, 2)  # L = 2
    state = codec.encode_generation([b"\x01", b"\x02"], 3, params, f, block_size=1)
    share = codec.serve_repair(state, 4)
    with pytest.raises(ValueError):
        replace(state, blocks=((bad,), (0,)))
    with pytest.raises(ValueError):
        replace(state, blocks=np.array(((0,), (bad,))))
    with pytest.raises(ValueError):
        replace(share, symbols=(bad,))
