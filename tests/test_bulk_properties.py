"""Property tests: the numpy bulk path of srb.codec against the scalar oracle srb.mbr."""

from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srb import codec
from srb.field import parse_field
from srb.mbr import MbrParams, NodeRow, build_message_matrix, encode_node, repair_share

FIELDS = ["prime:13", "prime:257", "binary:8", "binary:8:0x11b", "binary:16"]


@st.composite
def generations(draw):
    """A field, parameters, one generation of blocks, a target, helpers and <= p lies."""
    f = parse_field(draw(st.sampled_from(FIELDS)))
    k = draw(st.integers(1, 4))
    alpha = draw(st.integers(k, 6))
    p = draw(st.integers(0, 2))
    params = MbrParams(k, alpha, p=p)
    block_size = draw(st.integers(0, 9))
    byte = st.integers(0, min(256, f.order) - 1)  # striped bytes must be field elements
    block = st.lists(byte, max_size=block_size).map(bytes)
    blocks = draw(st.lists(block, min_size=params.message_length, max_size=params.message_length))
    n = alpha + 2 * p
    target, *helpers = draw(
        st.lists(st.integers(0, f.order - 1), min_size=n + 1, max_size=n + 1, unique=True)
    )
    z = -(-block_size // codec.stripe_symbol_bytes(f))
    symbol = st.integers(0, f.order - 1)
    liars = draw(st.lists(st.integers(0, n - 1), max_size=p, unique=True))
    lies = {i: tuple(draw(st.lists(symbol, min_size=z, max_size=z))) for i in liars}
    return f, params, block_size, blocks, target, helpers, lies


def stripe_messages(f, blocks, block_size):
    """The L message symbols of each stripe, packed big-endian from the raw bytes."""
    sb = codec.stripe_symbol_bytes(f)
    z = -(-block_size // sb)
    padded = [b.ljust(z * sb, b"\0") for b in blocks]
    return [[int.from_bytes(b[s * sb : (s + 1) * sb], "big") for b in padded] for s in range(z)]


def all_ints(rows):
    return all(type(v) is int for row in rows for v in row)


@settings(max_examples=80, deadline=None)
@given(generations())
def test_bulk_path_matches_scalar_oracle(case):
    f, params, block_size, blocks, target, helpers, lies = case
    matrices = [build_message_matrix(f, msg, params) for msg in stripe_messages(f, blocks, block_size)]
    assert all_ints(codec.stripe_blocks(blocks, f, block_size).symbols)

    shares = []
    for i, gamma in enumerate(helpers):
        state = codec.encode_generation(blocks, gamma, params, f, block_size=block_size)
        assert all_ints(state.blocks)
        oracle = [encode_node(f, m, gamma) for m in matrices]
        for s, row in enumerate(oracle):
            assert tuple(block[s] for block in state.blocks) == row.symbols

        share = codec.serve_repair(state, target)
        assert all_ints([share.symbols])
        assert share.symbols == tuple(repair_share(f, row, target) for row in oracle)
        shares.append(replace(share, symbols=lies[i]) if i in lies else share)

    fresh = codec.bootstrap_node(shares, target, params.p)
    assert all_ints(fresh.blocks)
    assert fresh == codec.encode_generation(blocks, target, params, f, block_size=block_size)


@settings(max_examples=60, deadline=None)
@given(generations(), st.integers(0, 2**32 - 1))
def test_serialization_round_trip(case, generation):
    f, params, block_size, blocks, target, helpers, _ = case
    state = codec.encode_generation(blocks, helpers[0], params, f, generation, block_size)
    assert codec.state_from_bytes(codec.state_to_bytes(state)) == state
    share = codec.serve_repair(state, target)
    assert codec.share_from_bytes(codec.share_to_bytes(share)) == share


def mutate(data, draw):
    """data with one byte replaced by a different value."""
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]


@settings(max_examples=150, deadline=None)
@given(generations(), st.data())
def test_mutated_file_is_rejected_or_handled_exactly(case, data):
    """A one-byte change is rejected at parse, or handled exactly or with ValueError.

    The changed file is at most one liar among otherwise honest peers, within
    the budget p >= 1, so reconstruct and bootstrap never raise DecodeFailure.
    """
    f, params, block_size, blocks, target, helpers, _ = case
    assume(params.p >= 1)
    p = params.p
    states = [codec.encode_generation(blocks, g, params, f, block_size=block_size) for g in helpers]
    shares = [codec.serve_repair(state, target) for state in states]

    mutated = mutate(codec.state_to_bytes(states[0]), data.draw)
    try:
        state = codec.state_from_bytes(mutated)
    except ValueError:
        pass
    else:
        assert codec.state_to_bytes(state) == mutated
        try:
            share = codec.serve_repair(state, target)
        except ValueError:
            pass
        else:
            rows = [NodeRow(state.gamma, column) for column in zip(*state.blocks)]
            assert share.symbols == tuple(repair_share(state.field, r, target) for r in rows)
        try:
            got = codec.reconstruct_generation([state] + states[1 : params.k + 2 * p], p)
        except ValueError:
            pass
        else:
            assert got == blocks

    mutated = mutate(codec.share_to_bytes(shares[0]), data.draw)
    try:
        share = codec.share_from_bytes(mutated)
    except ValueError:
        return
    assert codec.share_to_bytes(share) == mutated
    try:
        fresh = codec.bootstrap_node([share] + shares[1:], target, p)
    except ValueError:
        return
    assert fresh == codec.encode_generation(blocks, target, params, f, block_size=block_size)
