"""Property tests: the numpy bulk path of srb.codec against the scalar oracle srb.mbr."""

from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from field_helpers import poly_eval
from srb import codec
from srb.errors import DecodeFailure, IntegrityError
from srb.field import parse_field
from srb.mbr import (
    MbrParams,
    NodeRow,
    build_message_matrix,
    encode_node,
    repair_share,
    secure_reconstruct,
)
from srb.rs import DecodeSetup, rs_decode, rs_decode_many

FIELDS = ["prime:13", "prime:257", "binary:8", "binary:8:0x11b", "binary:16"]


@st.composite
def generations(draw, over_budget=False):
    """A field, parameters, one generation of blocks, a target, helpers and lies.

    lies replaces the shares of some of the alpha + 2p helpers, state_lies the
    states of some of the first k + 2p of them; at most p of each, or any
    number if over_budget.
    """
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
    word = st.lists(symbol, min_size=z, max_size=z).map(tuple)
    liars = draw(st.lists(st.integers(0, n - 1), max_size=n if over_budget else p, unique=True))
    lies = {i: draw(word) for i in liars}
    m = k + 2 * p
    liars = draw(st.lists(st.integers(0, m - 1), max_size=m if over_budget else p, unique=True))
    state_lies = {i: tuple(draw(word) for _ in range(alpha)) for i in liars}
    return f, params, block_size, blocks, target, helpers, lies, state_lies


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
# alpha == k with one lying state and one lying share; block size 0 with liars
@example((parse_field("prime:257"), MbrParams(2, 2, p=1), 3, [b"abc", b"de", b""], 1,
          [2, 3, 4, 5], {0: (7, 8, 9)}, {1: ((1, 2, 3), (4, 5, 6))}))
@example((parse_field("binary:16"), MbrParams(1, 2, p=1), 0, [b"", b""], 9,
          [2, 3, 4, 5], {3: ()}, {0: ((), ())}))
def test_bulk_path_matches_scalar_oracle(case):
    f, params, block_size, blocks, target, helpers, lies, state_lies = case
    messages = stripe_messages(f, blocks, block_size)
    matrices = [build_message_matrix(f, msg, params) for msg in messages]
    assert codec.stripe_blocks(blocks, f, block_size).symbols.T.tolist() == messages

    states, shares = [], []
    for i, gamma in enumerate(helpers):
        state = codec.encode_generation(blocks, gamma, params, f, block_size=block_size)
        assert all_ints(state.blocks)
        states.append(replace(state, blocks=state_lies[i]) if i in state_lies else state)
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

    nodes = states[: params.reconstruct_degree]
    columns = [(st, list(zip(*st.blocks))) for st in nodes]
    oracle = [
        secure_reconstruct(f, [NodeRow(st.gamma, column[s]) for st, column in columns], params)
        for s in range(len(messages))
    ]
    got = codec.reconstruct_generation(nodes, params.p)
    assert stripe_messages(f, got, block_size) == oracle
    assert got == blocks


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_encode_nodes_matches_one_node_encodes_and_oracle(data):
    f = parse_field(data.draw(st.sampled_from(FIELDS)))
    k = data.draw(st.integers(1, 4))
    params = MbrParams(k, data.draw(st.integers(k, 6)))
    block_size = data.draw(st.integers(0, 9))
    byte = st.integers(0, min(256, f.order) - 1)
    block = st.lists(byte, max_size=block_size).map(bytes)
    n = params.message_length
    blocks = data.draw(st.lists(block, min_size=n, max_size=n))
    gammas = data.draw(st.lists(st.integers(0, f.order - 1), max_size=6))  # repeats allowed
    states = codec.encode_nodes(blocks, gammas, params, f, 2, block_size)
    assert [codec.state_to_bytes(s) for s in states] == [
        codec.state_to_bytes(codec.encode_generation(blocks, g, params, f, 2, block_size))
        for g in gammas
    ]
    messages = stripe_messages(f, blocks, block_size)
    matrices = [build_message_matrix(f, msg, params) for msg in messages]
    for state, gamma in zip(states, gammas):
        assert state.gamma == gamma
        for s, m in enumerate(matrices):
            assert tuple(state.payload[:, s].tolist()) == encode_node(f, m, gamma).symbols


@settings(max_examples=60, deadline=None)
@given(generations(), st.integers(0, 2**32 - 1))
def test_serialization_round_trip(case, generation):
    f, params, block_size, blocks, target, helpers, _, _ = case
    state = codec.encode_generation(blocks, helpers[0], params, f, generation, block_size)
    parsed = codec.state_from_bytes(codec.state_to_bytes(state))
    assert parsed == state and hash(parsed) == hash(state)
    share = codec.serve_repair(state, target)
    parsed = codec.share_from_bytes(codec.share_to_bytes(share))
    assert parsed == share and hash(parsed) == hash(share)


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
    f, params, block_size, blocks, target, helpers, _, _ = case
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


@st.composite
def received_words(draw):
    """A field, distinct points, dim, and codewords with corrupted positions.

    Each word corrupts its own subset of a shared liar set, like the shares
    of Byzantine helpers, plus up to two positions of its own, so some words
    carry more than e = (n - dim) // 2 errors.  In about one case in four, one
    value of one word is not a field element, as in a malformed input.
    """
    f = parse_field(draw(st.sampled_from(FIELDS)))
    dim = draw(st.integers(1, 4))
    n = dim + draw(st.integers(0, 4))
    xs = draw(st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n, unique=True))
    symbol = st.integers(0, f.order - 1)
    position = st.integers(0, n - 1)
    liars = draw(st.lists(position, max_size=n, unique=True))
    words = []
    for _ in range(draw(st.integers(0, 8))):
        coeffs = draw(st.lists(symbol, min_size=dim, max_size=dim))
        word = [poly_eval(f, coeffs, x) for x in xs]
        shared = draw(st.sets(st.sampled_from(liars))) if liars else set()
        for i in shared | draw(st.sets(position, max_size=2)):
            word[i] = draw(symbol)
        words.append(word)
    if words and draw(st.integers(0, 3)) == 0:
        stray = draw(st.integers(-(2**31), -1) | st.integers(f.order, 2**31))
        words[draw(st.integers(0, len(words) - 1))][draw(position)] = stray
    return f, xs, words, dim


def check_against_per_word_decode(setup, words):
    """rs_decode_many(setup, words) is rs_decode on every word.

    It returns every word's coefficients, or raises ValueError if rs_decode
    raises it on some word, else DecodeFailure if rs_decode raises that.
    """
    outcomes = []
    for word in words:
        try:
            outcomes.append(rs_decode(setup.field, list(zip(setup.xs, word)), setup.dim))
        except (ValueError, DecodeFailure) as exc:
            outcomes.append(type(exc))
    for error in (ValueError, DecodeFailure):
        if error in outcomes:
            with pytest.raises(error):
                rs_decode_many(setup, words)
            return
    assert rs_decode_many(setup, words).tolist() == outcomes


@settings(max_examples=300, deadline=None)
@given(received_words())
# one value outside the field where only the agreement count reads it
@example((parse_field("binary:16"), list(range(1, 11)), [[0] * 9 + [70000]], 8))
@example((parse_field("prime:257"), list(range(1, 11)), [[0] * 9 + [-5]], 8))
def test_decode_many_matches_per_word_decode(case):
    """rs_decode_many is rs_decode on every word: same results, same failures."""
    f, xs, words, dim = case
    check_against_per_word_decode(DecodeSetup(f, xs, dim), words)


@settings(max_examples=200, deadline=None)
@given(received_words(), st.data())
def test_decode_many_blame_from_earlier_calls_changes_no_result(case, data):
    """A blame set carried from other words changes neither results nor failures."""
    f, xs, words, dim = case
    setup = DecodeSetup(f, xs, dim)
    setup.blamed.update(data.draw(st.sets(st.integers(0, len(xs) - 1))))
    check_against_per_word_decode(setup, words)


@settings(max_examples=80, deadline=None)
@given(generations(over_budget=True))
def test_decode_contract(case):
    """Within p liars the result is exact; beyond, a result or a decode error.

    Reconstruct may also report a non-symmetric U block (IntegrityError); any
    other exception is a fault.
    """
    f, params, block_size, blocks, target, helpers, lies, state_lies = case
    p = params.p
    states = [codec.encode_generation(blocks, g, params, f, block_size=block_size) for g in helpers]
    shares = [codec.serve_repair(state, target) for state in states]
    liars = sum(1 for i, lie in lies.items() if lie != shares[i].symbols)
    shares = [replace(s, symbols=lies.get(i, s.symbols)) for i, s in enumerate(shares)]
    direct = codec.encode_generation(blocks, target, params, f, block_size=block_size)
    try:
        fresh = codec.bootstrap_node(shares, target, p)
    except DecodeFailure:
        assert liars > p
    else:
        assert fresh == direct or liars > p

    nodes = states[: params.reconstruct_degree]
    liars = sum(1 for i, lie in state_lies.items() if lie != nodes[i].blocks)
    nodes = [replace(st, blocks=state_lies.get(i, st.blocks)) for i, st in enumerate(nodes)]
    try:
        got = codec.reconstruct_generation(nodes, p)
    except (DecodeFailure, IntegrityError):
        assert liars > p
    else:
        assert got == blocks or liars > p
