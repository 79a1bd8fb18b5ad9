import copy
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from srb import codec, field, rs
from srb.errors import DecodeFailure, IntegrityError
from srb.field import (
    FIELD_CACHE_SIZE, binary_field, gf2_is_irreducible, is_prime, parse_field, prime_field,
)
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
    assert codec.stripe_symbol_bytes(prime_field(65521)) == 1
    assert codec.stripe_symbol_bytes(binary_field(8)) == 1
    assert codec.stored_symbol_bytes(binary_field(16)) == 2
    assert codec.stored_symbol_bytes(prime_field(257)) == 2
    assert codec.stored_symbol_bytes(prime_field(13)) == 1
    assert codec.stored_symbol_bytes(prime_field(65521)) == 2
    assert codec.stored_symbol_bytes(binary_field(8)) == 1


def test_stripe_packing_example():
    f = binary_field(16)
    got = codec.stripe_blocks([bytes([0xAA, 0xBB, 0xCC, 0xDD])], f, 4)
    assert got.z == 2
    assert got.symbols.tolist() == [[0xAABB, 0xCCDD]]
    assert got.pad_lengths == (4,)
    # independent big-endian packing oracle
    raw = bytes([0xAA, 0xBB, 0xCC, 0xDD])
    assert got.symbols[0].tolist() == [int.from_bytes(raw[i : i + 2], "big") for i in (0, 2)]


def test_stripe_empty_block_is_padding():
    f = binary_field(16)
    got = codec.stripe_blocks([b""], f, 6)
    assert got.z == 3
    assert got.symbols.tolist() == [[0, 0, 0]]
    assert got.pad_lengths == (0,)


def test_stripe_oversize_rejected():
    with pytest.raises(ValueError, match="^block 0 is 5 bytes; block_size is 4$"):
        codec.stripe_blocks([b"abcde"], binary_field(16), 4)
    with pytest.raises(ValueError, match="^block_size must be >= 0$"):
        codec.stripe_blocks([b""], binary_field(16), -1)


def test_stripe_value_range_checked_for_small_fields():
    with pytest.raises(ValueError):
        codec.stripe_blocks([bytes([200])], prime_field(13), 1)
    assert codec.stripe_blocks([bytes([12])], prime_field(13), 1).symbols.tolist() == [[12]]


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
    stripes = codec.StripeSet(2, symbol_bytes, np.array(symbols), (2 * symbol_bytes,))
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
        msg = stripes.symbols[:, s].tolist()
        m = build_message_matrix(f, msg, params)
        row = encode_node(f, m, 5)
        assert tuple(state.blocks[j][s] for j in range(params.alpha)) == row.symbols


@pytest.mark.parametrize(
    "spec, k, alpha",
    [
        pytest.param(spec, k, alpha, id=spec if (k, alpha) == (3, 5) else f"{spec}-k={k}-alpha={alpha}")
        for k, alpha in [(3, 5), (4, 4), (1, 3)]  # k < alpha, no T block, k = 1
        for spec in ["binary:8", "binary:16", "prime:257", "prime:65521"]
    ],
)
@pytest.mark.parametrize(
    "gammas", [[], [5], [3, 7, 3], [0, 1, 2, 9, 4, 11]], ids=["none", "one", "repeated", "several"]
)
def test_encode_nodes_matches_one_node_encodes(spec, k, alpha, gammas):
    f = field.parse_field(spec)
    params = MbrParams(k, alpha)
    rng = random.Random(spec)
    blocks = [rng.randbytes(rng.randint(0, 11)) for _ in range(params.message_length)]
    states = codec.encode_nodes(blocks, gammas, params, f, generation=6, block_size=11)
    assert [s.gamma for s in states] == gammas
    want = [
        codec.encode_generation(blocks, g, params, f, generation=6, block_size=11) for g in gammas
    ]
    assert list(map(codec.state_to_bytes, states)) == list(map(codec.state_to_bytes, want))
    for a, b in zip(states, states[1:]):
        assert not np.shares_memory(a.payload, b.payload)  # each state copies its slice


def test_encode_nodes_matches_one_node_encodes_at_paper_geometry():
    f = binary_field(16)
    params = MbrParams(30, 50)  # L = 1065
    rng = random.Random(30)
    blocks = [rng.randbytes(3) for _ in range(params.message_length)]
    gammas = [7, 1, 50, 65535]
    states = codec.encode_nodes(blocks, gammas, params, f, generation=2, block_size=3)
    assert [codec.state_to_bytes(s) for s in states] == [
        codec.state_to_bytes(codec.encode_generation(blocks, g, params, f, generation=2, block_size=3))
        for g in gammas
    ]


@pytest.mark.parametrize("spec", ["binary:8", "binary:8:0x11b", "binary:16", "prime:257", "prime:65521"])
def test_one_node_with_alpha_above_z_takes_the_block_form_and_matches_the_reference(
    monkeypatch, spec
):
    """k=30, alpha=50, 16-byte blocks: Z is 8 or 16 < alpha, so no alpha x L rows are built."""
    f = field.parse_field(spec)
    params = MbrParams(30, 50)  # L = 1065
    rng = random.Random(spec)
    blocks = [rng.randbytes(rng.randint(0, 16)) for _ in range(params.message_length)]
    shapes = []
    matmul = f.matmul
    monkeypatch.setattr(f, "matmul", lambda c, d: shapes.append(np.shape(c)) or matmul(c, d))
    state = codec.encode_generation(blocks, 11, params, f, generation=4, block_size=16)
    assert state.z < params.alpha
    assert shapes == [(1, 50), (1, 30)]  # the stacked psi rows, then the phi rows
    stripes = codec.stripe_blocks(blocks, f, 16)
    for s in rng.sample(range(state.z), 3):
        m = build_message_matrix(f, stripes.symbols[:, s].tolist(), params)
        assert tuple(state.payload[:, s].tolist()) == encode_node(f, m, 11).symbols


@pytest.mark.parametrize("spec", ["binary:16", "prime:65521"])
@pytest.mark.parametrize("block_size", [0, 2])
def test_one_node_encode_of_a_wide_generation_takes_memory_in_l_not_alpha_times_l(spec, block_size):
    """k=1, alpha=4000: L = alpha and Z <= 1, where alpha x L coefficient rows take 122-229 MiB."""
    f = field.parse_field(spec)
    params = MbrParams(1, 4000)
    rng = random.Random(block_size)
    blocks = [rng.randbytes(rng.randint(0, block_size)) for _ in range(params.message_length)]
    tracemalloc.start()
    try:
        state = codec.encode_generation(blocks, 7, params, f, block_size=block_size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
    assert state == codec.encode_nodes(blocks, [7, 8], params, f, block_size=block_size)[0]


@pytest.mark.parametrize(
    "blocks, gammas, changes, message",
    [
        ([b"ab"], [1], {"block_size": 1 << 32}, "block_size=4294967296 does not fit a u32 header field"),
        ([b"ab"], [1], {"block_size": -1}, "block_size=-1 does not fit a u32 header field"),
        ([b"ab"], [1], {"generation": 1 << 32}, "generation=4294967296 does not fit a u32 header field"),
        ([b"ab"], [1, 70000], {}, "70000 is not an element of"),
        ([b"abcde"], [1], {"block_size": 4}, "block 0 is 5 bytes; block_size is 4"),
    ],
    ids=["block-size-over-u32", "block-size-negative", "generation-over-u32", "gamma", "block-too-long"],
)
def test_encode_nodes_refuses_before_striping(monkeypatch, blocks, gammas, changes, message):
    """The header and the gammas are checked first, so a 2^32 block_size allocates nothing."""

    def refuse(*args, **kwargs):
        raise AssertionError("the encode striped its blocks before refusing them")

    monkeypatch.setattr(codec, "stripe_blocks", refuse)
    args = dict(generation=0, block_size=2) | changes
    with pytest.raises(ValueError, match=message):
        codec.encode_nodes(blocks, gammas, MbrParams(1, 1), binary_field(16), **args)


def test_encode_nodes_wrong_arity_even_without_nodes():
    with pytest.raises(ValueError):
        codec.encode_nodes([b"x"], [], MbrParams(2, 3), binary_field(16), block_size=1)


@pytest.mark.parametrize("spec", ["binary:16", "prime:65521"])
def test_encode_nodes_without_nodes_returns_no_state_and_still_checks_the_header(spec):
    """No gammas take the block form with zero rows: no state, and a header
    no state could hold is refused all the same."""
    f = field.parse_field(spec)
    params = MbrParams(2, 3)
    blocks = [b"abc", b"", b"de", b"fghij", b"k"]
    for some, block_size in ((blocks, 5), ([b""] * 5, 0)):  # Z > 0 and Z = 0
        assert codec.encode_nodes(some, [], params, f, block_size=block_size) == []
    for changes in ({"block_size": 1 << 32}, {"generation": 1 << 32}):
        with pytest.raises(ValueError, match="does not fit a u32 header field"):
            codec.encode_nodes(blocks, [], params, f, **({"block_size": 5} | changes))


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
        msg = stripes.symbols[:, s].tolist()
        m = build_message_matrix(f, msg, params)
        row = encode_node(f, m, 1)
        assert share.symbols[s] == repair_share(f, row, 4)


@pytest.mark.parametrize("spec", ["binary:8", "binary:8:0x11b", "binary:16", "prime:13", "prime:65521"])
@pytest.mark.parametrize(
    "k, alpha, block_size", [(3, 3, 5), (1, 4, 5), (30, 50, 3)], ids=["k=alpha", "k=1", "paper"]
)
def test_shares_from_target_equal_the_shares_helpers_serve(spec, k, alpha, block_size):
    """M is symmetric, so the share helper h serves to t is psi(h)^T times t's state."""
    f = parse_field(spec)
    params = MbrParams(k, alpha)
    rng = random.Random(f"{spec}:{k}:{alpha}")
    top = min(256, f.order)  # every stripe byte packs into a field element
    blocks = [bytes(rng.randrange(top) for _ in range(rng.randint(0, block_size)))
              for _ in range(params.message_length)]

    def encode(gamma):
        return codec.encode_generation(blocks, gamma, params, f, generation=4,
                                       block_size=block_size)

    for target in (0, 5):
        helpers = [h for h in (0, 1, 2, 5, 9, f.order - 1) if h != target]
        rows = codec.shares_from_target(encode(target), helpers)
        want = [codec.serve_repair(encode(h), target) for h in helpers]
        assert rows.shape == (len(helpers), want[0].z)
        assert rows.tolist() == [share.payload.tolist() for share in want]
        with pytest.raises(ValueError, match=f"{f.order} is not an element of"):
            codec.shares_from_target(encode(target), [1, f.order])


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


HEADER_CHANGES = {
    "field": binary_field(16, 0x1002D),
    "k": 1,
    "alpha": 4,
    "generation": 1,
    "block_size": 15,
    "z": 9,
    "pad_lengths": (16, 0, 5, 16, 1),
}


@pytest.mark.parametrize("name", list(HEADER_CHANGES))
def test_decodes_refuse_items_whose_headers_differ_in_one_field(name):
    """Items that share every header field but gamma decode; one item that
    differs from the others in any single other field is refused.

    The field is set directly on a copy: k, alpha and z cannot change alone
    in a header that passes its checks, and the headers are compared before
    anything else is checked.
    """
    f = binary_field(16)
    params = MbrParams(2, 3, p=1)
    blocks = [bytes(range(n)) for n in (16, 0, 5, 16, 2)]
    states = [codec.encode_generation(blocks, g, params, f, block_size=16) for g in range(1, 7)]
    # parsed copies: equal header values held in objects of their own
    shares = [codec.share_from_bytes(codec.share_to_bytes(codec.serve_repair(st, 9)))
              for st in states[:5]]
    readers = states[:4]
    assert codec.bootstrap_node(shares, 9, params.p).payload.tolist() == \
        codec.encode_generation(blocks, 9, params, f, block_size=16).payload.tolist()
    assert codec.reconstruct_generation(readers, params.p) == blocks
    for items, what, decode in ((shares, "share", lambda xs: codec.bootstrap_node(xs, 9, params.p)),
                                (readers, "state", lambda xs: codec.reconstruct_generation(xs, params.p))):
        for i in (0, len(items) - 1):
            changed = copy.copy(items[i])
            assert getattr(changed, name) != HEADER_CHANGES[name]
            object.__setattr__(changed, name, HEADER_CHANGES[name])
            with pytest.raises(ValueError, match=f"^{what} headers disagree$"):
                decode(items[:i] + [changed] + items[i + 1 :])


def test_bootstrap_wrong_share_count():
    f = binary_field(16)
    params = MbrParams(2, 3, n=6, p=1)
    rng = random.Random(6)
    _, states = make_generation(f, params, rng, 8)
    shares = [codec.serve_repair(states[g], 9) for g in range(3)]
    with pytest.raises(ValueError, match=r"^need alpha \+ 2p = 5 shares, got 3$"):
        codec.bootstrap_node(shares, 9, p=1)


def test_bootstrap_rejects_one_helper_given_twice():
    f = binary_field(16)
    params = MbrParams(2, 3, n=6, p=0)
    _, states = make_generation(f, params, random.Random(6), 8)
    shares = [codec.serve_repair(states[g], 9) for g in (0, 1, 0)]
    with pytest.raises(ValueError, match="duplicate"):
        codec.bootstrap_node(shares, 9, p=0)


def test_self_targeted_share_rejected():
    """Every share names a target other than its helper, however it is built."""
    f = binary_field(16)
    state = codec.encode_generation([b"ab"] * 5, 1, MbrParams(2, 3), f, block_size=2)
    share = codec.serve_repair(state, 4)
    message = "a node cannot serve a repair share to itself"
    with pytest.raises(ValueError, match=message):
        codec.serve_repair(state, 1)
    with pytest.raises(ValueError, match=message):
        codec.RepairShare(field=f, k=2, alpha=3, gamma=4, generation=0, block_size=2, z=1,
                          pad_lengths=(2,) * 5, target_gamma=4, symbols=(0,))
    with pytest.raises(ValueError, match=message):
        replace(share, gamma=share.target_gamma)
    with pytest.raises(ValueError, match=message):
        replace(share, target_gamma=share.gamma)


def test_reconstruct_rejects_one_state_given_twice():
    f = binary_field(16)
    params = MbrParams(2, 3, n=6, p=1)
    _, states = make_generation(f, params, random.Random(6), 8)
    with pytest.raises(ValueError, match="duplicate"):
        codec.reconstruct_generation([states[0], states[1], states[2], states[0]], p=1)


@pytest.mark.parametrize(
    "decode, message",
    [
        (lambda states: codec.bootstrap_node(
            [codec.serve_repair(states[g], 9) for g in (0, 1)]
            + [codec.serve_repair(states[2], 8)], 9),
         "share was produced for a different target"),
        (lambda states: codec.bootstrap_node(
            [replace(codec.serve_repair(states[0], 9), gamma=9)]  # a share file claiming gamma 9
            + [codec.serve_repair(states[g], 9) for g in (1, 2)], 9),
         "a node cannot serve a repair share to itself"),
        (lambda states: codec.reconstruct_generation(states[:3], p=1), r"need k \+ 2p = 4 states, got 3"),
        (lambda states: codec.bootstrap_node([], 9), "no shares supplied"),
        (lambda states: codec.reconstruct_generation([]), "no states supplied"),
    ],
    ids=["share-for-another-target", "target-among-helpers", "wrong-state-count", "no-shares",
         "no-states"],
)
def test_malformed_decode_inputs_rejected(decode, message):
    params = MbrParams(2, 3, n=6, p=0)
    _, states = make_generation(binary_field(16), params, random.Random(6), 8)
    with pytest.raises(ValueError, match=message):
        decode(states)


def test_bootstrap_payloads_refusals():
    """The array core takes a checked header, so it checks only the rest: the
    payload count, the target among its helpers, distinct helpers and p."""
    f = binary_field(16)
    params = MbrParams(2, 3, n=8, p=1)
    _, states = make_generation(f, params, random.Random(6), 8)
    head = states[7]  # the target's own state, as the simulator passes it
    gammas = [0, 1, 2, 3, 4]
    payloads = codec.shares_from_target(head, gammas)
    assert codec.bootstrap_payloads(head, 7, gammas, payloads, p=1) == head
    for args, message in [
        ((7, gammas[:3], payloads[:3], 1), r"^need alpha \+ 2p = 5 shares, got 3$"),
        ((7, [0, 1, 7, 3, 4], payloads, 1), "^the target cannot be one of its own helpers$"),
        ((7, [0, 1, 2, 0, 4], payloads, 1), "duplicate"),
        ((7, gammas, payloads, -1), "p must be >= 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            codec.bootstrap_payloads(head, *args)


def test_bootstrap_payloads_refuses_a_target_outside_the_field_before_decoding(monkeypatch):
    f = binary_field(16)
    params = MbrParams(2, 3, n=8, p=1)
    _, states = make_generation(f, params, random.Random(6), 8)
    gammas = [0, 1, 2, 3, 4]
    payloads = codec.shares_from_target(states[7], gammas)
    calls = []

    def counted(*args):
        calls.append(args)
        return rs.rs_decode_many(*args)

    monkeypatch.setattr(codec, "rs_decode_many", counted)
    with pytest.raises(ValueError, match="70000 is not an element of"):
        codec.bootstrap_payloads(states[7], 70000, gammas, payloads, p=1)
    assert calls == []


def test_reconstruct_payloads_refusals():
    """The reconstruct core takes a checked header, so it checks only the
    rest: the payload count (as the list form words it), distinct gammas and p."""
    f = binary_field(16)
    params = MbrParams(2, 3, n=6, p=1)
    blocks, states = make_generation(f, params, random.Random(6), 8)
    head, gammas = states[0], [s.gamma for s in states[:4]]
    payloads = np.stack([s.payload for s in states[:4]])
    assert codec.reconstruct_payloads(head, gammas, payloads, p=1) == blocks
    for args, message in [
        ((gammas[:3], payloads[:3], 1), r"^need k \+ 2p = 4 states, got 3$"),
        ((gammas[:3] + [gammas[0]], payloads, 1), "duplicate"),
        ((gammas, payloads, -1), "p must be >= 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            codec.reconstruct_payloads(head, *args)


def test_negative_p_rejected():
    f = binary_field(16)
    params = MbrParams(3, 4, n=6, p=0)
    _, states = make_generation(f, params, random.Random(6), 8)
    shares = [codec.serve_repair(states[g], 9) for g in (0, 1)]  # alpha + 2p shares at p = -1
    with pytest.raises(ValueError, match="p must be >= 0"):
        codec.bootstrap_node(shares, 9, p=-1)
    with pytest.raises(ValueError, match="p must be >= 0"):
        codec.reconstruct_generation(states[:3], p=-1)


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


def test_reconstruct_refuses_an_asymmetric_u():
    """Two liars against p = 1 move U's columns to codewords that disagree off the diagonal.

    The one-stripe case of mbr's test_secure_reconstruct_refuses_an_asymmetric_u.
    """
    f = prime_field(13)
    params = MbrParams(2, 3, p=1)
    blocks = [bytes([v]) for v in (1, 2, 3, 4, 5)]
    states = [codec.encode_generation(blocks, g, params, f, block_size=1) for g in (1, 2, 3, 4)]
    for i, delta in enumerate((1, 5)):
        rows = [list(row) for row in states[i].blocks]
        rows[0][0] = f.add(rows[0][0], delta)
        states[i] = replace(states[i], blocks=rows)
    with pytest.raises(IntegrityError, match=r"^recovered U block is not symmetric$"):
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


def test_state_file_golden_bytes_alpha_two_above_k():
    """k=2, alpha=4 over GF(13): a state whose rows read V in row-major order.

    The payload is the four coded blocks of Z = 3 stripes, row by row.
    """
    f = prime_field(13)
    params = MbrParams(2, 4)
    blocks = [bytes([1, 2, 3]), bytes([4, 5]), b"", bytes([6, 7, 8]), bytes([9]),
              bytes([10, 11, 12]), bytes([0, 1])]
    expected = (
        b"SRB1"
        + (1).to_bytes(2, "little")       # version
        + (1).to_bytes(1, "little")       # field kind: prime
        + (13).to_bytes(4, "little")      # field param
        + (2).to_bytes(2, "little")       # k
        + (4).to_bytes(2, "little")       # alpha
        + (3).to_bytes(4, "little")       # gamma
        + (5).to_bytes(4, "little")       # generation
        + (3).to_bytes(4, "little")       # block_size
        + (3).to_bytes(4, "little")       # Z
        + (7).to_bytes(4, "little")       # L
        + b"".join(len(b).to_bytes(4, "little") for b in blocks)
        + bytes([11, 2, 10, 3, 1, 4, 10, 1, 5, 9, 3, 0])
    )
    one = codec.encode_generation(blocks, 3, params, f, generation=5, block_size=3)
    assert codec.state_to_bytes(one) == expected
    for gammas, at in (([3, 5], 0), ([5, 3], 1)):  # the block form
        states = codec.encode_nodes(blocks, gammas, params, f, generation=5, block_size=3)
        assert codec.state_to_bytes(states[at]) == expected


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
    with pytest.raises(ValueError, match="not an SRB1 state file"):
        codec.state_from_bytes(b"NOPE" + data[4:])
    with pytest.raises(ValueError, match="truncated state header"):
        codec.state_from_bytes(data[:PADS - 1])  # cut inside the fixed header
    with pytest.raises(ValueError, match="^truncated state header$"):
        codec.state_from_bytes(data[:PADS + 6])  # cut inside the pad lengths
    with pytest.raises(ValueError, match="truncated state payload"):
        codec.state_from_bytes(data[:-1])
    with pytest.raises(ValueError, match="trailing bytes after state payload"):
        codec.state_from_bytes(data + b"\x00")
    bad_version = data[:4] + (9).to_bytes(2, "little") + data[6:]
    with pytest.raises(ValueError, match="unsupported format version 9"):
        codec.state_from_bytes(bad_version)
    share = codec.share_to_bytes(codec.serve_repair(state, 4))
    with pytest.raises(ValueError, match="truncated share header"):
        codec.share_from_bytes(share[: PADS + 4 * params.message_length + 2])  # inside target gamma


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
FIELD_KIND, FIELD_PARAM, GAMMA, BLOCK_SIZE, COUNT, PADS = 6, 7, 15, 23, 31, 35


def _put_u32(data, off, value):
    return data[:off] + value.to_bytes(4, "little") + data[off + 4 :]


def _put_field(data, kind, param=None):
    """data with its field kind byte, and its field parameter unless param is None, replaced."""
    data = data[:FIELD_KIND] + bytes([kind]) + data[FIELD_KIND + 1 :]
    return data if param is None else _put_u32(data, FIELD_PARAM, param)


@pytest.mark.parametrize(
    "what, patch, message",
    [
        ("state", lambda d: _put_u32(d, PADS, 5), r"^block 0 is 5 bytes; block_size is 4$"),
        ("state", lambda d: _put_u32(d, COUNT, 4)[: PADS + 16] + d[PADS + 20 :],
         r"^4 blocks; \(k, alpha\) = \(2, 3\) needs L = 5$"),
        ("state", lambda d: _put_u32(d, GAMMA, 1 << 16), "65536 is not an element of"),
        ("share", lambda d: _put_u32(d, PADS + 20, 1 << 16), "65536 is not an element of"),
        ("share", lambda d: _put_u32(d, PADS + 20, 1), "a node cannot serve a repair share to itself"),
        ("state", lambda d: _put_u32(d, BLOCK_SIZE, 8), r"Z=2 does not match block_size=8 \(Z=4\)"),
        ("state", lambda d: _put_u32(_put_u32(d, PADS + 4, 7), PADS + 12, 9),
         r"^block 1 is 7 bytes; block_size is 4$"),
        ("state", lambda d: _put_field(d, 0), r"^unknown field kind code 0$"),
        ("share", lambda d: _put_field(d, 3), r"^unknown field kind code 3$"),
        ("state", lambda d: _put_field(d, 1, 4), r"^4 is not prime$"),
        ("state", lambda d: _put_field(d, 1, 65537),
         r"^fields larger than 2\^16 are not supported \(got 65537\)$"),
        ("state", lambda d: _put_field(d, 2, 0x10001), r"^reduction polynomial 0x10001 is reducible$"),
        ("share", lambda d: _put_field(d, 2, 0x2002D),
         r"^fields larger than 2\^16 are not supported \(got degree 17\)$"),
    ],
    ids=["pad-over-block-size", "count-not-L", "gamma", "target-gamma", "target-is-helper",
         "z-not-block-size", "first-of-two-pads-over-block-size", "field-kind-0", "field-kind-3",
         "prime-not-prime", "prime-over-2^16", "binary-reducible", "binary-degree-17"],
)
def test_invalid_header_rejected(what, patch, message):
    """Each patch leaves a well-formed file whose header breaks one rule."""
    params = MbrParams(2, 3, n=5)  # L = 5
    state = codec.encode_generation([b"abcd"] * 5, 1, params, binary_field(16), block_size=4)
    with pytest.raises(ValueError, match=message):
        if what == "state":
            codec.state_from_bytes(patch(codec.state_to_bytes(state)))
        else:
            codec.share_from_bytes(patch(codec.share_to_bytes(codec.serve_repair(state, 4))))


@pytest.mark.parametrize(
    "f, params, cache",
    [
        (binary_field(8), [p for p in range(0x100, 0x200) if gf2_is_irreducible(p)],
         field._binary_field),
        (prime_field(251), [q for q in range(2, 256) if is_prime(q)], field.prime_field),
    ],
    ids=["binary", "prime"],
)
def test_fields_named_by_parsed_headers_are_cached_within_a_bound(f, params, cache):
    """Headers are untrusted; each distinct field word builds tables once, within the bound."""
    state = codec.encode_generation([b"\0\0"], 0, MbrParams(1, 1), f, block_size=2)
    data = codec.state_to_bytes(state)
    assert len(params) > FIELD_CACHE_SIZE
    for param in params:
        parsed = codec.state_from_bytes(_put_u32(data, FIELD_PARAM, param))
        assert parsed.field.header_param == param
    assert cache.cache_info().currsize <= FIELD_CACHE_SIZE


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"k": 70000, "alpha": 70000}, "alpha=70000 does not fit a u16 header field"),
        ({"generation": -1}, "generation=-1 does not fit a u32 header field"),
        ({"generation": 1 << 32}, "generation=4294967296 does not fit a u32 header field"),
        ({"k": 0}, "k must be >= 1"),
        ({"k": 2}, "alpha must be >= k"),
        ({"alpha": 70000}, "alpha=70000 does not fit a u16 header field"),
        ({"block_size": 1 << 32}, "block_size=4294967296 does not fit a u32 header field"),
    ],
    ids=["changes0", "changes1", "changes2", "k-below-1", "alpha-below-k", "alpha-over-u16",
         "block-size-over-u32"],
)
def test_header_values_must_fit_the_format(changes, message):
    state = codec.encode_generation([b"\x01"], 2, MbrParams(1, 1), prime_field(13), block_size=1)
    with pytest.raises(ValueError, match=message):
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


@pytest.mark.parametrize("block_size", [0, 2])
def test_reconstruct_of_a_wide_state_takes_memory_in_l_not_alpha_squared(block_size):
    """k=1, alpha=4000: L = alpha, so one parsed state holds 4000 blocks.

    A layout of alpha x alpha cells would take well over 100 MB here.
    """
    f = binary_field(16)
    params = MbrParams(1, 4000)
    rng = random.Random(block_size)
    blocks = [rng.randbytes(rng.randint(0, block_size)) for _ in range(params.message_length)]
    # two gammas take the block form, which builds no alpha x L coefficient rows
    encoded = codec.encode_nodes(blocks, [7, 8], params, f, block_size=block_size)[0]
    state = codec.state_from_bytes(codec.state_to_bytes(encoded))
    tracemalloc.start()
    try:
        got = codec.reconstruct_generation([state])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == blocks
    assert peak < 16 << 20, peak


def test_paper_geometry_decodes_one_liar_exactly():
    """k=30, alpha=50, p=1 in GF(2^16), 64-byte blocks (L=1065, Z=32).

    The liars sit among the first k nodes and the first alpha helpers, the
    points the decoder interpolates from, so both decodes take the dirty-word
    path: blame by the per-word rs_decode, then erasure decoding.
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
    # a state and a share never compare equal, even on the same header fields
    assert all(getattr(state, name) == getattr(share, name) for name in codec._HEADER_FIELDS)
    assert state != share and not state == share and share != state


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


DERIVED_SPECS = ["binary:8", "binary:16", "prime:65521"]


def _derived_objects(spec):
    """encode_nodes' states, a served share and a bootstrapped state.

    Each is built on the header of an object that passed every check.
    """
    f = parse_field(spec)
    params = MbrParams(2, 3, n=6, p=1)  # alpha = 3, L = 5
    blocks = [random.Random(spec).randbytes(n) for n in (4, 0, 3, 4, 1)]
    states = codec.encode_nodes(blocks, [1, 2, 3, 4, 5, 6], params, f, generation=9, block_size=4)
    share = codec.serve_repair(states[1], 7)
    booted = codec.bootstrap_node([codec.serve_repair(s, 7) for s in states[1:]], 7, p=1)
    return f, params, blocks, states + [share, booted]


@pytest.mark.parametrize("spec", DERIVED_SPECS)
def test_derived_objects_equal_and_hash_as_their_checked_constructions(spec):
    f, params, blocks, derived = _derived_objects(spec)
    for obj in derived:
        to_bytes, from_bytes = ((codec.state_to_bytes, codec.state_from_bytes)
                                if isinstance(obj, codec.CodedNodeState)
                                else (codec.share_to_bytes, codec.share_from_bytes))
        for checked in (replace(obj), from_bytes(to_bytes(obj))):
            assert checked == obj and hash(checked) == hash(obj)
            assert to_bytes(checked) == to_bytes(obj)
        if isinstance(obj, codec.CodedNodeState):
            direct = codec.encode_generation(blocks, obj.gamma, params, f, generation=9,
                                             block_size=4)
            assert direct == obj and hash(direct) == hash(obj)


@pytest.mark.parametrize("spec", DERIVED_SPECS)
def test_replace_on_derived_objects_checks_every_header_rule(spec):
    f, _, _, derived = _derived_objects(spec)
    z = derived[0].z
    rules = [
        ({"k": 0}, "k must be >= 1"),
        ({"k": 4}, "alpha must be >= k"),
        ({"alpha": 70000}, "alpha=70000 does not fit a u16 header field"),
        ({"gamma": f.order}, f"{f.order} is not an element of"),
        ({"generation": -1}, "generation=-1 does not fit a u32 header field"),
        ({"generation": 1 << 32}, "generation=4294967296 does not fit a u32 header field"),
        ({"block_size": 1 << 32}, "block_size=4294967296 does not fit a u32 header field"),
        ({"z": z + 1}, rf"Z={z + 1} does not match block_size=4 \(Z={z}\)"),
        ({"pad_lengths": (4,) * 4}, r"^4 blocks; \(k, alpha\) = \(2, 3\) needs L = 5$"),
        ({"pad_lengths": (4, 5, 0, 0, 0)}, r"^block 1 is 5 bytes; block_size is 4$"),
    ]
    for obj in derived:
        for changes, message in rules:
            with pytest.raises(ValueError, match=message):
                replace(obj, **changes)


def _refuse_pads(entry, pads):
    """Hand pads to entry as the lengths of a generation's blocks at k=2,
    alpha=3 (L = 5) and block_size=4."""
    f, params = binary_field(16), MbrParams(2, 3)
    state = codec.encode_generation([b"abcd"] * 5, 1, params, f, block_size=4)
    if entry == "encode_nodes":
        codec.encode_nodes([bytes(n) for n in pads], [1], params, f, block_size=4)
    elif entry == "state_from_bytes":
        data = codec.state_to_bytes(state)
        words = b"".join(n.to_bytes(4, "little") for n in (len(pads), *pads))
        codec.state_from_bytes(data[:COUNT] + words + data[PADS + 20 :])
    else:
        replace(state, pad_lengths=tuple(pads))


@pytest.mark.parametrize("entry", ["encode_nodes", "state_from_bytes", "replace"])
@pytest.mark.parametrize(
    "pads, message",
    [
        ((4, 5, 4, 4, 4), r"^block 1 is 5 bytes; block_size is 4$"),
        ((4, 4, 4, 4), r"^4 blocks; \(k, alpha\) = \(2, 3\) needs L = 5$"),
    ],
    ids=["block-one-byte-too-long", "one-block-short"],
)
def test_every_entry_refuses_block_lengths_with_one_message(entry, pads, message):
    """Encode, parse and replace decide the block count and each block's
    length by one rule, the header's, and word it in blocks."""
    with pytest.raises(ValueError, match=message):
        _refuse_pads(entry, pads)


@pytest.mark.parametrize("spec", DERIVED_SPECS)
def test_self_targeted_share_refused_on_derived_objects(spec):
    f, _, _, derived = _derived_objects(spec)
    message = "a node cannot serve a repair share to itself"
    *states, share, booted = derived
    for state in states + [booted]:
        with pytest.raises(ValueError, match=message):
            codec.serve_repair(state, state.gamma)
    with pytest.raises(ValueError, match=message):
        replace(share, target_gamma=share.gamma)
    with pytest.raises(ValueError, match=message):
        replace(share, gamma=share.target_gamma)
    with pytest.raises(ValueError, match=f"{f.order} is not an element of"):
        codec.serve_repair(states[0], f.order)


@pytest.mark.parametrize("spec", DERIVED_SPECS)
def test_bootstrapped_state_checks_its_new_gamma(spec):
    """A numpy target equals the shares' int target, but is no field element."""
    f, _, _, derived = _derived_objects(spec)
    shares = [codec.serve_repair(state, 7) for state in derived[:5]]
    with pytest.raises(ValueError, match="is not an element of"):
        codec.bootstrap_node(shares, np.int64(7), p=1)
