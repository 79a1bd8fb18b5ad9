"""Bootstrap and reconstruct decode Z in slices of stripes.

The slice size is codec._SLICE_SYMBOLS // (n * alpha) stripes; these tests
shrink it so that a small generation spans several slices, and check that
slicing changes no result, no exception and no count of rs_decode runs.
"""

import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srb import codec, rs
from srb.errors import DecodeFailure, IntegrityError
from srb.field import parse_field
from srb.mbr import (MbrParams, NodeRow, build_message_matrix, encode_node,
                     secure_reconstruct, secure_repair)

FIELDS = ["binary:8", "binary:16", "prime:257", "prime:65521"]


def sliced(stripes: int, n: int, alpha: int):
    """Patch the slice size to the given stripes per slice for n x alpha inputs."""
    return mock.patch.object(codec, "_SLICE_SYMBOLS", stripes * n * alpha)


def generation(f, params, rng, block_size, gammas):
    blocks = [rng.randbytes(rng.randint(0, block_size)) for _ in range(params.message_length)]
    return blocks, codec.encode_nodes(blocks, gammas, params, f, block_size=block_size)


def with_payload(obj, payload):
    if isinstance(obj, codec.RepairShare):
        return replace(obj, symbols=payload)
    return replace(obj, blocks=payload)


def corrupt_from(obj, first_stripe: int, rng: random.Random):
    """obj with every symbol from stripe first_stripe on replaced by a different one."""
    payload = obj.payload.astype(np.int64)
    late = payload[..., first_stripe:]
    late[...] = (late + 1 + rng.randrange(obj.field.order - 1)) % obj.field.order
    return with_payload(obj, payload)


def oracle_blocks(f, states, params, block_size):
    """srb.mbr.secure_reconstruct, stripe by stripe, as bytes."""
    z = states[0].z
    sb = codec.stripe_symbol_bytes(f)
    columns = [
        secure_reconstruct(f, [NodeRow(s.gamma, tuple(s.payload[:, c].tolist())) for s in states],
                           params)
        for c in range(z)
    ]
    rows = np.array(columns, dtype=np.int64).T.reshape(params.message_length, z)
    return codec.unstripe_blocks(codec.StripeSet(z, sb, rows, states[0].pad_lengths))


def oracle_state(f, shares, target, params):
    """srb.mbr.secure_repair, stripe by stripe, as an alpha x Z payload."""
    rows = [
        secure_repair(f, [(s.gamma, int(s.payload[c])) for s in shares], target, params).symbols
        for c in range(shares[0].z)
    ]
    return np.array(rows, dtype=np.int64).T.reshape(params.alpha, shares[0].z)


def count_rs_decode(monkeypatch) -> list:
    calls = []
    decode = rs.rs_decode

    def counted(*args):
        calls.append(args)
        return decode(*args)

    monkeypatch.setattr(rs, "rs_decode", counted)
    return calls


@pytest.mark.parametrize("spec", FIELDS)
@pytest.mark.parametrize("liar", [None, "late"])
def test_sliced_decodes_equal_one_slice_and_the_oracle(spec, liar, monkeypatch):
    f = parse_field(spec)
    params = MbrParams(2, 4, p=1)
    rng = random.Random(spec)
    block_size = 21 * codec.stripe_symbol_bytes(f)  # Z = 21: seven slices of 3 stripes
    gammas = list(range(1, 9))
    blocks, states = generation(f, params, rng, block_size, gammas)
    target = 9
    shares = [codec.serve_repair(st, target) for st in states[: params.repair_degree]]
    nodes = states[: params.reconstruct_degree]
    if liar == "late":  # the first lying symbol is in the last slice
        shares[1] = corrupt_from(shares[1], 19, rng)
        nodes[0] = corrupt_from(nodes[0], 19, rng)

    one_state = codec.bootstrap_node(shares, target, params.p)
    one_blocks = codec.reconstruct_generation(nodes, params.p)
    calls = count_rs_decode(monkeypatch)
    with sliced(3, params.repair_degree, params.alpha):
        state = codec.bootstrap_node(shares, target, params.p)
    assert len(calls) <= params.p
    del calls[:]
    with sliced(3, params.reconstruct_degree, params.alpha):
        got = codec.reconstruct_generation(nodes, params.p)
    assert len(calls) <= params.p

    assert codec.state_to_bytes(state) == codec.state_to_bytes(one_state)
    assert state.payload.tolist() == oracle_state(f, shares, target, params).tolist()
    direct = codec.encode_generation(blocks, target, params, f, block_size=block_size)
    assert codec.state_to_bytes(state) == codec.state_to_bytes(direct)
    assert got == one_blocks == oracle_blocks(f, nodes, params, block_size) == blocks


@pytest.mark.parametrize("spec", FIELDS + ["binary:8:0x11b"])
def test_bootstrap_payloads_equals_the_list_form(spec, monkeypatch):
    """The array core, given the target's header and the shares' payloads as
    one array or as a list of rows, rebuilds the state bootstrap_node
    rebuilds from the shares, over seven slices with a liar in the last,
    with as many rs_decode runs.  shares_from_target's int64 rows in a
    prime field decode alike."""
    f = parse_field(spec)
    params = MbrParams(2, 4, p=1)
    rng = random.Random(f"core:{spec}")
    block_size = 21 * codec.stripe_symbol_bytes(f)  # Z = 21: seven slices of 3 stripes
    target = 9
    blocks, states = generation(f, params, rng, block_size, list(range(1, 7)) + [target])
    shares = [codec.serve_repair(st, target) for st in states[: params.repair_degree]]
    shares[1] = corrupt_from(shares[1], 19, rng)  # among the alpha points interpolated from
    gammas = [s.gamma for s in shares]
    payloads = np.stack([s.payload for s in shares])
    calls = count_rs_decode(monkeypatch)
    with sliced(3, params.repair_degree, params.alpha):
        listed = codec.bootstrap_node(shares, target, params.p)
        runs = len(calls)
        rebuilt = [codec.bootstrap_payloads(states[-1], target, gammas, rows, params.p)
                   for rows in (payloads, payloads.astype(np.int64), list(payloads))]
    assert 1 <= runs <= params.p and len(calls) == 4 * runs
    want = codec.state_to_bytes(states[-1])
    assert codec.state_to_bytes(listed) == want
    assert [codec.state_to_bytes(state) for state in rebuilt] == [want] * 3


@pytest.mark.parametrize("spec", FIELDS + ["binary:8:0x11b"])
def test_reconstruct_payloads_equals_the_list_form(spec, monkeypatch):
    """The reconstruct core, given one state's header and the states'
    payloads as one n x alpha x Z array or as a list, in uint16 or int64,
    recovers the blocks reconstruct_generation recovers from the states,
    over seven slices with a liar in the last, with as many rs_decode runs."""
    f = parse_field(spec)
    params = MbrParams(2, 4, p=1)
    rng = random.Random(f"reconstruct core:{spec}")
    block_size = 21 * codec.stripe_symbol_bytes(f)  # Z = 21: seven slices of 3 stripes
    blocks, states = generation(f, params, rng, block_size, list(range(1, 5)))
    states[1] = corrupt_from(states[1], 19, rng)  # among the k points interpolated from
    gammas = [s.gamma for s in states]
    payloads = np.stack([s.payload for s in states])
    calls = count_rs_decode(monkeypatch)
    with sliced(3, params.reconstruct_degree, params.alpha):
        listed = codec.reconstruct_generation(states, params.p)
        runs = len(calls)
        got = [codec.reconstruct_payloads(states[0], gammas, rows, params.p)
               for array in (payloads, payloads.astype(np.int64))
               for rows in (array, list(array))]
    assert 1 <= runs <= params.p and len(calls) == 5 * runs
    assert listed == blocks
    assert got == [blocks] * 4


def test_a_liar_in_every_slice_costs_one_rs_decode_run(monkeypatch):
    f = parse_field("binary:16")
    params = MbrParams(3, 5, p=2)
    rng = random.Random(3)
    blocks, states = generation(f, params, rng, 64, list(range(1, 12)))
    nodes = states[: params.reconstruct_degree]
    nodes[1] = corrupt_from(nodes[1], 0, rng)
    nodes[4] = corrupt_from(nodes[4], 30, rng)
    target = 20
    shares = [codec.serve_repair(st, target) for st in states[: params.repair_degree]]
    shares[0] = corrupt_from(shares[0], 5, rng)
    shares[7] = corrupt_from(shares[7], 31, rng)
    calls = count_rs_decode(monkeypatch)
    with sliced(2, params.reconstruct_degree, params.alpha):  # 16 slices
        assert codec.reconstruct_generation(nodes, params.p) == blocks
    assert len(calls) <= params.p
    del calls[:]
    with sliced(2, params.repair_degree, params.alpha):
        state = codec.bootstrap_node(shares, target, params.p)
    assert len(calls) <= params.p
    direct = codec.encode_generation(blocks, target, params, f, block_size=64)
    assert codec.state_to_bytes(state) == codec.state_to_bytes(direct)


def test_each_decode_builds_its_rows_and_bases_once(monkeypatch):
    """One Vandermonde block of a row per gamma and one basis per trusted set,
    per call, and no scalar Vandermonde row."""
    f = parse_field("binary:16")
    params = MbrParams(3, 5, p=1)
    _, states = generation(f, params, random.Random(4), 40, list(range(1, 9)))
    shares = [codec.serve_repair(st, 30) for st in states[: params.repair_degree]]
    built = {"blocks": 0, "rows": 0, "scalar rows": 0, "bases": 0}
    block, row, basis = type(f).vandermonde, type(f).vandermonde_row, rs._lagrange_basis

    def counted_block(self, points, width):
        built["blocks"] += 1
        built["rows"] += len(points)
        return block(self, points, width)

    def counted_row(*args):
        built["scalar rows"] += 1
        return row(*args)

    def counted_basis(*args):
        built["bases"] += 1
        return basis(*args)

    monkeypatch.setattr(type(f), "vandermonde", counted_block)
    monkeypatch.setattr(type(f), "vandermonde_row", counted_row)
    monkeypatch.setattr(rs, "_lagrange_basis", counted_basis)
    for call, n in ((lambda: codec.reconstruct_generation(states[:5], 1), 5),
                    (lambda: codec.bootstrap_node(shares, 30, 1), 7)):
        for _ in range(2):  # nothing is kept from one call to the next
            built.update({"blocks": 0, "rows": 0, "scalar rows": 0, "bases": 0})
            with sliced(2, n, params.alpha):  # 10 slices
                call()
            assert built == {"blocks": 1, "rows": n, "scalar rows": 0, "bases": 1}


def test_a_decode_failure_in_a_late_slice_wins_over_an_earlier_integrity_error():
    """Every state lies consistently in stripe 0, which then decodes to 256, a
    symbol no byte holds; two states also lie in stripe 7, beyond p = 1."""
    f = parse_field("prime:257")
    params = MbrParams(2, 3, p=1)
    blocks = [b"\x01" * 8] * params.message_length
    shift = build_message_matrix(f, [255] + [0] * (params.message_length - 1), params)
    rng = random.Random(5)
    states = []
    for g in range(1, 5):
        st = codec.encode_generation(blocks, g, params, f, block_size=8)
        payload = st.payload.astype(np.int64)
        payload[:, 0] = (payload[:, 0] + encode_node(f, shift, g).symbols) % f.order
        states.append(with_payload(st, payload))
    with sliced(2, 4, params.alpha), pytest.raises(IntegrityError):
        codec.reconstruct_generation(states, params.p)
    states[:2] = [corrupt_from(st, 7, rng) for st in states[:2]]
    with pytest.raises(DecodeFailure):
        codec.reconstruct_generation(states, params.p)
    with sliced(2, 4, params.alpha), pytest.raises(DecodeFailure):
        codec.reconstruct_generation(states, params.p)


def test_read_and_shard_sim_generations_decode_in_one_slice():
    """k=5, alpha=8, p=1 and 2 KiB blocks in GF(2^16): Z = 1024 stripes."""
    z = codec.symbols_per_block(parse_field("binary:16"), 2048)
    assert len(codec._slices(z, 5 + 2, 8)) == 1  # reconstruct: k + 2p states
    assert len(codec._slices(z, 8 + 2, 8)) == 1  # bootstrap: alpha + 2p shares


def outcome(call):
    """call's result, or the class of the decode error it raised."""
    try:
        return call()
    except (DecodeFailure, IntegrityError) as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_beyond_p_liars_slicing_changes_no_outcome(data):
    """Sliced and one-slice decodes return the same blocks or raise the same class."""
    f = parse_field(data.draw(st.sampled_from(FIELDS)))
    k = data.draw(st.integers(1, 3))
    params = MbrParams(k, data.draw(st.integers(k, 4)), p=data.draw(st.integers(0, 1)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    block_size = data.draw(st.integers(1, 12)) * codec.stripe_symbol_bytes(f)
    gammas = rng.sample(range(1, f.order), params.repair_degree + 1)
    _, states = generation(f, params, rng, block_size, gammas)
    target = gammas[-1]
    nodes = states[: params.reconstruct_degree]
    shares = [codec.serve_repair(s, target) for s in states[: params.repair_degree]]
    for items in (nodes, shares):
        liars = data.draw(st.sets(st.integers(0, len(items) - 1), min_size=params.p + 1))
        for i in liars:
            items[i] = corrupt_from(items[i], data.draw(st.integers(0, items[i].z - 1)), rng)
    stripes = data.draw(st.integers(1, 4))

    def reconstruct():
        return codec.reconstruct_generation(nodes, params.p)

    def bootstrap():
        return codec.state_to_bytes(codec.bootstrap_node(shares, target, params.p))

    for call, n in ((reconstruct, params.reconstruct_degree), (bootstrap, params.repair_degree)):
        one = outcome(call)
        with sliced(stripes, n, params.alpha):
            assert outcome(call) == one


def traced_extra(f, params, block_size) -> int:
    """Peak traced bytes of one reconstruct, less the blocks it returns.

    The states are built before tracing starts, so the input is not traced.
    """
    rng = random.Random(block_size)
    blocks = [rng.randbytes(block_size) for _ in range(params.message_length)]
    gammas = list(range(1, params.reconstruct_degree + 1))
    states = codec.encode_nodes(blocks, gammas, params, f, block_size=block_size)
    states[0] = corrupt_from(states[0], 0, rng)
    tracemalloc.start()
    try:
        got = codec.reconstruct_generation(states, params.p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == blocks
    return peak - sum(map(len, got))


def test_reconstruct_memory_above_its_output_does_not_grow_with_block_size():
    """64 KiB and 256 KiB blocks both span several slices at the module's slice size."""
    f = parse_field("binary:16")
    params = MbrParams(4, 6, p=1)
    assert len(codec._slices(codec.symbols_per_block(f, 64 << 10), 6, 6)) > 1
    small = traced_extra(f, params, 64 << 10)
    large = traced_extra(f, params, 256 << 10)
    assert large <= small + (256 << 10), (small, large)


def traced_bootstrap_extra(f, params, block_size) -> tuple[int, int]:
    """Peak traced bytes of one bootstrap less its state's payload, and that payload's size.

    The shares are built before tracing starts, so the input is not traced.
    """
    rng = random.Random(block_size)
    blocks = [rng.randbytes(block_size) for _ in range(params.message_length)]
    target = params.repair_degree + 1
    state = codec.encode_generation(blocks, target, params, f, block_size=block_size)
    # by symmetry, what target serves helper h is what h serves target
    shares = [replace(codec.serve_repair(state, h), gamma=h, target_gamma=target)
              for h in range(1, params.repair_degree + 1)]
    shares[0] = corrupt_from(shares[0], 0, rng)
    tracemalloc.start()
    try:
        got = codec.bootstrap_node(shares, target, params.p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == state
    return peak - got.payload.nbytes, got.payload.nbytes


def test_bootstrap_memory_above_its_output_does_not_grow_with_block_size():
    """64 KiB and 1 MiB shares both span several slices at the module's slice
    size.  The list form hands the core its shares' payloads as they stand,
    so only the state's payload grows; the allowance covers the copy of it
    that the derived state keeps."""
    f = parse_field("binary:16")
    params = MbrParams(4, 6, p=1)
    assert len(codec._slices(codec.symbols_per_block(f, 64 << 10), 8, 6)) > 1
    small, small_out = traced_bootstrap_extra(f, params, 64 << 10)
    large, large_out = traced_bootstrap_extra(f, params, 1 << 20)
    assert large - small <= large_out - small_out + (256 << 10), (small, large)
