import os
import random
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import srb
from srb import codec
from srb.cli import main
from srb.field import parse_field, prime_field
from srb.mbr import MbrParams, build_message_matrix, encode_node


def write_blocks(directory, blocks):
    directory.mkdir(parents=True, exist_ok=True)
    for i, payload in enumerate(blocks):
        (directory / f"b{i:03d}.bin").write_bytes(payload)


def test_encode_reference_example(tmp_path, capsys):
    blocks = [bytes([v]) for v in range(1, 10)]
    write_blocks(tmp_path / "blocks", blocks)
    out = tmp_path / "node1.srb"
    rc = main(
        [
            "encode",
            "--blocks", str(tmp_path / "blocks"),
            "--k", "3",
            "--alpha", "4",
            "--gamma", "1",
            "--field", "prime:13",
            "--block-size", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("effective-config: cmd=encode")
    state = codec.state_from_bytes(out.read_bytes())
    assert state.alpha == 4 and state.k == 3
    f = prime_field(13)
    m = build_message_matrix(f, list(range(1, 10)), MbrParams(3, 4))
    assert tuple(b[0] for b in state.blocks) == encode_node(f, m, 1).symbols


def test_encode_wrong_file_count_exit_2(tmp_path, capsys):
    for blocks in ([], [b"x"] * 3):  # empty dir and surplus files
        write_blocks(tmp_path / f"blocks{len(blocks)}", blocks)
        rc = main(
            [
                "encode",
                "--blocks", str(tmp_path / f"blocks{len(blocks)}"),
                "--k", "1",
                "--alpha", "1",
                "--gamma", "0",
                "--block-size", "1",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "L = 1" in err


@pytest.fixture
def no_striping(monkeypatch):
    """Fail at once if a refused encode pads its blocks, which at 2^32 bytes would not fit in memory."""

    def refuse(*args, **kwargs):
        raise AssertionError("the encode striped its blocks before refusing them")

    monkeypatch.setattr(codec, "stripe_blocks", refuse)


def test_encode_invalid_params_exit_2(tmp_path, capsys, no_striping):
    cases = [
        # k * alpha blocks, more than L = 5: (k, alpha) is refused before the count
        (15, "5", "3", "1", "alpha must be >= k"),
        (1, "1", "1", "-1", "block_size=-1 does not fit a u32 header field"),
        (1, "1", "1", "4294967296", "block_size=4294967296 does not fit a u32 header field"),
    ]
    for count, k, alpha, block_size, message in cases:
        write_blocks(tmp_path / f"blocks{count}", [b"x"] * count)
        rc = main(
            [
                "encode",
                "--blocks", str(tmp_path / f"blocks{count}"),
                "--k", k,
                "--alpha", alpha,
                "--gamma", "0",
                "--block-size", block_size,
                "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert message in capsys.readouterr().err


def test_encode_huge_prime_field_exit_2(tmp_path, capsys, monkeypatch):
    """A modulus far above 2^16 is refused at once, not trial-divided."""
    huge = "1000000000000000000000000000057"
    monkeypatch.setattr("srb.field.is_prime", lambda n: pytest.fail(f"is_prime({n}) ran"))
    write_blocks(tmp_path / "blocks", [b"x"])
    rc = main(["encode", "--blocks", str(tmp_path / "blocks"), "--k", "1", "--alpha", "1",
               "--gamma", "0", "--field", f"prime:{huge}", "--block-size", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: fields larger than 2^16 are not supported (got {huge})" in err.splitlines()
    assert not (tmp_path / "o").exists()


def test_encode_generation_out_of_range_exit_2(tmp_path, capsys, no_striping):
    write_blocks(tmp_path / "blocks", [b"x"])
    for gen in ("-1", "4294967296"):  # a generation is a u32 in the file header
        rc = main(
            [
                "encode",
                "--blocks", str(tmp_path / "blocks"),
                "--k", "1",
                "--alpha", "1",
                "--gamma", "0",
                "--block-size", "1",
                "--gen", gen,
                "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert "error: generation" in capsys.readouterr().err


def test_encode_deterministic(tmp_path, capsys):
    rng = random.Random(0)
    blocks = [rng.randbytes(16) for _ in range(5)]
    write_blocks(tmp_path / "blocks", blocks)
    args = [
        "encode",
        "--blocks", str(tmp_path / "blocks"),
        "--k", "2",
        "--alpha", "3",
        "--gamma", "7",
        "--block-size", "16",
        "--out", "",
    ]
    out1, out2 = tmp_path / "a.srb", tmp_path / "b.srb"
    args[-1] = str(out1)
    assert main(args) == 0
    args[-1] = str(out2)
    assert main(args) == 0
    assert out1.read_bytes() == out2.read_bytes()


def full_cycle(tmp_path, p, corrupt):
    """encode 6 nodes -> serve shares to node 9 -> bootstrap -> reconstruct."""
    rng = random.Random(3)
    blocks = [rng.randbytes(8) for _ in range(5)]  # k=2, alpha=3: L=5
    write_blocks(tmp_path / "blocks", blocks)
    states = []
    for gamma in range(6):
        out = tmp_path / f"node{gamma}.srb"
        assert (
            main(
                [
                    "encode",
                    "--blocks", str(tmp_path / "blocks"),
                    "--k", "2",
                    "--alpha", "3",
                    "--gamma", str(gamma),
                    "--block-size", "8",
                    "--out", str(out),
                ]
            )
            == 0
        )
        states.append(out)
    share_paths = []
    for gamma in range(3 + 2 * p):
        share = tmp_path / f"share{gamma}.srb"
        assert (
            main(
                [
                    "serve-repair",
                    "--state", str(states[gamma]),
                    "--target-gamma", "9",
                    "--out", str(share),
                ]
            )
            == 0
        )
        share_paths.append(share)
    for idx in corrupt:
        parsed = codec.share_from_bytes(share_paths[idx].read_bytes())
        from dataclasses import replace

        bad = replace(parsed, symbols=(0,) * parsed.z)
        share_paths[idx].write_bytes(codec.share_to_bytes(bad))
    boot_out = tmp_path / "node9.srb"
    rc = main(
        [
            "bootstrap",
            "--target-gamma", "9",
            "--shares", *[str(s) for s in share_paths],
            "--p", str(p),
            "--out", str(boot_out),
        ]
    )
    return rc, blocks, states, boot_out


def test_bootstrap_matches_direct_encode_and_reconstruct(tmp_path, capsys):
    rc, blocks, states, boot_out = full_cycle(tmp_path, p=1, corrupt=[2])
    assert rc == 0
    direct = tmp_path / "direct.srb"
    assert (
        main(
            [
                "encode",
                "--blocks", str(tmp_path / "blocks"),
                "--k", "2",
                "--alpha", "3",
                "--gamma", "9",
                "--block-size", "8",
                "--out", str(direct),
            ]
        )
        == 0
    )
    assert boot_out.read_bytes() == direct.read_bytes()
    out_dir = tmp_path / "recovered"
    rc = main(
        [
            "reconstruct",
            "--states", str(boot_out), str(states[0]), str(states[4]), str(states[5]),
            "--p", "1",
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    got = [p.read_bytes() for p in sorted(out_dir.iterdir())]
    assert got == blocks


def test_bootstrap_budget_exceeded_exit_3(tmp_path, capsys):
    rc, *_ = full_cycle(tmp_path, p=1, corrupt=[0, 1])
    assert rc == 3
    assert "repair failed" in capsys.readouterr().err


def test_bootstrap_header_mismatch_exit_2(tmp_path, capsys):
    rng = random.Random(4)
    blocks = [rng.randbytes(8) for _ in range(5)]
    write_blocks(tmp_path / "blocks", blocks)
    other = [rng.randbytes(4) for _ in range(5)]
    write_blocks(tmp_path / "other", other)
    for gamma, src in ((0, "blocks"), (1, "blocks"), (2, "other")):
        assert (
            main(
                [
                    "encode",
                    "--blocks", str(tmp_path / src),
                    "--k", "2",
                    "--alpha", "3",
                    "--gamma", str(gamma),
                    "--block-size", "8" if src == "blocks" else "4",
                    "--out", str(tmp_path / f"n{gamma}.srb"),
                ]
            )
            == 0
        )
    shares = []
    for gamma in range(3):
        share = tmp_path / f"s{gamma}.srb"
        assert (
            main(
                [
                    "serve-repair",
                    "--state", str(tmp_path / f"n{gamma}.srb"),
                    "--target-gamma", "8",
                    "--out", str(share),
                ]
            )
            == 0
        )
        shares.append(str(share))
    rc = main(["bootstrap", "--target-gamma", "8", "--shares", *shares, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "headers disagree" in capsys.readouterr().err
    twice = [shares[0], shares[1], shares[0]]  # one helper's share given twice
    rc = main(["bootstrap", "--target-gamma", "8", "--shares", *twice, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "duplicate" in capsys.readouterr().err


def test_self_targeted_share_exit_2(tmp_path, capsys):
    write_blocks(tmp_path / "blocks", [b"abcd"] * 5)
    state, share = tmp_path / "n1.srb", tmp_path / "s1.srb"
    encode = ["encode", "--blocks", str(tmp_path / "blocks"), "--k", "2", "--alpha", "3",
              "--gamma", "1", "--block-size", "4", "--out", str(state)]
    assert main(encode) == 0
    def serve(target):
        return main(["serve-repair", "--state", str(state), "--target-gamma", target,
                     "--out", str(share)])

    assert serve("1") == 2
    assert "a node cannot serve a repair share to itself" in capsys.readouterr().err
    assert not share.exists()
    assert serve("4") == 0
    data = bytearray(share.read_bytes())  # the target gamma word ends the header
    end = codec.share_header_size(5)
    data[end - 4 : end] = (1).to_bytes(4, "little")
    share.write_bytes(bytes(data))
    capsys.readouterr()
    rc = main(["bootstrap", "--target-gamma", "1", "--shares", str(share), str(share), str(share),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "a node cannot serve a repair share to itself" in capsys.readouterr().err


def test_metrics_reference_example(capsys):
    assert main(["metrics", "--paper-example"]) == 0
    text = capsys.readouterr().out
    assert "100MB" in text
    assert "2.13GB" in text
    assert "4MB" in text


# The whole stdout of srb metrics, the effective configuration first: no
# block size and no network (cells in block units only, no H/G/U rows and no
# throughput line), the published example, README's networked example (the
# H/G/U rows, SeF's Hoeffding cell outside its regime), and a run whose
# RapidChain and SRB Hoeffding cells are outside theirs, with byte units,
# p > 0 and a throughput line.
METRICS_BLOCK_UNITS = (
    "effective-config: cmd=metrics paper-example=False shard-nodes=10 blocks=5 alpha=3 k=2 p=0"
    " block-size=0 delta=0.1 rho=2 c=1.0 total-nodes=0 shards=0 malicious=0 mu=1.0"
    " p-frac=0.0 v=1.0 tau=1.0\n"
    "protocol comparison\n"
    "inputs: n_s=10 L=5 alpha=3 k=2 p=0 block_size=0 delta=0.1 rho=2 c=1.0 N=0 m=0 T=0\n"
    "\n"
    "metric                                    RapidChain                     SeF"
    "                     SRB\n"
    + "-" * 100 + "\n"
    "storage overhead                                  10                     1.1"
    "                       6\n"
    "storage per node                            5 blocks                2 blocks"
    "                3 blocks\n"
    "bootstrap cost                              5 blocks          39.2206 blocks"
    "                3 blocks\n"
    "bootstrap cost (p tolerant)                        -                       -"
    "                3 blocks\n"
    "security guarantee t_S                       5 nodes       0 nodes (clamped)"
    "                 3 nodes\n"
    "\n"
    "encoding (init): 27 mult-units [alpha^3 multiplications per node (nominal; one row "
    "costs alpha^2 per stripe)]\n"
    "encoding (bootstrap): 1.0216 units [r^2 ln^2 r ln ln r with r = alpha + 2p]\n"
    "note: logarithms are natural; SeF O(.) constant c=1.0\n"
    "note: p_bootstrap default 2^-26.36\n"
    "note: SRB bootstrap figure assumes p=0; secure variant downloads alpha+2p blocks\n"
)


METRICS_PAPER_EXAMPLE = (
    "effective-config: cmd=metrics paper-example=True shard-nodes=0 blocks=0 alpha=0 k=0 p=0"
    " block-size=0 delta=0.1 rho=2 c=1.0 total-nodes=0 shards=0 malicious=0 mu=1.0"
    " p-frac=0.0 v=1.0 tau=1.0\n"
    "protocol comparison\n"
    "inputs: n_s=1000 L=1065 alpha=50 k=30 p=0 block_size=2000000 delta=0.1 rho=2 c=1.0"
    " N=16000 m=16 T=0\n"
    "\n"
    "metric                                    RapidChain                     SeF"
    "                     SRB\n"
    + "-" * 100 + "\n"
    "storage overhead                                1000                     1.1"
    "                   46.95\n"
    "storage per node                1065 blocks (2.13GB)          2 blocks (4MB)"
    "       50 blocks (100MB)\n"
    "bootstrap cost                  1065 blocks (2.13GB) 3871.37 blocks (7.74GB)"
    "       50 blocks (100MB)\n"
    "bootstrap cost (p tolerant)                        -                       -"
    "       50 blocks (100MB)\n"
    "security guarantee t_S                     500 nodes       0 nodes (clamped)"
    "               475 nodes\n"
    "\n"
    "encoding (init): 125000 mult-units [alpha^3 multiplications per node (nominal; one row"
    " costs alpha^2 per stripe)]\n"
    "encoding (bootstrap): 52188.5 units [r^2 ln^2 r ln ln r with r = alpha + 2p]\n"
    "throughput factor: n/a (resiliency exhausted: a - p_frac <= 0 for these parameters)\n"
    "note: logarithms are natural; SeF O(.) constant c=1.0\n"
    "note: p_bootstrap default 2^-26.36\n"
    "note: SRB bootstrap figure assumes p=0; secure variant downloads alpha+2p blocks\n"
)


METRICS_README_NETWORK = (
    "effective-config: cmd=metrics paper-example=False shard-nodes=0 blocks=30 alpha=8 k=5"
    " p=0 block-size=0 delta=0.1 rho=2 c=1.0 total-nodes=100 shards=4 malicious=3 mu=1.0"
    " p-frac=0.0 v=1.0 tau=1.0\n"
    "protocol comparison\n"
    "inputs: n_s=25 L=30 alpha=8 k=5 p=0 block_size=0 delta=0.1 rho=2 c=1.0 N=100 m=4 T=3\n"
    "\n"
    "metric                                    RapidChain                     SeF"
    "                     SRB\n"
    + "-" * 100 + "\n"
    "storage overhead                                  25                     1.1"
    "                   6.667\n"
    "storage per node                           30 blocks                2 blocks"
    "                8 blocks\n"
    "bootstrap cost                             30 blocks          208.191 blocks"
    "                8 blocks\n"
    "bootstrap cost (p tolerant)                        -                       -"
    "                8 blocks\n"
    "security guarantee t_S                      12 nodes       0 nodes (clamped)"
    "                 8 nodes\n"
    "shard failure prob H                       0.000e+00               1.000e+00"
    "               0.000e+00\n"
    "Hoeffding bound G                          1.176e-11              regime n/a"
    "               2.502e-06\n"
    "system bound U                             1.166e-08                       -"
    "               1.002e-05\n"
    "\n"
    "encoding (init): 512 mult-units [alpha^3 multiplications per node (nominal; one row"
    " costs alpha^2 per stripe)]\n"
    "encoding (bootstrap): 202.602 units [r^2 ln^2 r ln ln r with r = alpha + 2p]\n"
    "throughput factor: n/a (resiliency exhausted: a - p_frac <= 0 for these parameters)\n"
    "note: logarithms are natural; SeF O(.) constant c=1.0\n"
    "note: p_bootstrap default 2^-26.36\n"
    "note: SRB bootstrap figure assumes p=0; secure variant downloads alpha+2p blocks\n"
)


METRICS_REGIME_NA = (
    "effective-config: cmd=metrics paper-example=False shard-nodes=0 blocks=2 alpha=2 k=1"
    " p=1 block-size=2048 delta=0.1 rho=2 c=1.0 total-nodes=200 shards=4 malicious=100"
    " mu=1.0 p-frac=0.0 v=1.0 tau=1.0\n"
    "protocol comparison\n"
    "inputs: n_s=50 L=2 alpha=2 k=1 p=1 block_size=2048 delta=0.1 rho=2 c=1.0 N=200 m=4"
    " T=100\n"
    "\n"
    "metric                                    RapidChain                     SeF"
    "                     SRB\n"
    + "-" * 100 + "\n"
    "storage overhead                                  50                     1.1"
    "                      50\n"
    "storage per node                    2 blocks (4.1kB)        2 blocks (4.1kB)"
    "        2 blocks (4.1kB)\n"
    "bootstrap cost                      2 blocks (4.1kB)14.6917 blocks (30.09kB)"
    "        2 blocks (4.1kB)\n"
    "bootstrap cost (p tolerant)                        -                       -"
    "       4 blocks (8.19kB)\n"
    "security guarantee t_S                      25 nodes                42 nodes"
    "                24 nodes\n"
    "shard failure prob H                       5.648e-01               1.307e-08"
    "               6.878e-01\n"
    "Hoeffding bound G                         regime n/a               3.132e-06"
    "              regime n/a\n"
    "system bound U                                     -               1.254e-05"
    "                       -\n"
    "\n"
    "encoding (init): 8 mult-units [alpha^3 multiplications per node (nominal; one row costs"
    " alpha^2 per stripe)]\n"
    "encoding (bootstrap): 10.0437 units [r^2 ln^2 r ln ln r with r = alpha + 2p]\n"
    "throughput factor: sigma_SRB < 1.58231 (a=0.311261) vs sigma_RC < 3.77478 (a=0.5)\n"
    "note: logarithms are natural; SeF O(.) constant c=1.0\n"
    "note: p_bootstrap default 2^-26.36\n"
    "note: SRB bootstrap figure assumes p=0; secure variant downloads alpha+2p blocks\n"
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--shard-nodes", "10", "--blocks", "5", "--k", "2", "--alpha", "3"],
         METRICS_BLOCK_UNITS),
        (["--paper-example"], METRICS_PAPER_EXAMPLE),
        (["--total-nodes", "100", "--shards", "4", "--malicious", "3", "--blocks", "30",
          "--alpha", "8", "--k", "5"], METRICS_README_NETWORK),
        (["--total-nodes", "200", "--shards", "4", "--malicious", "100", "--blocks", "2",
          "--alpha", "2", "--k", "1", "--p", "1", "--block-size", "2048"], METRICS_REGIME_NA),
    ],
    ids=["block-units", "paper-example", "readme-network", "regime-na"],
)
def test_metrics_whole_stdout(argv, expected, capsys):
    assert main(["metrics", *argv]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (expected, "")


def test_metrics_custom_params(capsys):
    assert (
        main(
            [
                "metrics",
                "--shard-nodes", "100",
                "--blocks", "9",
                "--alpha", "4",
                "--k", "3",
                "--total-nodes", "400",
                "--shards", "4",
                "--malicious", "20",
            ]
        )
        == 0
    )
    text = capsys.readouterr().out
    assert "protocol comparison" in text
    assert "shard failure prob H" in text


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--shard-nodes", "10", "--blocks", "30", "--alpha", "8", "--k", "5", "--p", "1",
          "--block-size", "100", "--rho", "0"], "rho must be >= 1"),
        ([], "total_blocks must be > 0"),
        (["--shard-nodes", "10", "--blocks", "5", "--k", "5", "--alpha", "3"],
         "alpha must be >= k"),
        (["--blocks", "30", "--delta", "1"], "delta must be in (0, 1)"),
        (["--blocks", "30", "--p-frac", "1"], "p_frac must be in [0, 1)"),
        (["--blocks", "30", "--malicious", "-1"], "malicious must be >= 0"),
    ],
)
def test_metrics_invalid_params_exit_2(argv, message, capsys):
    assert main(["metrics", *argv]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err.splitlines()
    assert "Traceback" not in err


def test_metrics_without_shard_nodes_reports_regime_na(capsys):
    # n_S is taken as N / m = 25; SeF's Hoeffding bound is outside its regime there
    argv = ["--total-nodes", "100", "--shards", "4", "--malicious", "3", "--blocks", "30",
            "--alpha", "8", "--k", "5"]
    assert main(["metrics", *argv]) == 0
    out, err = capsys.readouterr()
    assert "regime n/a" in out
    assert "Traceback" not in err


def test_metrics_shard_nodes_default_to_total_over_shards(capsys):
    argv = ["--total-nodes", "100", "--shards", "4", "--malicious", "3", "--blocks", "30",
            "--alpha", "8", "--k", "5"]
    assert main(["metrics", *argv]) == 0
    out = capsys.readouterr().out
    assert "n_s=25 " in out
    rows = {line[:42].strip(): line[42:].split() for line in out.splitlines()}
    assert float(rows["storage overhead"][-1]) > 0  # SRB's column: n_S * alpha / L
    assert rows["security guarantee t_S"][-2:] == ["8", "nodes"]  # not "(clamped)"
    assert float(rows["shard failure prob H"][-1]) < 1.0


def replay_argv(out: str, lists=()) -> list[str]:
    """The argv a run's printed configuration stands for: its effective-config
    line, then one line for each list option named in ``lists``, each split as
    a shell would; a False flag is left out."""
    first, *rest = out.splitlines()
    cmd, *pairs = shlex.split(first.removeprefix("effective-config: "))
    argv = [cmd.removeprefix("cmd=")]
    for key, value in (pair.split("=", 1) for pair in pairs):
        if value == "True":
            argv.append(f"--{key}")
        elif value != "False":
            argv += [f"--{key}", value]
    for line in rest[: len(lists)]:
        key, values = line.split(": ", 1)
        assert key in lists
        argv += [f"--{key}", *shlex.split(values)]
    return argv


@pytest.fixture
def replay_inputs(tmp_path, monkeypatch):
    """A working directory holding one k=2, alpha=3 generation (L=5 blocks of
    8 bytes, in "blocks" and again in "my blocks"): states n1..n6 and a copy
    of n1 named "my n1.srb", shares s1..s5 to gamma 9 with s2 flipped, n3
    flipped after s3 was served, and a small simulator config."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(5)
    blocks = [rng.randbytes(8) for _ in range(5)]
    write_blocks(tmp_path / "blocks", blocks)
    write_blocks(tmp_path / "my blocks", blocks)
    params, field = MbrParams(2, 3), parse_field("binary:16")
    for gamma in range(1, 7):
        state = codec.encode_generation(blocks, gamma, params, field, block_size=8)
        Path(f"n{gamma}.srb").write_bytes(codec.state_to_bytes(state))
        if gamma <= 5:
            share = codec.serve_repair(state, 9)
            Path(f"s{gamma}.srb").write_bytes(codec.share_to_bytes(share))
    for name in ("s2.srb", "n3.srb"):
        data = bytearray(Path(name).read_bytes())
        data[-1] ^= 1
        Path(name).write_bytes(data)
    shutil.copy("n1.srb", "my n1.srb")
    Path("sim.cfg").write_text("config_version=1\ntotal_nodes=12\nshards=2\nk=2\nalpha=3\np=0\n"
                               "block_size=32\nblocks_per_epoch=5\njoins_per_epoch=1\nepochs=2\n"
                               "seed=1\n")


def added_outputs(before: set) -> dict:
    """Every file under the entries added to the working directory since ``before``."""
    added = set(Path().iterdir()) - before
    return {f: f.read_bytes() for p in added for f in (p, *p.rglob("*")) if f.is_file()}


METRICS_KEYS = ("shard-nodes", "total-nodes", "shards", "malicious", "blocks", "alpha", "k", "p",
                "block-size")


@pytest.mark.parametrize(
    "argv, keys, lists",
    [
        (["metrics", "--total-nodes", "100", "--shards", "4", "--malicious", "3", "--blocks", "30",
          "--alpha", "8", "--k", "5"], METRICS_KEYS, ()),
        (["metrics", "--shard-nodes", "50", "--blocks", "18", "--alpha", "6", "--k", "4", "--p", "1",
          "--block-size", "2048", "--delta", "0.2", "--rho", "3", "--c", "2.5", "--mu", "0.5",
          "--p-frac", "0.1", "--v", "2", "--tau", "3"], METRICS_KEYS, ()),
        (["metrics", "--paper-example"], METRICS_KEYS, ()),
        (["encode", "--blocks", "blocks", "--k", "2", "--alpha", "3", "--gamma", "9",
          "--field", "prime:65521", "--block-size", "8", "--gen", "4", "--out", "n9.srb"],
         ("blocks", "k", "alpha", "gamma", "field", "block-size", "gen", "out"), ()),
        (["serve-repair", "--state", "n1.srb", "--target-gamma", "9", "--out", "s.srb"],
         ("state", "target-gamma", "out"), ()),
        (["bootstrap", "--target-gamma", "9", "--p", "1", "--shares", "s1.srb", "s2.srb", "s3.srb",
          "s4.srb", "s5.srb", "--out", "boot.srb"], ("target-gamma", "p", "out"), ("shares",)),
        (["reconstruct", "--p", "1", "--states", "n1.srb", "n2.srb", "n3.srb", "n4.srb",
          "--out-dir", "out"], ("p", "out-dir"), ("states",)),
        (["simulate", "--config", "sim.cfg", "--seed", "9", "--out", "r.txt"],
         ("config", "seed", "out"), ()),
        (["simulate", "--config", "sim.cfg"], ("config",), ()),
        (["encode", "--blocks", "my blocks", "--k", "2", "--alpha", "3", "--gamma", "9",
          "--block-size", "8", "--out", "my n9.srb"],
         ("blocks", "k", "alpha", "gamma", "block-size", "out"), ()),
        (["reconstruct", "--states", "my n1.srb", "n2.srb", "--out-dir", "my out"],
         ("p", "out-dir"), ("states",)),
    ],
    ids=["metrics-derived-shard-nodes", "metrics-every-option", "metrics-paper-example", "encode",
         "serve-repair", "bootstrap-one-flipped-share", "reconstruct-one-flipped-state",
         "simulate-seed-out", "simulate", "encode-spaced-paths", "reconstruct-spaced-paths"],
)
def test_effective_config_replays_byte_identically(argv, keys, lists, replay_inputs, capsys):
    before = set(Path().iterdir())
    assert main(argv) == 0
    out = capsys.readouterr().out
    line = out.splitlines()[0]
    for key in keys:
        assert f" {key}=" in line
    outputs = added_outputs(before)
    assert bool(outputs) == any(flag in argv for flag in ("--out", "--out-dir"))
    for p in set(Path().iterdir()) - before:
        shutil.rmtree(p) if p.is_dir() else p.unlink()
    assert main(replay_argv(out, lists)) == 0
    assert capsys.readouterr().out == out
    assert added_outputs(before) == outputs
    assert not Path("None").exists()


def run_into_closed_stdout(argv, unbuffered):
    """Run srb with argv in a new interpreter, its stdout a pipe whose read
    end is closed before the start."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(srb.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "srb.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["metrics", "--paper-example"],
     ["encode", "--blocks", "blocks", "--k", "2", "--alpha", "3", "--gamma", "9",
      "--block-size", "8", "--out", "n9.srb"]],
    ids=["metrics", "encode"],
)
def test_closed_stdout_exits_141_before_any_work(argv, unbuffered, replay_inputs):
    """A stdout whose reader is gone ends the command with 141 and an empty
    stderr, before it writes a file, with or without stdout buffering."""
    run = run_into_closed_stdout(argv, unbuffered)
    assert (run.returncode, run.stderr) == (141, b"")
    assert not Path("n9.srb").exists()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["encode", "--help"]], ids=["srb", "encode"])
def test_help_into_a_closed_stdout_leaves_stderr_empty(argv, unbuffered):
    """Buffered help text meets the closed pipe at main's flush: exit 141.
    Unbuffered, argparse drops the failed write itself and exits 0."""
    run = run_into_closed_stdout(argv, unbuffered)
    assert (run.returncode, run.stderr) == (0 if unbuffered else 141, b"")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--total-nodes", "100", "--shards", "3", "--shard-nodes", "25"],
         "total_nodes=100 is not shards * n_s = 3 * 25 (N = m * n_S)"),
        (["--total-nodes", "100", "--shards", "3"],
         "total_nodes=100 is not a multiple of shards=3; give n_s or make N = m * n_S"),
    ],
    ids=["inconsistent-shard-nodes", "total-not-a-multiple"],
)
def test_metrics_total_nodes_must_be_shards_times_shard_nodes(argv, message, capsys):
    assert main(["metrics", *argv, "--blocks", "30", "--alpha", "8", "--k", "5"]) == 2
    out, err = capsys.readouterr()
    assert f"error: {message}" in err.splitlines()
    assert "Traceback" not in err
    assert "protocol comparison" not in out


def test_simulate_deterministic(tmp_path, capsys):
    config = tmp_path / "sim.cfg"
    config.write_text(
        "config_version=1\n"
        "total_nodes=12\n"
        "shards=2\n"
        "k=2\n"
        "alpha=3\n"
        "p=0\n"
        "block_size=32\n"
        "blocks_per_epoch=5\n"
        "joins_per_epoch=1\n"
        "epochs=2\n"
        "seed=1\n"
    )
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(["simulate", "--config", str(config), "--seed", "7", "--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--config", str(config), "--seed", "7", "--out", str(out2)]) == 0
    second = capsys.readouterr().out
    # identical apart from the echoed --out path
    assert first.split("\n", 1)[1] == second.split("\n", 1)[1]
    assert out1.read_bytes() == out2.read_bytes()
    assert "seed=7" in first


def test_simulate_missing_config_exit_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize(
    "extra, message",
    [
        ("balance_ratio_limit=nan\n", "balance_ratio_limit must be >= 0"),
        ("seed=2\n", "line 5: repeated config key 'seed'"),
        ("epochs 3\n", "line 5: expected key=value, got 'epochs 3'"),
        ("cap_malicious_per_shard=yes\n", "line 5: cap_malicious_per_shard must be true or false"),
        # refused by the config itself; no block is drawn here even if it were not
        ("block_size=4294967296\n", "block_size=4294967296 does not fit a u32 header field"),
        ("cuckoo_eps=0.1x\n", "line 5: cuckoo_eps must be float, got '0.1x'"),
        ("config_version=1\ntotal_nodes=abc\nshards=2\n",
         "line 2: total_nodes must be int, got 'abc'"),
        ("config_version=one\ntotal_nodes=12\nshards=2\n",
         "line 1: config_version must be int, got 'one'"),
    ],
    ids=["nan-balance-limit", "repeated-key", "no-equals-sign", "non-boolean-cap",
         "block-size-over-u32", "non-float-value", "non-integer-value", "non-integer-version"],
)
def test_simulate_malformed_config_exit_2(tmp_path, capsys, extra, message):
    """extra follows four valid lines, unless it starts with config_version:
    then it is the whole file."""
    config = tmp_path / "sim.cfg"
    base = "config_version=1\ntotal_nodes=12\nshards=2\nseed=1\n"
    config.write_text(extra if extra.startswith("config_version") else base + extra)
    assert main(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") and message in line for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "settings, message",
    [
        # five leaves from a shard of 8 leave 3 < alpha + 2p = 4 members
        ("total_nodes=8 shards=1 k=2 alpha=2 p=1 leaves_per_epoch=5 epochs=1",
         "shard 0 dropped to 3 < alpha + 2p = 4"),
        # no malicious node: cuckoo displacement leaves shard 0 with 7 members,
        # above alpha + 2p = 2, but one holder of generation 0
        ("total_nodes=24 shards=3 k=2 alpha=2 p=0 block_size=64 blocks_per_epoch=3 "
         "joins_per_epoch=2 leaves_per_epoch=1 cuckoo_eps=0.3 seed=44 epochs=4 "
         "field_spec=prime:257",
         "shard 0 lacks alpha + 2p = 2 helpers holding generation 0"),
    ],
    ids=["below-floor", "zero-liar-helper-shortfall"],
)
def test_simulate_shard_underflow_exit_4(tmp_path, capsys, settings, message):
    """A shard that cannot serve its members is an invariant breach."""
    config = tmp_path / "sim.cfg"
    config.write_text("config_version=1\n" + settings.replace(" ", "\n") + "\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "r.txt")]) == 4
    err = capsys.readouterr().err
    assert f"error: {message}" in err.splitlines()
    assert "Traceback" not in err


def test_simulate_coefficient_space_exhausted_exit_4(tmp_path, capsys):
    """Joins in a shard of GF(13) outrun its 13 never-reused coefficients."""
    config = tmp_path / "sim.cfg"
    config.write_text("config_version=1\ntotal_nodes=10\nshards=1\nk=1\nalpha=1\np=0\n"
                      "block_size=16\njoins_per_epoch=2\nepochs=3\nfield_spec=prime:13\n")
    assert main(["simulate", "--config", str(config)]) == 4
    err = capsys.readouterr().err
    assert "error: shard 0 exhausted the coefficient space of Field(prime:13)" in err.splitlines()
    assert "Traceback" not in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--k", "3"])  # missing required flags
    assert exc.value.code == 2
