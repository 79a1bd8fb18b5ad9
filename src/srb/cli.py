"""Command-line surface: encode, serve-repair, bootstrap, reconstruct,
simulate and metrics.

Every subcommand first prints its effective configuration, read from the
parsed arguments: one ``effective-config:`` line with the command and each
option in parser order, unset options left out, then one ``<name>:`` line
per list option (``shares:``, ``states:``).  Values are shell-quoted, so
replaying those lines as arguments reproduces the outputs byte-identically.
Exit codes: 0 success, 2 usage or argument errors, 3 decode failures,
4 invariant breaches, 141 stdout closed by its reader (128 + SIGPIPE, as a
shell reports a writer the signal ended; nothing goes to stderr).  The
configuration is flushed before any work, so a stdout closed from the start
ends the command before it writes a file, whatever the buffering.  Help
text is flushed before its exit in the same way: into a closed stdout,
``--help`` exits 141 when stdout is buffered, and 0 when it is not, where
argparse drops the failed write itself; stderr stays empty either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shlex
import sys
from pathlib import Path

from . import analytics, codec, sim
from .errors import DecodeFailure, IntegrityError, ShardUnderflowError
from .field import parse_field
from .mbr import MbrParams


def _print_config(args: argparse.Namespace) -> None:
    """Print the lines that replay ``args``: the command and each set option,
    then one line per list option.  argparse stores the options in the order
    they were added to the parser."""
    options = {k.replace("_", "-"): v for k, v in vars(args).items()
               if k not in ("command", "func") and v is not None}
    pairs = "".join(f" {k}={shlex.quote(str(v))}" for k, v in options.items()
                    if not isinstance(v, list))
    print(f"effective-config: cmd={args.command}{pairs}")
    for k, v in options.items():
        if isinstance(v, list):
            print(f"{k}: " + shlex.join(v))
    sys.stdout.flush()


def cmd_encode(args) -> int:
    fld = parse_field(args.field)
    params = MbrParams(args.k, args.alpha)
    want = params.message_length
    blocks_dir = Path(args.blocks)
    files = sorted(p for p in blocks_dir.iterdir() if p.is_file())
    if len(files) != want:
        raise ValueError(
            f"--blocks must contain exactly L = {want} block files "
            f"(k={args.k}, alpha={args.alpha}); found {len(files)}"
        )
    blocks = [p.read_bytes() for p in files]
    state = codec.encode_generation(
        blocks, args.gamma, params, fld, generation=args.gen, block_size=args.block_size
    )
    data = codec.state_to_bytes(state)
    Path(args.out).write_bytes(data)
    payload = state.payload_bytes()
    header = state.header_bytes()
    print(
        f"stored: {state.alpha} coded blocks for {want} input blocks = "
        f"{payload} bytes payload + {header} bytes header "
        f"({analytics.format_bytes(payload + header)})"
    )
    return 0


def cmd_serve_repair(args) -> int:
    state = codec.state_from_bytes(Path(args.state).read_bytes())
    share = codec.serve_repair(state, args.target_gamma)
    Path(args.out).write_bytes(codec.share_to_bytes(share))
    print(
        f"served: 1 coded block = {share.payload_bytes()} bytes payload + "
        f"{share.header_bytes()} bytes header"
    )
    return 0


def cmd_bootstrap(args) -> int:
    shares = [codec.share_from_bytes(Path(p).read_bytes()) for p in args.shares]
    state = codec.bootstrap_node(shares, args.target_gamma, args.p)
    Path(args.out).write_bytes(codec.state_to_bytes(state))
    payload = sum(s.payload_bytes() for s in shares)
    header = sum(s.header_bytes() for s in shares)
    print(
        f"downloaded: {len(shares)} coded blocks = {payload} bytes payload + "
        f"{header} bytes header ({analytics.format_bytes(payload + header)})"
    )
    print(f"stored: {state.alpha} coded blocks recovered by repair")
    return 0


def cmd_reconstruct(args) -> int:
    states = [codec.state_from_bytes(Path(p).read_bytes()) for p in args.states]
    blocks = codec.reconstruct_generation(states, args.p)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(len(blocks) - 1)))
    for i, block in enumerate(blocks):
        (out_dir / f"block-{i:0{width}d}.bin").write_bytes(block)
    total = sum(len(b) for b in blocks)
    print(
        f"recovered: {len(blocks)} blocks = {total} bytes "
        f"({analytics.format_bytes(total)}) into {out_dir}"
    )
    return 0


def cmd_simulate(args) -> int:
    config = sim.SimConfig.from_text(Path(args.config).read_text())
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    print(f"seed={config.seed}")
    report = sim.run_simulation(config)
    text = sim.render_report(report)
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


# ProtocolParams fields whose metrics flag has another name.
_METRICS_FLAGS = {"n_s": "shard_nodes", "total_blocks": "blocks"}
# The metrics inputs: every ProtocolParams field, in order, each with its flag's dest.
_METRICS_INPUTS = [(f, _METRICS_FLAGS.get(f.name, f.name))
                   for f in dataclasses.fields(analytics.ProtocolParams)]


def cmd_metrics(args) -> int:
    if args.paper_example:
        params = analytics.reference_example_params()
    else:
        inputs = {f.name: getattr(args, dest) for f, dest in _METRICS_INPUTS}
        params = analytics.ProtocolParams(**inputs)
    print(analytics.render_metrics(analytics.comparison_report(params)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srb",
        description="Regenerating-code storage for sharded ledgers: encode coded "
        "node state, serve and consume repair shares, reconstruct blocks, "
        "simulate a shard, and compare protocol costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode one generation of blocks for a node")
    p.add_argument("--blocks", required=True, help="directory with exactly L block files")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True, help="node encoder coefficient")
    p.add_argument("--field", default="binary:16", help="prime:Q or binary:M[:POLY]")
    p.add_argument("--block-size", type=int, required=True, dest="block_size")
    p.add_argument("--gen", type=int, default=0, help="generation index")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("serve-repair", help="produce one repair share from stored state")
    p.add_argument("--state", required=True)
    p.add_argument("--target-gamma", type=int, required=True, dest="target_gamma")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_serve_repair)

    p = sub.add_parser("bootstrap", help="rebuild a node's state from repair shares")
    p.add_argument("--target-gamma", type=int, required=True, dest="target_gamma")
    p.add_argument("--shares", nargs="+", required=True)
    p.add_argument("--p", type=int, default=0, help="tolerated corrupt shares")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("reconstruct", help="recover the original blocks from node states")
    p.add_argument("--states", nargs="+", required=True)
    p.add_argument("--p", type=int, default=0, help="tolerated corrupt states")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("simulate", help="run the shard simulator from a config file")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("metrics", help="print the protocol comparison table")
    p.add_argument("--paper-example", action="store_true", dest="paper_example",
                   help="use the published example parameters")
    helps = {"n_s": "n_S; default N / m when --total-nodes and --shards are given",
             "total_blocks": "L, blocks per shard"}
    for f, dest in _METRICS_INPUTS:
        p.add_argument("--" + dest.replace("_", "-"), type=type(f.default), default=f.default,
                       dest=dest, help=helps.get(f.name))
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        finally:
            # --help exits from inside parse_args: flush its text here, so
            # that a closed stdout is caught below, not at the interpreter's exit
            sys.stdout.flush()
        _print_config(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Send what is still buffered to /dev/null, so that the interpreter's
        # own flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except DecodeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IntegrityError, ShardUnderflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
