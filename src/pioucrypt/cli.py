"""Command-line interface: encrypt, decrypt, analyze, lattice."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .errors import PiouCryptError
from .lattice import (
    LatticeVectors,
    NmfConfig,
    WindowSpec,
    generate_lattice_points,
    nmf_multiplicative,
    reconstruction_error,
    serialize_key_matrix,
)
from .pipeline import PipelineConfig, analyze, decrypt_pipeline, encrypt_pipeline

SEED_ENV_VAR = "PIOUCRYPT_SEED"


def parse_seed(text: str) -> int:
    """Accept a decimal or 0x-prefixed hexadecimal unsigned 64-bit seed."""
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer seed") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{flag} expects 'x,y', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"{flag} components must be integers") from None


def _parse_window(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"--window expects 'WxH', got {text!r}")
    try:
        width, height = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("--window dimensions must be integers") from None
    if width < 1 or height < 1:
        raise argparse.ArgumentTypeError("--window dimensions must be >= 1")
    return width, height


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return parse_seed(env)
    raise SystemExit(f"error: provide --seed or set {SEED_ENV_VAR}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pioucrypt",
        description="Two-layer lossless image encryption with a text key pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encrypt", help="encrypt a PPM/PGM image into a bundle")
    enc.add_argument("image", type=Path)
    enc.add_argument("--seed", type=parse_seed, default=None,
                     help=f"decimal or 0x hex; falls back to ${SEED_ENV_VAR}")
    enc.add_argument("--out", type=Path, default=None, help="output directory")

    dec = sub.add_parser("decrypt", help="recover the original image from a bundle")
    dec.add_argument("cipher_image", type=Path)
    dec.add_argument("oea_cipher", type=Path)
    dec.add_argument("oea_key", type=Path)
    dec.add_argument("--out", type=Path, default=None, help="output image file")

    ana = sub.add_parser("analyze", help="write the per-channel histogram as CSV")
    ana.add_argument("image", type=Path)
    ana.add_argument("--csv", type=Path, default=None)

    lat = sub.add_parser("lattice", help="debug dump of lattice points and factors")
    lat.add_argument("--v0", required=True, type=lambda s: _parse_pair(s, "--v0"))
    lat.add_argument("--v1", required=True, type=lambda s: _parse_pair(s, "--v1"))
    lat.add_argument("--window", required=True, type=_parse_window)
    lat.add_argument("--seed", type=parse_seed, default=0,
                     help="factorization initializer seed")
    lat.add_argument("--dump-points", action="store_true", help="print one 'x y' per point")
    lat.add_argument("--factors", action="store_true", help="print the serialized key matrix")
    return parser


def _cmd_encrypt(args) -> int:
    config = PipelineConfig(seed=_resolve_seed(args), out_dir=args.out)
    bundle = encrypt_pipeline(args.image, config)
    for path in bundle.paths:
        print(path)
    return 0


def _cmd_decrypt(args) -> int:
    decrypt_pipeline(args.cipher_image, args.oea_cipher, args.oea_key, args.out)
    out = args.out if args.out is not None else args.cipher_image.with_name(
        args.cipher_image.stem + ".dec.ppm"
    )
    print(out)
    return 0


def _cmd_analyze(args) -> int:
    csv_path = args.csv if args.csv is not None else args.image.with_suffix(".hist.csv")
    analyze(args.image, csv_path)
    print(csv_path)
    return 0


def _cmd_lattice(args) -> int:
    vectors = LatticeVectors(args.v0, args.v1)
    window = WindowSpec(*args.window)
    points = generate_lattice_points(vectors, window)
    print(f"basis {vectors.v0} {vectors.v1}  det {vectors.det}")
    print(f"window {window.width}x{window.height}  points {points.shape[0]}")
    if args.dump_points:
        for x, y in points:
            print(f"{x} {y}")
    if points.shape[0] and args.factors:
        factors = nmf_multiplicative(points.astype(np.float64), NmfConfig(seed=args.seed))
        err = reconstruction_error(points.astype(np.float64), factors.W, factors.H)
        print(f"reconstruction error {err:.5f}")
        sys.stdout.write(serialize_key_matrix(factors.W))
    return 0


_COMMANDS = {
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "analyze": _cmd_analyze,
    "lattice": _cmd_lattice,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PiouCryptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
