"""Command-line interface: encrypt, decrypt, analyze, lattice."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import _text
from .errors import InvalidConfig, PiouCryptError
from .lattice import (
    LatticeVectors,
    WindowSpec,
    generate_lattice_points,
    nmf_multiplicative,
    serialize_key_matrix,
)
from .pipeline import (
    PipelineConfig,
    analyze,
    decrypt_pipeline,
    decrypted_image_path,
    encrypt_pipeline,
)
from .prng import as_seed

SEED_ENV_VAR = "PIOUCRYPT_SEED"

# Largest --window area `lattice` enumerates, that of a 4096 x 4096 image. A
# window holds at most one point per pixel whatever the basis. Listing the
# 2^22 points of 2048 x 2048 at |det| = 1 peaks at 124 MB max RSS (29 MB for
# an 8 x 8 window).
MAX_WINDOW_PIXELS = 1 << 24


def parse_seed(text: str) -> int:
    """Accept a decimal or 0x-prefixed hexadecimal unsigned 64-bit seed."""
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer seed") from None
    try:
        return as_seed(value)
    except InvalidConfig as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _file_path(text: str) -> Path:
    # a path with no last component, such as "" or ".", has no name to
    # derive a default output name or a temporary file from
    path = Path(text)
    if not path.name:
        raise argparse.ArgumentTypeError(f"{text!r} does not name a file")
    return path


def _int_pair(text: str, sep: str) -> tuple[int, int]:
    """Two integers written as a<sep>b; a letter sep matches in either case."""
    try:
        a, b = map(int, text.lower().split(sep))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not two integers split by {sep!r}") from None
    return a, b


def _window(text: str) -> tuple[int, int]:
    width, height = _int_pair(text, "x")
    if width < 1 or height < 1:
        raise argparse.ArgumentTypeError("--window dimensions must be >= 1")
    return width, height


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return parse_seed(env)
        except argparse.ArgumentTypeError as exc:
            raise SystemExit(f"error: ${SEED_ENV_VAR}: {exc}") from None
    raise SystemExit(f"error: provide --seed or set {SEED_ENV_VAR}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pioucrypt",
        description="Two-layer lossless image encryption with a text key pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encrypt", help="encrypt a PPM/PGM image into a bundle")
    enc.add_argument("image", type=_file_path)
    enc.add_argument("--seed", type=parse_seed, default=None,
                     help=f"decimal or 0x hex; falls back to ${SEED_ENV_VAR}")
    enc.add_argument("--out", type=Path, default=None, help="output directory")

    dec = sub.add_parser("decrypt", help="recover the original image from a bundle")
    dec.add_argument("cipher_image", type=_file_path)
    dec.add_argument("oea_cipher", type=_file_path)
    dec.add_argument("oea_key", type=_file_path)
    dec.add_argument("--out", type=_file_path, default=None, help="output image file")

    ana = sub.add_parser("analyze", help="write the per-channel histogram as CSV")
    ana.add_argument("image", type=_file_path)
    ana.add_argument("--csv", type=_file_path, default=None)

    lat = sub.add_parser("lattice", help="debug dump of lattice points and factors")
    lat.add_argument("--v0", required=True, type=lambda s: _int_pair(s, ","))
    lat.add_argument("--v1", required=True, type=lambda s: _int_pair(s, ","))
    lat.add_argument("--window", required=True, type=_window)
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
    out = args.out if args.out is not None else decrypted_image_path(args.cipher_image)
    decrypt_pipeline(args.cipher_image, args.oea_cipher, args.oea_key, out)
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
    if window.width * window.height > MAX_WINDOW_PIXELS:
        raise PiouCryptError(
            f"window {window.width}x{window.height} is over {MAX_WINDOW_PIXELS} pixels"
        )
    points = generate_lattice_points(vectors, window)
    print(f"basis {vectors.v0} {vectors.v1}  det {vectors.det}")
    print(f"window {window.width}x{window.height}  points {points.shape[0]}")
    if args.dump_points:
        sys.stdout.writelines(_text.format_rows("%d %d\n", points))
    if points.shape[0] and args.factors:
        errors = []
        # Handed over from a list that gives them up, the points have no
        # name left, so the factorization frees them once they are in its
        # buffer.
        held = [points]
        del points
        W = nmf_multiplicative(held.pop(), args.seed, error_history=errors).W
        print(f"reconstruction error {errors[-1]:.5f}")
        sys.stdout.write(serialize_key_matrix(W))
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
