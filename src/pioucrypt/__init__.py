"""pioucrypt: a deterministic, provably lossless two-layer visual cryptosystem.

Layer 1 scrambles pixels (row/column swaps plus a bijective value
substitution) under Xorshift1024* control. A lattice of points sized to the
image is factorized into non-negative matrices, and the serialized factor
matrix keys layer 2, a parity-split stream transform that encrypts the
layer-1 key text. Decryption is byte-exact end to end.
"""

from .errors import PiouCryptError
from .pipeline import EncryptionBundle, PipelineConfig, decrypt_pipeline, encrypt_pipeline

__all__ = [
    "EncryptionBundle",
    "PiouCryptError",
    "PipelineConfig",
    "decrypt_pipeline",
    "encrypt_pipeline",
]
