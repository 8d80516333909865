"""ChaCha20 stream cipher (RFC 8439), implemented from scratch.

Vectorized with numpy: all 16 state words are processed as uint32 arrays,
one array slot per block, so the whole keystream for a message is produced
in 10 double-round passes regardless of length.

Why ChaCha20 here: the paper stores end-to-end *encrypted* images and maps
their bits to DNA positions by priority. Under a stream cipher, flipping
ciphertext bit i flips exactly plaintext bit i — corruption does not
avalanche — so approximate storage of encrypted data is possible. The
property is asserted by tests in ``tests/crypto``.
"""

from __future__ import annotations

import numpy as np

_CONSTANTS = np.array(
    [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574], dtype=np.uint32
)  # "expand 32-byte k"


def _rotl32(x: np.ndarray, count: int) -> np.ndarray:
    return ((x << np.uint32(count)) | (x >> np.uint32(32 - count))).astype(np.uint32)


def _quarter_round(state: np.ndarray, a: int, b: int, c: int, d: int) -> None:
    """One ChaCha quarter round applied across all blocks at once."""
    state[a] += state[b]
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] += state[d]
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] += state[b]
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] += state[d]
    state[b] = _rotl32(state[b] ^ state[c], 7)


class ChaCha20:
    """ChaCha20 keystream generator / XOR cipher.

    Args:
        key: 32-byte secret key.
        nonce: 12-byte nonce (unique per message under one key).
    """

    def __init__(self, key: bytes, nonce: bytes) -> None:
        if len(key) != 32:
            raise ValueError(f"key must be 32 bytes, got {len(key)}")
        if len(nonce) != 12:
            raise ValueError(f"nonce must be 12 bytes, got {len(nonce)}")
        self._key_words = np.frombuffer(key, dtype="<u4").astype(np.uint32)
        self._nonce_words = np.frombuffer(nonce, dtype="<u4").astype(np.uint32)

    def keystream(self, n_bytes: int, initial_counter: int = 1) -> bytes:
        """Generate ``n_bytes`` of keystream starting at a block counter."""
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be non-negative, got {n_bytes}")
        if n_bytes == 0:
            return b""
        n_blocks = (n_bytes + 63) // 64
        counters = (
            np.arange(initial_counter, initial_counter + n_blocks) & 0xFFFFFFFF
        ).astype(np.uint32)
        # state[word, block]: 16 words replicated across blocks.
        state = np.empty((16, n_blocks), dtype=np.uint32)
        state[0:4] = _CONSTANTS[:, None]
        state[4:12] = self._key_words[:, None]
        state[12] = counters
        state[13:16] = self._nonce_words[:, None]
        working = state.copy()
        with np.errstate(over="ignore"):
            for _ in range(10):  # 20 rounds = 10 column+diagonal double rounds
                _quarter_round(working, 0, 4, 8, 12)
                _quarter_round(working, 1, 5, 9, 13)
                _quarter_round(working, 2, 6, 10, 14)
                _quarter_round(working, 3, 7, 11, 15)
                _quarter_round(working, 0, 5, 10, 15)
                _quarter_round(working, 1, 6, 11, 12)
                _quarter_round(working, 2, 7, 8, 13)
                _quarter_round(working, 3, 4, 9, 14)
            working += state
        # Serialize: per block, the 16 words little-endian, blocks in order.
        blocks = working.T.astype("<u4").tobytes()
        return blocks[:n_bytes]

    def process(self, data: bytes, initial_counter: int = 1) -> bytes:
        """Encrypt or decrypt (XOR with keystream) — the operation is symmetric."""
        stream = np.frombuffer(self.keystream(len(data), initial_counter),
                               dtype=np.uint8)
        message = np.frombuffer(data, dtype=np.uint8)
        return (message ^ stream).tobytes()
