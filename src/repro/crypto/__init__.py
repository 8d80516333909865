"""Stream-cipher encryption for end-to-end encrypted storage.

The paper's evaluation stores *encrypted* images and stresses that its
content-agnostic bit ranking "allows for approximate storage of end-to-end
encrypted data". That only works because a stream cipher maps a ciphertext
bit flip to the same plaintext bit flip (no avalanche across the file, in
contrast to block ciphers in chained modes). ChaCha20 (RFC 8439) is
implemented from scratch here; ``ChaCha20(key, nonce).process(data)``
both encrypts and decrypts.
"""

from repro.crypto.chacha20 import ChaCha20

__all__ = ["ChaCha20"]
