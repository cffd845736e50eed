"""Cryptographic substrate for Proof-of-Charging.

The paper signs CDR/CDA/PoC messages with RSA-1024 via ``java.security``.
This package implements that stack itself — keys, padding, Merkle
batches and every verification rule.  Only the big-number modular
exponentiation runs in native code: OpenSSL's libcrypto, the one
CPython's ``_hashlib`` already links, with ``pow`` as the bit-identical
fallback.

- :mod:`repro.crypto.bignum` — modular exponentiation (libcrypto or ``pow``),
- :mod:`repro.crypto.primes` — Miller–Rabin primality and prime generation,
- :mod:`repro.crypto.rsa` — key generation and the raw RSA permutation,
- :mod:`repro.crypto.signing` — PKCS#1 v1.5 signatures over SHA-256,
- :mod:`repro.crypto.merkle` — Merkle-tree batch signatures (one RSA op
  attests N payloads),
- :mod:`repro.crypto.nonces` — replay-protection nonces and sequence numbers.

Only signing and verification are used by the TLC protocol: the records are
public, so confidentiality is out of scope (as in the paper).
"""

from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
from repro.crypto.merkle import (
    BatchSignature,
    merkle_proof,
    merkle_root,
    sign_batch,
    verify_batch,
    verify_merkle_proof,
)
from repro.crypto.nonces import NonceFactory, SequenceCounter
from repro.crypto.rsa import generate_keypair, keypair_for_seed
from repro.crypto.signing import (
    SignatureError,
    cached_verify,
    sign,
    verify,
)

__all__ = [
    "KeyPair",
    "PrivateKey",
    "PublicKey",
    "BatchSignature",
    "merkle_proof",
    "merkle_root",
    "sign_batch",
    "verify_batch",
    "verify_merkle_proof",
    "NonceFactory",
    "SequenceCounter",
    "generate_keypair",
    "keypair_for_seed",
    "SignatureError",
    "cached_verify",
    "sign",
    "verify",
]
