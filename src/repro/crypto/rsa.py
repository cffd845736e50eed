"""RSA key generation and the raw RSA permutation.

The TLC paper uses RSA-1024; key size is a parameter here so the Figure 17
ablation can sweep it.  Signing uses the Chinese Remainder Theorem for the
usual ~4x speedup, which matters when the verifier benchmark pushes through
hundreds of thousands of PoCs.  Keys and the CRT recombination live here;
each modular exponentiation runs in :func:`repro.crypto.bignum.modexp`
(libcrypto when bound, ``pow`` otherwise), constant-time for the secret
CRT halves.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.crypto.bignum import modexp
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
from repro.crypto.primes import generate_prime

DEFAULT_KEY_BITS = 1024
DEFAULT_PUBLIC_EXPONENT = 65537


def generate_keypair(
    bits: int = DEFAULT_KEY_BITS,
    rng: random.Random | None = None,
    public_exponent: int = DEFAULT_PUBLIC_EXPONENT,
) -> KeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus.

    Parameters
    ----------
    bits:
        Modulus size; must be even and at least 256 (toy sizes are allowed
        so unit tests stay fast, but production use should keep >= 1024).
    rng:
        Seeded source of randomness; defaults to a fresh SystemRandom-free
        ``random.Random()`` (tests should always pass one explicitly).
    public_exponent:
        The public exponent ``e``; 65537 by default.
    """
    if bits % 2 != 0:
        raise ValueError(f"key size must be even, got {bits}")
    if bits < 256:
        raise ValueError(f"key size too small: {bits} bits (minimum 256)")
    rng = rng or random.Random()

    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % public_exponent == 0:
            continue
        d = pow(public_exponent, -1, phi)
        private = PrivateKey(n=n, e=public_exponent, d=d, p=p, q=q)
        return KeyPair(private=private, public=private.public)


@lru_cache(maxsize=64)
def keypair_for_seed(
    seed: int,
    bits: int = DEFAULT_KEY_BITS,
    public_exponent: int = DEFAULT_PUBLIC_EXPONENT,
) -> KeyPair:
    """The deterministic key pair for ``(seed, bits)``.

    The canonical way a scenario obtains its RSA material: the key is a
    pure function of the seed, so repeated calls return identical keys.
    The result is cached process-wide — campaigns re-running scenarios
    with the same seeds pay for key generation once, not per scenario
    (keygen dominates small negotiation runs otherwise).
    """
    return generate_keypair(
        bits, random.Random(seed), public_exponent=public_exponent
    )


@lru_cache(maxsize=128)
def _crt_params(key: PrivateKey) -> tuple[int, int, int]:
    """CRT exponents and coefficient ``(dp, dq, q_inv)`` for ``key``.

    Pure functions of the (frozen, hashable) key; deriving them per
    signature wastes a modular inversion on every sign.
    """
    return (
        key.d % (key.p - 1),
        key.d % (key.q - 1),
        pow(key.q, -1, key.p),
    )


def rsa_private_op(key: PrivateKey, message: int) -> int:
    """Apply the private-key permutation ``m^d mod n`` using CRT."""
    if not 0 <= message < key.n:
        raise ValueError("message representative out of range [0, n)")
    dp, dq, q_inv = _crt_params(key)
    m1 = modexp(message, dp, key.p)
    m2 = modexp(message, dq, key.q)
    h = (q_inv * (m1 - m2)) % key.p
    return m2 + h * key.q


def rsa_public_op(key: PublicKey, signature: int) -> int:
    """Apply the public-key permutation ``s^e mod n``."""
    if not 0 <= signature < key.n:
        raise ValueError("signature representative out of range [0, n)")
    return modexp(signature, key.e, key.n, secret=False)
