"""Primality testing and prime generation for RSA key setup.

Miller–Rabin with a deterministic witness set for small inputs and random
witnesses (from a caller-supplied ``random.Random``) for large ones.  The
probabilistic error after 40 rounds is below 2**-80, far beyond what the
charging simulation needs.  Each round's exponentiation runs in
:func:`repro.crypto.bignum.modexp`, constant-time because the candidate
may become a secret prime.
"""

from __future__ import annotations

import random

from repro.crypto.bignum import modexp

# Deterministic Miller-Rabin witness set: correct for all n < 3.3 * 10**24.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Small primes used for cheap trial division before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """One Miller-Rabin round; True means 'probably prime' for witness a."""
    x = modexp(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(
    n: int, rng: random.Random | None = None, rounds: int = 40
) -> bool:
    """Return True if ``n`` is (probably) prime.

    Deterministic for ``n < 3.3e24``; Miller-Rabin with ``rounds`` random
    witnesses beyond that.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < 3_317_044_064_679_887_385_961_981:
        witnesses: tuple[int, ...] | list[int] = _DETERMINISTIC_WITNESSES
    else:
        rng = rng or random.Random(0xC0FFEE)
        witnesses = [rng.randrange(2, n - 1) for _ in range(rounds)]

    return all(
        _miller_rabin_round(n, a % n or 2, d, r)
        for a in witnesses
        if a % n != 0
    )


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime with exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such primes
    always has exactly ``2 * bits`` bits (standard RSA practice).
    """
    if bits < 8:
        raise ValueError(f"prime size too small for RSA: {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, rng):
            return candidate
