"""The libcrypto exponentiation kernel against its ``pow`` reference."""

import builtins
import hashlib
import random
import sys
import types

import pytest

from repro.crypto import bignum
from repro.crypto.bignum import BignumError, backend, modexp
from repro.crypto.primes import generate_prime
from repro.crypto.rsa import (
    _crt_params,
    generate_keypair,
    keypair_for_seed,
    rsa_private_op,
    rsa_public_op,
)
from repro.crypto.signing import sign, verify
from repro.service import ServiceConfig
from repro.sim.rng import derive_seed

requires_libcrypto = pytest.mark.skipif(
    backend() == bignum.PYTHON_BACKEND,
    reason="libcrypto's BN_* functions are not bound on this interpreter",
)

KEY_BITS = (512, 1024, 2048)


@pytest.fixture(scope="module", params=KEY_BITS, ids=lambda b: f"rsa{b}")
def keys(request):
    return keypair_for_seed(request.param, request.param)


@pytest.fixture()
def pow_calls(monkeypatch):
    """Force the ``pow`` path: the interpreter offers no ``_hashlib``."""
    monkeypatch.setitem(sys.modules, "_hashlib", None)
    monkeypatch.setattr(bignum, "_lib", bignum._UNBOUND)
    calls = []

    def spy(*args):
        calls.append(args)
        return builtins.pow(*args)

    monkeypatch.setattr(bignum, "pow", spy, raising=False)
    return calls


def _edge_bases(mod):
    return (0, 1, mod - 1, mod, mod + 1, 3 * mod + 7)


class TestAgainstPow:
    def test_backend_names_a_path(self):
        name = backend()
        assert name == "python" or name.startswith("libcrypto OpenSSL ")

    def test_crt_halves(self, keys):
        private = keys.private
        dp, dq, _ = _crt_params(private)
        rng = random.Random(private.n.bit_length())
        bases = [rng.randrange(private.n) for _ in range(20)]
        for mod, exp in ((private.p, dp), (private.q, dq)):
            for base in bases + list(_edge_bases(mod)):
                assert modexp(base, exp, mod) == pow(base, exp, mod)

    def test_public_op(self, keys):
        public = keys.public
        rng = random.Random(public.n.bit_length() + 1)
        bases = [rng.randrange(public.n) for _ in range(20)]
        for base in bases + list(_edge_bases(public.n)):
            assert modexp(base, public.e, public.n, secret=False) == pow(
                base, public.e, public.n
            )

    def test_miller_rabin_witnesses(self, keys):
        # Witness exponentiation a^d mod n for a prime and a composite
        # odd candidate, with n - 1 = d * 2^r.
        private = keys.private
        rng = random.Random(private.p.bit_length())
        for n in (private.p, private.p * private.q):
            d = n - 1
            while d % 2 == 0:
                d //= 2
            witnesses = [rng.randrange(2, n - 1) for _ in range(10)]
            for a in witnesses + list(_edge_bases(n)):
                assert modexp(a, d, n) == pow(a, d, n)

    def test_zero_exponent_and_unit_modulus(self):
        for secret in (True, False):
            assert modexp(5, 0, 7, secret=secret) == 1
            assert modexp(5, 0, 1, secret=secret) == 0
            assert modexp(5, 3, 1, secret=secret) == 0
        assert modexp(5, 0, 8, secret=False) == 1

    def test_even_modulus_public_path(self):
        rng = random.Random(8)
        mod = rng.getrandbits(1024) << 1
        base, exp = rng.getrandbits(1100), rng.getrandbits(64)
        assert modexp(base, exp, mod, secret=False) == pow(base, exp, mod)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            modexp(2, 3, 0)
        with pytest.raises(ValueError):
            modexp(2, -1, 7)
        with pytest.raises(ValueError):
            modexp(2, 3, 10)  # the constant-time entry needs an odd modulus

    def test_private_op_matches_plain_exponentiation(self, keys):
        private = keys.private
        message = random.Random(3).randrange(private.n)
        signature = rsa_private_op(private, message)
        assert signature == pow(message, private.d, private.n)
        assert rsa_public_op(keys.public, signature) == message


# SHA-256 over "<p hex>:<q hex>" of the service's two keys at the default
# seed, as pure-Python ``pow`` generated them: key generation through
# libcrypto must reproduce them exactly.
SERVICE_KEY_DIGESTS = {
    "edge-key": (
        "3c14c350f104c2481726b1b84ce073c0995dfdefb347f8087faf11bd9de6d977"
    ),
    "operator-key": (
        "e129245fad24fe262fa14d95f42daae14748fb568ea8ce5db8e32699d4a378fc"
    ),
}


class TestKeysAreUnchanged:
    @pytest.mark.parametrize("name", sorted(SERVICE_KEY_DIGESTS))
    def test_service_keys_are_pinned(self, name):
        config = ServiceConfig()
        key = keypair_for_seed(
            derive_seed(config.seed, "service", name), config.key_bits
        ).private
        digest = hashlib.sha256(f"{key.p:x}:{key.q:x}".encode()).hexdigest()
        assert digest == SERVICE_KEY_DIGESTS[name]


class TestFallback:
    def test_pow_runs_and_backend_reports_python(self, pow_calls):
        assert backend() == "python"
        assert modexp(5, 117, 19) == builtins.pow(5, 117, 19)
        assert pow_calls == [(5, 117, 19)]

    def test_handle_without_bn_symbols_falls_back(self, monkeypatch):
        monkeypatch.setattr(bignum, "_lib", bignum._UNBOUND)
        monkeypatch.setattr(
            bignum.ctypes, "CDLL", lambda path: types.SimpleNamespace()
        )
        assert backend() == "python"

    @requires_libcrypto
    def test_both_paths_give_identical_keys_and_signatures(
        self, monkeypatch
    ):
        fast_keys = generate_keypair(512, random.Random(41))
        fast_prime = generate_prime(256, random.Random(42))
        fast_sig = sign(fast_keys.private, b"cycle 7 claim")
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        monkeypatch.setattr(bignum, "_lib", bignum._UNBOUND)
        assert backend() == "python"
        slow_keys = generate_keypair(512, random.Random(41))
        assert slow_keys == fast_keys
        assert generate_prime(256, random.Random(42)) == fast_prime
        assert sign(slow_keys.private, b"cycle 7 claim") == fast_sig
        assert verify(slow_keys.public, b"cycle 7 claim", fast_sig)


@requires_libcrypto
class TestFailures:
    @pytest.fixture()
    def lib(self):
        return bignum._libcrypto()

    def test_real_bn_failure_raises(self, lib):
        # The constant-time entry point rejects an even modulus inside
        # OpenSSL (bypassing modexp's own argument check).
        with pytest.raises(BignumError, match="consttime"):
            lib.modexp(3, 5, 10, True)
        assert lib.modexp(3, 5, 7, True) == 5  # and the binding still works

    @pytest.mark.parametrize("call", ["BN_CTX_new", "BN_bin2bn", "BN_new"])
    def test_null_return_raises(self, lib, monkeypatch, call):
        monkeypatch.setattr(lib, call, lambda *args: None)
        with pytest.raises(BignumError, match=call):
            modexp(3, 5, 7)

    @pytest.mark.parametrize(
        "call, secret",
        [
            ("BN_mod_exp_mont_consttime", True),
            ("BN_mod_exp", False),
            ("BN_bn2binpad", True),
        ],
    )
    def test_zero_return_raises_and_frees_everything(
        self, lib, monkeypatch, call, secret
    ):
        allocated, freed = [], []

        def recording(name, sink):
            real = getattr(lib, name)

            def wrapper(*args):
                result = real(*args)
                if sink is allocated:
                    allocated.append(result)
                else:
                    freed.append(args[0])
                return result

            monkeypatch.setattr(lib, name, wrapper)

        for name in ("BN_bin2bn", "BN_new", "BN_CTX_new"):
            recording(name, allocated)
        for name in ("BN_free", "BN_clear_free", "BN_CTX_free"):
            recording(name, freed)
        monkeypatch.setattr(lib, call, lambda *args: 0)
        with pytest.raises(BignumError, match=call):
            modexp(3, 5, 7, secret=secret)
        assert sorted(freed) == sorted(allocated)
        assert len(allocated) == 5  # three operands, the result, the ctx

    @pytest.mark.parametrize("secret", [True, False])
    def test_secret_operands_are_cleared_on_free(
        self, lib, monkeypatch, secret
    ):
        counts = {"BN_free": 0, "BN_clear_free": 0}
        for name in counts:
            real = getattr(lib, name)

            def wrapper(bn, name=name, real=real):
                counts[name] += 1
                real(bn)

            monkeypatch.setattr(lib, name, wrapper)
        assert modexp(3, 5, 7, secret=secret) == 5
        if secret:
            assert counts == {"BN_free": 0, "BN_clear_free": 4}
        else:
            assert counts == {"BN_free": 4, "BN_clear_free": 0}
