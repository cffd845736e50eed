"""Modular exponentiation in the libcrypto CPython already links.

RSA's cost is big-number exponentiation.  CPython's ``pow`` does it in
portable C at roughly a tenth of OpenSSL's speed, and CPython's
``_hashlib`` extension is itself linked against OpenSSL's libcrypto.
:func:`modexp` binds OpenSSL's BIGNUM functions through
``ctypes.CDLL(_hashlib.__file__)``, so the symbols resolve against that
exact library: no dependency, no second OpenSSL, no option.

Only the exponentiation moves.  Keys, padding, Merkle trees and every
verification rule stay in :mod:`repro.crypto`, and the result is the
same integer ``pow`` returns, so every key, signature and verdict is
bit-identical on either path.

The path is chosen once, at first use, from what the interpreter
offers.  Without ``_hashlib``, or when the extension handle does not
expose the ``BN_*`` symbols (as on Windows), ``pow`` does the work.
:func:`backend` names the path that runs, e.g. ``libcrypto OpenSSL
3.0.19`` or ``python``.

No OpenSSL object outlives a call: the operands become BIGNUMs on
entry and every BIGNUM and the ``BN_CTX`` are freed before returning,
so nothing crosses a fork or a thread.
"""

from __future__ import annotations

import ctypes

#: :func:`backend`'s name for the ``pow`` path.
PYTHON_BACKEND = "python"

_OPENSSL_VERSION = 0  # OpenSSL_version() selector for the version text

# name -> (restype, argtypes); every pointer crosses as c_void_p.
_SIGNATURES = {
    "BN_CTX_new": (ctypes.c_void_p, ()),
    "BN_CTX_free": (None, (ctypes.c_void_p,)),
    "BN_bin2bn": (
        ctypes.c_void_p,
        (ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p),
    ),
    "BN_bn2binpad": (
        ctypes.c_int,
        (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int),
    ),
    "BN_new": (ctypes.c_void_p, ()),
    "BN_free": (None, (ctypes.c_void_p,)),
    "BN_clear_free": (None, (ctypes.c_void_p,)),
    "BN_mod_exp": (ctypes.c_int, (ctypes.c_void_p,) * 5),
    "BN_mod_exp_mont_consttime": (ctypes.c_int, (ctypes.c_void_p,) * 6),
    "OpenSSL_version": (ctypes.c_char_p, (ctypes.c_int,)),
    "ERR_clear_error": (None, ()),
}


class BignumError(RuntimeError):
    """A libcrypto BIGNUM call reported failure."""


class _Libcrypto:
    """The bound ``BN_*`` functions of one libcrypto."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)  # AttributeError: symbol not exposed
            fn.restype = restype
            fn.argtypes = argtypes
            setattr(self, name, fn)
        text = self.OpenSSL_version(_OPENSSL_VERSION).decode()
        self.name = "libcrypto " + " ".join(text.split()[:2])

    def _fail(self, call: str) -> BignumError:
        # Leave no stale entry on the thread's OpenSSL error queue for
        # ``_hashlib`` or ``ssl`` to misreport later.
        self.ERR_clear_error()
        return BignumError(f"{call} failed")

    def modexp(self, base: int, exp: int, mod: int, secret: bool) -> int:
        """``base**exp % mod`` for ``0 <= base < mod``; raises on failure."""
        width = (mod.bit_length() + 7) // 8
        free = self.BN_clear_free if secret else self.BN_free
        ctx = self.BN_CTX_new()
        if not ctx:
            raise self._fail("BN_CTX_new")
        bns = []
        try:
            for value in (base, exp, mod):
                raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
                bn = self.BN_bin2bn(raw, len(raw), None)
                if not bn:
                    raise self._fail("BN_bin2bn")
                bns.append(bn)
            result = self.BN_new()
            if not result:
                raise self._fail("BN_new")
            bns.append(result)
            a, p, m = bns[:3]
            if secret:
                ok = self.BN_mod_exp_mont_consttime(result, a, p, m, ctx, None)
            else:
                ok = self.BN_mod_exp(result, a, p, m, ctx)
            if not ok:
                raise self._fail(
                    "BN_mod_exp_mont_consttime" if secret else "BN_mod_exp"
                )
            out = ctypes.create_string_buffer(width)
            if self.BN_bn2binpad(result, out, width) != width:
                raise self._fail("BN_bn2binpad")
            return int.from_bytes(out.raw, "big")
        finally:
            for bn in bns:
                free(bn)
            self.BN_CTX_free(ctx)


def _bind() -> _Libcrypto | None:
    """The libcrypto behind ``_hashlib``, or None when it cannot be bound."""
    try:
        import _hashlib
    except ImportError:
        return None
    try:
        return _Libcrypto(ctypes.CDLL(_hashlib.__file__))
    except (OSError, AttributeError):
        return None


_UNBOUND = object()
_lib: object = _UNBOUND


def _libcrypto() -> _Libcrypto | None:
    global _lib
    if _lib is _UNBOUND:
        _lib = _bind()
    return _lib  # type: ignore[return-value]


def backend() -> str:
    """The exponentiation path in use: ``libcrypto OpenSSL x.y.z`` or
    ``python``."""
    lib = _libcrypto()
    return PYTHON_BACKEND if lib is None else lib.name


def modexp(base: int, exp: int, mod: int, *, secret: bool = True) -> int:
    """``pow(base, exp, mod)``, computed in libcrypto when it is bound.

    ``secret`` picks the entry point by what the operands reveal.  A
    secret exponent or modulus — a CRT half of a private key, or a
    Miller–Rabin round over a would-be prime — is the default and runs
    through ``BN_mod_exp_mont_consttime``, which needs an odd modulus.
    A public one (``secret=False``) runs through ``BN_mod_exp``.
    ``base`` is reduced modulo ``mod`` first, so any integer base is
    accepted.
    """
    if mod < 1:
        raise ValueError(f"modulus must be positive, got {mod}")
    if exp < 0:
        raise ValueError(f"exponent must be non-negative, got {exp}")
    if secret and mod % 2 == 0:
        raise ValueError("constant-time exponentiation needs an odd modulus")
    lib = _libcrypto()
    if lib is None:
        return pow(base, exp, mod)
    return lib.modexp(base % mod, exp, mod, secret)
