"""Merkle-tree batch signatures: one RSA operation attests N payloads.

The paper's public verifier (§5.3.4) is throughput-bound by RSA: checking
N independently signed records costs N public-key operations.  When one
party attests a *batch* of its own records — e.g. an operator submitting
a charging cycle's worth of CDR claims for audit — the signatures can be
amortized: sign the SHA-256 Merkle root of the payloads once, and let the
verifier check one RSA signature plus N cheap hash-path recomputations.

The tree is the standard binary construction:

- leaf hash:  ``SHA-256(0x00 || payload)``
- inner hash: ``SHA-256(0x01 || left || right)``

with an odd node promoted unchanged to the next level (Bitcoin-style
duplication is avoided because it admits CVE-2012-2459-like ambiguity).
Domain-separating leaves from inner nodes forecloses second-preimage
splices of an inner node as a forged leaf.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.signing import sign, verify

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _leaf_hash(payload: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + payload).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


def merkle_root(payloads: Sequence[bytes]) -> bytes:
    """The Merkle root over ``payloads`` (order-sensitive)."""
    if not payloads:
        raise ValueError("cannot build a Merkle tree over zero payloads")
    level = [_leaf_hash(p) for p in payloads]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(_node_hash(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def merkle_proof(payloads: Sequence[bytes], index: int) -> tuple[tuple[bool, bytes], ...]:
    """Inclusion proof for ``payloads[index]``.

    Returns ``(sibling_is_right, sibling_hash)`` pairs from leaf to root;
    levels where the node is promoted without a sibling contribute no
    entry.
    """
    if not 0 <= index < len(payloads):
        raise IndexError(f"leaf index {index} out of range")
    level = [_leaf_hash(p) for p in payloads]
    proof: list[tuple[bool, bytes]] = []
    pos = index
    while len(level) > 1:
        sibling = pos ^ 1
        if sibling < len(level):
            proof.append((sibling > pos, level[sibling]))
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(_node_hash(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        pos //= 2
    return tuple(proof)


def verify_merkle_proof(
    payload: bytes, proof: Sequence[tuple[bool, bytes]], root: bytes
) -> bool:
    """Check that ``payload`` is a leaf of the tree with ``root``."""
    node = _leaf_hash(payload)
    for sibling_is_right, sibling in proof:
        if sibling_is_right:
            node = _node_hash(node, sibling)
        else:
            node = _node_hash(sibling, node)
    return node == root


@dataclass(frozen=True)
class BatchSignature:
    """One RSA signature over the Merkle root of ``count`` payloads."""

    root: bytes
    signature: bytes
    count: int


def sign_batch(key: PrivateKey, payloads: Sequence[bytes]) -> BatchSignature:
    """Sign the Merkle root of ``payloads`` — one RSA op for the batch."""
    root = merkle_root(payloads)
    return BatchSignature(
        root=root, signature=sign(key, root), count=len(payloads)
    )


def verify_batch(
    key: PublicKey,
    payloads: Sequence[bytes],
    batch: BatchSignature,
    verify_signature: Callable[[PublicKey, bytes, bytes], bool] = verify,
) -> bool:
    """Check every payload against a batch signature.

    Recomputes the root from the payloads (N hashes) and verifies the
    single RSA signature over it: the whole batch costs one public-key
    operation instead of N.  ``verify_signature(key, root, signature)``
    is that last check; a caller that remembers verified signatures
    passes its own, which may skip only the RSA op, never the root
    recomputation.
    """
    if len(payloads) != batch.count:
        return False
    if merkle_root(payloads) != batch.root:
        return False
    return verify_signature(key, batch.root, batch.signature)
