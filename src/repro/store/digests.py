"""Join-value digests: per-predicate value fingerprints for partial eval.

Partial evaluation (Peng/Zou) ships the whole branch plan to every
endpoint and assembles the returned partial matches centrally.  Shipped
naively, a fragment's extent at one endpoint can dwarf the bound-join
ladder it replaces: most local rows never join with *any* row from the
other endpoints.  The digest index gives each endpoint a cheap, sound
way to drop those rows before they cross the wire.

A digest is the set of 32-bit fingerprints (:func:`stable_term_hash`,
CRC-32 over the term's N3 form) of every distinct subject or object
value a predicate carries in one store.  The mediator unions the
digests of the endpoints on the *other* side of a crossing edge and
embeds that set in the partial request; the evaluating endpoint keeps a
fragment row only if its crossing-variable value hashes into the set.
CRC collisions can only keep extra rows, never drop one, so pruning is
sound — the mediator join discards survivors that do not actually match.

Digests are built lazily per ``(predicate, position)`` from the store's
match index and pinned to the store's state, the one validity rule of
the plan cache and the characteristic-set summaries
(:meth:`~repro.store.triple_store.TripleStore.current`).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdf.terms import Term
    from repro.store.triple_store import TripleStore

#: Digest positions: which end of the predicate's triples is hashed.
SUBJECT = "subject"
OBJECT = "object"
POSITIONS = (SUBJECT, OBJECT)

#: Wire-size accounting: one fingerprint is a packed 32-bit word.
BYTES_PER_HASH = 4


def stable_term_hash(term: "Term") -> int:
    """A deterministic 32-bit fingerprint of an RDF term.

    Hashes the N3 serialization so IRIs, literals (with datatype and
    language tags) and blank nodes that render identically fingerprint
    identically across endpoints, independent of dictionary ids.
    """
    return zlib.crc32(term.n3().encode("utf-8"))


class JoinDigestIndex:
    """Lazy per-store cache of join-value digests.

    One instance lives on each endpoint.  A digest is computed on first
    request for a ``(predicate, position)`` pair and kept in the store's
    per-state memo (:meth:`TripleStore.memo`), so any write retires it,
    as the mediator's digest cache retires every digest of a written
    endpoint (``FederationClient.join_digest``).  The store could tell a
    write to another predicate apart (:meth:`TripleStore.last_write`),
    but rebuilding one digest is a single index scan.
    """

    def __init__(self, store: "TripleStore"):
        self._store = store
        #: Full scans performed (observability; cache hits don't count).
        self.builds = 0

    def digest(self, predicate: "Term", position: str) -> frozenset[int]:
        """Fingerprints of the predicate's distinct values at ``position``."""
        if position not in POSITIONS:
            raise ValueError(f"unknown digest position: {position!r}")
        return self._store.memo(
            ("digest", predicate, position), lambda: self._build(predicate, position)
        )

    def _build(self, predicate: "Term", position: str) -> frozenset[int]:
        subject_end = position == SUBJECT
        self.builds += 1
        return frozenset(
            stable_term_hash(triple.subject if subject_end else triple.object)
            for triple in self._store.match(None, predicate, None)
        )


def digest_bytes(digest: frozenset[int]) -> int:
    """Wire size of one digest (packed 32-bit fingerprints)."""
    return len(digest) * BYTES_PER_HASH
