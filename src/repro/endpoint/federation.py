"""A federation: the set of endpoints a query may touch.

The federation is index-free from the engines' point of view — exactly
like the paper's setting, engines learn about the data only through
(simulated) remote requests.  The :meth:`Federation.union_store` oracle
exists purely for tests and result validation: it materializes the
decentralized graph as one centralized store, which defines the expected
answer of any federated query.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.endpoint.endpoint import Endpoint
from repro.exceptions import UnknownEndpointError
from repro.store.triple_store import TripleStore


class Federation:
    """An ordered collection of named endpoints."""

    def __init__(self, endpoints: Iterable[Endpoint] = ()):
        self._endpoints: dict[str, Endpoint] = {}
        #: Bumped by every :meth:`add` and :meth:`remove`: a cache that
        #: pins it sees an endpoint join that none of its entries touched.
        self.membership_version = 0
        for endpoint in endpoints:
            self.add(endpoint)

    def add(self, endpoint: Endpoint) -> None:
        if endpoint.name in self._endpoints:
            raise ValueError(f"duplicate endpoint name {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint
        self.membership_version += 1

    def remove(self, name: str) -> Endpoint:
        try:
            endpoint = self._endpoints.pop(name)
        except KeyError:
            raise UnknownEndpointError(name) from None
        self.membership_version += 1
        return endpoint

    def get(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise UnknownEndpointError(name) from None

    def names(self) -> list[str]:
        return list(self._endpoints)

    def __iter__(self) -> Iterator[Endpoint]:
        return iter(self._endpoints.values())

    def __len__(self) -> int:
        return len(self._endpoints)

    def __contains__(self, name: str) -> bool:
        return name in self._endpoints

    def __repr__(self) -> str:
        return f"Federation({self.names()!r})"

    def total_triples(self) -> int:
        return sum(len(endpoint.store) for endpoint in self)

    def union_store(self) -> TripleStore:
        """Materialize the union graph (test oracle only).

        Federated engines must never call this: it represents information
        no mediator has.  Tests compare engine output against a
        centralized evaluation over this store.
        """
        union = TripleStore(name="union")
        for endpoint in self:
            union.add_all(iter(endpoint.store))
        return union

    def subset(self, names: Iterable[str]) -> "Federation":
        """A federation restricted to the named endpoints (same objects)."""
        return Federation(self.get(name) for name in names)
