"""Namespace helpers and the vocabularies used throughout the reproduction.

A :class:`Namespace` builds IRIs by attribute access or indexing::

    UB = Namespace("http://swat.cse.lehigh.edu/onto/univ-bench.owl#")
    UB.advisor            # IRI('...univ-bench.owl#advisor')
    UB["takesCourse"]     # same thing, for names that are not identifiers

Attribute access names vocabulary written in the code, so each name's
IRI is minted once and the same object returned on every later access
(a generator loop that writes ``UB.memberOf`` per row allocates
nothing).  Indexing mints a fresh IRI per call: generators index with
data-driven names (``DRUG[f"drug{i}"]``), which a memo would only hoard.

A :class:`PrefixMap` resolves ``prefix:local`` names in parsed SPARQL and
renders compact names in output.
"""

from __future__ import annotations

from repro.exceptions import ParseError
from repro.rdf.terms import IRI


class Namespace:
    """A base IRI from which member IRIs are minted."""

    def __init__(self, base: str):
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def __getattr__(self, name: str) -> IRI:
        # Only reached on a name's first access: the IRI is then an
        # instance attribute, which ordinary lookup finds from then on.
        if name.startswith("_"):
            raise AttributeError(name)
        iri = IRI(self._base + name)
        setattr(self, name, iri)
        return iri

    def __getitem__(self, name: str) -> IRI:
        return IRI(self._base + name)

    def __contains__(self, iri: IRI) -> bool:
        return isinstance(iri, IRI) and iri.value.startswith(self._base)

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"


#: Core W3C vocabularies.
RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")

#: LUBM's univ-bench ontology (the paper's running example).
UB = Namespace("http://swat.cse.lehigh.edu/onto/univ-bench.owl#")

#: Commonly used single terms.
RDF_TYPE = RDF.type
OWL_SAMEAS = OWL.sameAs
RDFS_LABEL = RDFS.label
RDFS_SEEALSO = RDFS.seeAlso

#: Default prefixes understood by the parser without declaration, matching
#: what benchmark queries assume.
DEFAULT_PREFIXES = {
    "rdf": RDF.base,
    "rdfs": RDFS.base,
    "owl": OWL.base,
    "xsd": XSD.base,
    "foaf": FOAF.base,
    "ub": UB.base,
}


class PrefixMap:
    """Bidirectional prefix <-> namespace mapping for parsing and rendering."""

    def __init__(self, prefixes: dict[str, str] | None = None):
        self._by_prefix: dict[str, str] = dict(DEFAULT_PREFIXES)
        if prefixes:
            self._by_prefix.update(prefixes)

    def bind(self, prefix: str, base: str) -> None:
        """Register (or overwrite) a prefix."""
        self._by_prefix[prefix] = base

    def expand(self, prefixed_name: str) -> IRI:
        """Resolve ``prefix:local`` into an IRI; raises ParseError if unknown."""
        prefix, sep, local = prefixed_name.partition(":")
        if not sep:
            raise ParseError(f"not a prefixed name: {prefixed_name!r}")
        base = self._by_prefix.get(prefix)
        if base is None:
            raise ParseError(f"unknown prefix {prefix!r} in {prefixed_name!r}")
        return IRI(base + local)

    def shrink(self, iri: IRI) -> str:
        """Render an IRI compactly using the longest matching prefix."""
        best_prefix = None
        best_base = ""
        for prefix, base in self._by_prefix.items():
            if iri.value.startswith(base) and len(base) > len(best_base):
                best_prefix, best_base = prefix, base
        if best_prefix is None:
            return iri.n3()
        local = iri.value[len(best_base):]
        if not local or any(ch in local for ch in "/#?"):
            return iri.n3()
        return f"{best_prefix}:{local}"

    def items(self):
        return self._by_prefix.items()

    def copy(self) -> "PrefixMap":
        clone = PrefixMap()
        clone._by_prefix = dict(self._by_prefix)
        return clone
