"""RDF term model: IRIs, literals, blank nodes, and query variables.

Terms are immutable, hashable value objects.  They form the vocabulary for
everything above this layer: the triple store indexes them, the SPARQL
engine binds them to variables, and the federation layer ships them between
endpoints.

The design favours plain ``__slots__`` classes over dataclasses so that
tight loops in the store and evaluator pay minimal attribute overhead.
Hashes are computed once at construction and cached in a ``_hash`` slot:
terms are dictionary keys everywhere (store indexes, solution mappings,
probe caches), and re-hashing a ``(class, str)`` tuple per lookup used to
dominate those paths.
"""

from __future__ import annotations

import math
import re
from typing import Union

from repro.exceptions import TermError

_XSD = "http://www.w3.org/2001/XMLSchema#"
#: Datatype IRIs used by typed literals.
XSD_STRING = _XSD + "string"
XSD_INTEGER = _XSD + "integer"
XSD_DECIMAL = _XSD + "decimal"
XSD_FLOAT = _XSD + "float"
XSD_DOUBLE = _XSD + "double"
XSD_BOOLEAN = _XSD + "boolean"
XSD_DATE = _XSD + "date"

#: ``xsd:integer`` and the types derived from it, with the value bounds
#: that restrict each one's lexical space.
_INTEGER_BOUNDS: dict[str, tuple[float, float]] = {
    XSD_INTEGER: (-math.inf, math.inf),
    _XSD + "nonPositiveInteger": (-math.inf, 0),
    _XSD + "negativeInteger": (-math.inf, -1),
    _XSD + "long": (-(2**63), 2**63 - 1),
    _XSD + "int": (-(2**31), 2**31 - 1),
    _XSD + "short": (-(2**15), 2**15 - 1),
    _XSD + "byte": (-(2**7), 2**7 - 1),
    _XSD + "nonNegativeInteger": (0, math.inf),
    _XSD + "unsignedLong": (0, 2**64 - 1),
    _XSD + "unsignedInt": (0, 2**32 - 1),
    _XSD + "unsignedShort": (0, 2**16 - 1),
    _XSD + "unsignedByte": (0, 2**8 - 1),
    _XSD + "positiveInteger": (1, math.inf),
}
# XSD lexical forms.  ``[0-9]``, not ``\d``: only ASCII digits are digits.
_INTEGER_FORM = re.compile(r"[+-]?[0-9]+")
_DECIMAL_FORM = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")
_DOUBLE_FORM = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
#: The special values of ``xsd:float`` / ``xsd:double`` (XSD 1.1 spelling).
_FLOAT_SPECIALS = {"INF": math.inf, "+INF": math.inf, "-INF": -math.inf, "NaN": math.nan}
#: What XSD's whitespace facet strips (Python's ``strip()`` strips more).
_XSD_WHITESPACE = " \t\n\r"


def _integer(text: str) -> int | float:
    """An integer-form text as an ``int``; past Python's digit limit for
    ``int()`` (``sys.get_int_max_str_digits``) as the nearest ``float``."""
    try:
        return int(text)
    except ValueError:
        return float(text)


class Term:
    """Abstract base for concrete RDF terms (IRI, Literal, BNode)."""

    __slots__ = ()

    def n3(self) -> str:
        """Render the term in N-Triples / SPARQL surface syntax."""
        raise NotImplementedError

    def sort_key(self) -> tuple:
        """Total order across term kinds, used by ORDER BY and tests."""
        raise NotImplementedError


class IRI(Term):
    """An IRI reference, e.g. ``<http://example.org/u0/prof1>``."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: str):
        if not value:
            raise TermError("IRI value must be a non-empty string")
        self.value = value
        self._hash = hash((IRI, value))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IRI) and self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def n3(self) -> str:
        return f"<{self.value}>"

    def sort_key(self) -> tuple:
        return (1, self.value)

    @property
    def authority(self) -> str:
        """The scheme+host prefix of the IRI.

        HiBISCuS-style source pruning groups IRIs by authority: two IRIs can
        only be equal if their authorities match, so join candidates can be
        pruned using per-endpoint authority summaries.
        """
        value = self.value
        scheme_end = value.find("://")
        if scheme_end < 0:
            # URNs and the like: authority is the part before the last ':'.
            head, sep, __ = value.rpartition(":")
            return head if sep else value
        path_start = value.find("/", scheme_end + 3)
        return value if path_start < 0 else value[:path_start]

    @property
    def local_name(self) -> str:
        """The fragment or final path segment, for human-readable output."""
        value = self.value
        for separator in ("#", "/"):
            head, sep, tail = value.rpartition(separator)
            if sep and tail:
                return tail
        return value


class Literal(Term):
    """An RDF literal with optional datatype or language tag."""

    __slots__ = ("value", "datatype", "language", "_hash")

    def __init__(self, value: str, datatype: str | None = None, language: str | None = None):
        if datatype is not None and language is not None:
            raise TermError("a literal cannot have both a datatype and a language tag")
        self.value = str(value)
        self.datatype = datatype
        self.language = language
        self._hash = hash((Literal, self.value, datatype, language))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and self.value == other.value
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Literal({self.value!r}, datatype={self.datatype!r}, language={self.language!r})"

    def n3(self) -> str:
        escaped = (
            self.value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        # Remaining control characters must use \uXXXX escapes.
        if any(ord(ch) < 0x20 for ch in escaped):
            escaped = "".join(
                f"\\u{ord(ch):04X}" if ord(ch) < 0x20 else ch for ch in escaped
            )
        rendered = f'"{escaped}"'
        if self.language:
            return f"{rendered}@{self.language}"
        if self.datatype and self.datatype != XSD_STRING:
            return f"{rendered}^^<{self.datatype}>"
        return rendered

    def sort_key(self) -> tuple:
        numeric = self.numeric_value()
        if numeric is not None:
            return (2, 0, numeric, self.value)
        return (2, 1, self.value, self.language or "")

    def numeric_value(self) -> Union[int, float, None]:
        """The numeric interpretation of the literal, or None.

        Numeric are ``xsd:integer`` and its derived types, ``xsd:decimal``,
        ``xsd:float`` and ``xsd:double`` — each only when the text, once
        XSD whitespace is collapsed, is in the datatype's lexical space
        (``"1.5"^^xsd:integer`` and ``"300"^^xsd:byte`` have no number;
        ``INF`` / ``-INF`` / ``NaN`` only on ``float`` / ``double``).  A
        plain literal in the decimal or double form is numeric too, which
        matches how SPARQL engines compare terms coming from untyped data.
        Text in the integer form reads as an ``int``, any other as a
        ``float``.
        """
        if self.language is not None:
            return None
        datatype = self.datatype
        text = self.value.strip(_XSD_WHITESPACE)
        if datatype is None:
            form = _DOUBLE_FORM
        elif datatype in _INTEGER_BOUNDS:
            if not _INTEGER_FORM.fullmatch(text):
                return None
            number = _integer(text)
            low, high = _INTEGER_BOUNDS[datatype]
            return number if low <= number <= high else None
        elif datatype == XSD_DECIMAL:
            form = _DECIMAL_FORM
        elif datatype == XSD_DOUBLE or datatype == XSD_FLOAT:
            special = _FLOAT_SPECIALS.get(text)
            if special is not None:
                return special
            form = _DOUBLE_FORM
        else:
            return None
        if not form.fullmatch(text):
            return None
        return _integer(text) if _INTEGER_FORM.fullmatch(text) else float(text)


class BNode(Term):
    """A blank node with a store-local label."""

    __slots__ = ("label", "_hash")

    def __init__(self, label: str):
        if not label:
            raise TermError("blank node label must be non-empty")
        self.label = label
        self._hash = hash((BNode, label))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BNode) and self.label == other.label

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BNode({self.label!r})"

    def n3(self) -> str:
        return f"_:{self.label}"

    def sort_key(self) -> tuple:
        return (0, self.label)


class Variable:
    """A SPARQL query variable, e.g. ``?S``.

    Variables are *not* :class:`Term` subclasses: they can appear in triple
    patterns but never in data, and several code paths rely on
    ``isinstance(x, Term)`` meaning "concrete value".

    Instances are interned by name: ``Variable("x") is Variable("x")``.
    Solution dictionaries throughout the evaluator and mediator are keyed
    on variables, and interning lets every dict lookup hit CPython's
    pointer-identity fast path instead of calling ``__eq__``.
    """

    __slots__ = ("name", "_hash")

    _interned: dict[str, "Variable"] = {}

    def __new__(cls, name: str):
        interned = cls._interned.get(name)
        if interned is not None:
            return interned
        if not name or name.startswith(("?", "$")):
            raise TermError(f"variable name must be bare (no ?/$ prefix): {name!r}")
        self = super().__new__(cls)
        self.name = name
        self._hash = hash((Variable, name))
        cls._interned[name] = self
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Re-enter __new__ on unpickle / copy so the result is interned
        # like every other instance (the default slots protocol bypasses
        # __new__ and would crash on the missing ``name`` argument).
        return (Variable, (self.name,))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def n3(self) -> str:
        return f"?{self.name}"


#: Anything allowed in a triple-pattern position.
PatternTerm = Union[Term, Variable]


def is_concrete(term: PatternTerm) -> bool:
    """True if ``term`` is a data term rather than a variable."""
    return isinstance(term, Term)


def typed_literal(value: Union[int, float, bool, str]) -> Literal:
    """Build a literal with the natural XSD datatype for a Python value."""
    if isinstance(value, bool):
        return Literal("true" if value else "false", datatype=XSD_BOOLEAN)
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD_INTEGER)
    if isinstance(value, float):
        if math.isfinite(value):
            return Literal(repr(value), datatype=XSD_DOUBLE)
        text = "NaN" if math.isnan(value) else ("INF" if value > 0 else "-INF")
        return Literal(text, datatype=XSD_DOUBLE)
    return Literal(str(value))


def effective_boolean_value(term: object) -> bool:
    """SPARQL effective boolean value (EBV) of a term.

    Unbound values (None) are an error in real SPARQL; here they are falsy,
    which composes better with FILTER over OPTIONAL results.
    """
    if term is None:
        return False
    if isinstance(term, bool):
        return term
    if isinstance(term, Literal):
        if term.datatype == XSD_BOOLEAN:
            return term.value == "true"
        numeric = term.numeric_value()
        if numeric is not None:
            return numeric != 0
        return bool(term.value)
    return True
