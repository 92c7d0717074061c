"""Text front-end for the supported functional-syntax subset.

`tokenize` / `parse` / `serialize` over UTF-8 ".ofn" documents. The grammar
covers prefix declarations, one Ontology block, declarations, the class and
property axioms the model supports, and the ALC-with-inverses concept
constructors. Parsing aborts on the first error with an exact (line, column);
serialization is canonical and byte-deterministic.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .model import (
    AnnotationAssertion,
    Axiom,
    Bottom,
    Complement,
    ConceptAssertion,
    ConceptExpression,
    DataAssertion,
    Declaration,
    DisjointConcepts,
    Entity,
    EntityKind,
    EquivalentConcepts,
    Existential,
    Intersection,
    InverseRole,
    InverseRoles,
    Iri,
    KIND_ORDER,
    Literal,
    Named,
    NamedRole,
    Ontology,
    OWL_NOTHING,
    OWL_THING,
    RoleAssertion,
    RoleDomain,
    RoleExpression,
    RoleRange,
    SubConceptOf,
    SubRoleOf,
    Top,
    TransitiveRole,
    Union,
    Universal,
    XSD_STRING,
    make_ontology,
)

MAX_NESTING = 512


@dataclass(frozen=True)
class SourceLocation:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseErrorKind(enum.Enum):
    LEX_ERROR = "LexError"
    UNEXPECTED_TOKEN = "UnexpectedToken"
    UNKNOWN_CONSTRUCT = "UnknownConstruct"
    UNDECLARED_PREFIX = "UndeclaredPrefix"
    DUPLICATE_ONTOLOGY = "DuplicateOntology"


class ParseError(Exception):
    def __init__(self, kind: ParseErrorKind, location: SourceLocation, message: str):
        super().__init__(f"{location}: {kind.value}: {message}")
        self.kind = kind
        self.location = location
        self.message = message


class TokenKind(enum.Enum):
    KEYWORD = "Keyword"
    IRI_REF = "IriRef"
    PNAME = "PrefixedName"
    STRING = "StringLiteral"
    CARETS = "CaretCaret"
    LPAREN = "OpenParen"
    RPAREN = "CloseParen"
    EQUALS = "Equals"
    EOF = "Eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    location: SourceLocation


# Whitespace and comments. A comment must run to the end of its line, so a
# failed token match cannot backtrack into one and find a token there.
_SKIP = re.compile(r"[ \t\r\n]*(?:\#[^\n]*(?:\n|\Z)[ \t\r\n]*)*")
_STRING_BODY = re.compile(r'[^"\\]*(?:\\["\\][^"\\]*)*')
_IRI_BODY = re.compile(r"[^\s<>]*")
_ESCAPE = re.compile(r'\\(["\\])')
# One alternative per token kind, after the skipped text. A keyword and a
# prefixed name share the NAME alternative; the ':' tells them apart.
_TOKEN = re.compile(_SKIP.pattern + r"""(?:
      (?P<RPAREN>\))
    | (?P<LPAREN>\()
    | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z0-9_.\-]*)?|:[A-Za-z0-9_.\-]*)
    | (?P<IRI_REF><[^\s<>]+>)
    | (?P<STRING>"(?:""" + _STRING_BODY.pattern + r""")")
    | (?P<CARETS>\^\^)
    | (?P<EQUALS>=)
    | (?P<EOF>\Z))""", re.VERBOSE)
# The token kind of each group number (None for NAME); matching by number is
# much cheaper than by group name.
_KIND_OF_GROUP = tuple(
    TokenKind.__members__.get(name) for name, _ in
    sorted(_TOKEN.groupindex.items(), key=lambda item: item[1]))


def tokenize(text: str) -> list[Token]:
    """Scan the input into tokens, ending with Eof.

    Whitespace and '#'-to-end-of-line comments (outside IRIs and strings) are
    skipped; string values are stored unescaped.
    """
    tokens = []
    line, line_start = 1, 0
    for kind, value, offset in _scan(text):
        newlines = text.count("\n", line_start, offset)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", line_start, offset) + 1
        tokens.append(Token(kind, value, SourceLocation(line, offset - line_start + 1)))
    return tokens


def _scan(text: str):
    """Lazily yield (kind, text, offset) for each token, ending with Eof."""
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        if m is None:
            raise _lex_error(text, pos)
        group = m.lastindex
        start, pos = m.span(group)
        kind = _KIND_OF_GROUP[group - 1]
        value = text[start:pos]
        if kind is None:
            yield (TokenKind.PNAME if ":" in value else TokenKind.KEYWORD), value, start
        elif kind is TokenKind.IRI_REF:
            yield kind, value[1:-1], start
        elif kind is TokenKind.STRING:
            value = value[1:-1]
            yield kind, _ESCAPE.sub(r"\1", value) if "\\" in value else value, start
        else:
            yield kind, value, start
            if kind is TokenKind.EOF:
                return


def _lex_error(text: str, pos: int) -> ParseError:
    """The error for the first token at or after `pos`, which `_TOKEN` does
    not match; only the failure path comes here."""
    start = _SKIP.match(text, pos).end()
    ch = text[start]
    if ch == "^":
        message = "expected '^^'"
    elif ch == "<":
        end = _IRI_BODY.match(text, start + 1).end()
        stop = text[end:end + 1]
        if stop == ">":
            message = "empty IRI reference"
        elif stop in ("", "\n"):
            message = "unterminated IRI reference"
        else:
            message = "whitespace or '<' inside IRI reference"
    elif ch == '"':
        end = _STRING_BODY.match(text, start + 1).end()
        if end == len(text):
            message = "unterminated string literal"
        else:  # a backslash that escapes neither '\\' nor '"'
            start = end
            message = "invalid escape in string literal (only \\\\ and \\\" allowed)"
    else:
        message = f"unexpected character {ch!r}"
    return ParseError(ParseErrorKind.LEX_ERROR, _location(text, start), message)


def _location(text: str, offset: int) -> SourceLocation:
    return SourceLocation(text.count("\n", 0, offset) + 1,
                          offset - text.rfind("\n", 0, offset))


_DECLARATION_KINDS = {kind.value: kind for kind in EntityKind}

_UNSUPPORTED_AXIOMS = {
    "SubDataPropertyOf", "EquivalentObjectProperties", "EquivalentDataProperties",
    "DisjointObjectProperties", "DisjointDataProperties", "DisjointUnion",
    "FunctionalObjectProperty", "InverseFunctionalObjectProperty",
    "ReflexiveObjectProperty", "IrreflexiveObjectProperty",
    "SymmetricObjectProperty", "AsymmetricObjectProperty",
    "DataPropertyDomain", "DataPropertyRange", "FunctionalDataProperty",
    "DatatypeDefinition", "HasKey", "SameIndividual", "DifferentIndividuals",
    "NegativeObjectPropertyAssertion", "NegativeDataPropertyAssertion",
    "SubAnnotationPropertyOf", "AnnotationPropertyDomain",
    "AnnotationPropertyRange", "Import", "ObjectPropertyChain",
}

_CONSTRUCTORS = {
    "ObjectIntersectionOf", "ObjectUnionOf", "ObjectComplementOf",
    "ObjectSomeValuesFrom", "ObjectAllValuesFrom",
}

_UNSUPPORTED_CONCEPTS = {
    "ObjectOneOf", "ObjectHasValue", "ObjectHasSelf",
    "ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality",
    "DataSomeValuesFrom", "DataAllValuesFrom", "DataHasValue",
    "DataMinCardinality", "DataMaxCardinality", "DataExactCardinality",
    "DataIntersectionOf", "DataUnionOf", "DataComplementOf", "DataOneOf",
}


class _Parser:
    """Recursive descent over `_scan`'s (kind, text, offset) tuples.

    Tokens are scanned only as the parser reaches them, so a construct is
    rejected before later text is scanned: an unsupported keyword wins over
    a lex error inside it. Locations are computed only for an error.

    Each IRI value is built once per document: every mention of it, in
    either spelling (`:A` or `<...#A>`), is the same `Iri` object, and every
    mention as a concept is the same `Named`, `Top` or `Bottom` leaf. The
    dicts that hold them are keyed by text (a prefixed name's, or the IRI's
    own), so a name read before costs a dict lookup and no hash of a model
    value, and later lookups of equal values find identical objects.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text)
        self.lookahead: tuple | None = None
        self.prefixes: dict[str, str] = {}
        self.depth = 0
        # IRI value, which is an IRI reference's token text -> Iri; the
        # built-in constants are the document's own.
        self.iris: dict[str, Iri] = {iri.value: iri for iri in (OWL_THING, OWL_NOTHING, XSD_STRING)}
        # Prefixed name's token text -> Iri.
        self.pnames: dict[str, Iri] = {}
        # IRI value -> its concept leaf.
        self.leaves: dict[str, ConceptExpression] = {OWL_THING.value: Top(),
                                                     OWL_NOTHING.value: Bottom()}

    def peek(self) -> tuple:
        tok = self.lookahead
        if tok is None:
            tok = self.lookahead = next(self.tokens)
        return tok

    def take(self) -> tuple:
        tok = self.peek()
        if tok[0] is not TokenKind.EOF:
            self.lookahead = None
        return tok

    def error(self, kind: ParseErrorKind, tok: tuple, message: str) -> ParseError:
        return ParseError(kind, _location(self.text, tok[2]), message)

    # A token taken before an error is raised is harmless: parsing stops.
    def expect(self, kind: TokenKind, what: str) -> tuple:
        tok = self.take()
        if tok[0] is not kind:
            self.fail_unexpected(tok, what)
        return tok

    def fail_unexpected(self, tok: tuple, what: str) -> None:
        shown = tok[1] if tok[0] is not TokenKind.EOF else "end of input"
        raise self.error(ParseErrorKind.UNEXPECTED_TOKEN, tok,
                         f"expected {what}, found {shown!r}")

    def intern(self, value: str) -> Iri:
        # The scanner admits no whitespace in an IRI reference or a prefixed
        # name, and no empty IRI reference, so Iri() cannot fail here.
        iri = self.iris.get(value)
        if iri is None:
            iri = self.iris[value] = Iri(value)
        return iri

    def parse_iri(self, what: str = "IRI") -> Iri:
        tok = self.take()
        kind, text, _ = tok
        if kind is TokenKind.PNAME:
            iri = self.pnames.get(text)
            if iri is None:
                prefix, _, local = text.partition(":")
                if prefix not in self.prefixes:
                    raise self.error(ParseErrorKind.UNDECLARED_PREFIX, tok,
                                     f"undeclared prefix '{prefix}:'")
                iri = self.pnames[text] = self.intern(self.prefixes[prefix] + local)
            return iri
        if kind is TokenKind.IRI_REF:
            return self.intern(text)
        self.fail_unexpected(tok, what)
        raise AssertionError  # unreachable

    # -- document -----------------------------------------------------------

    def parse_document(self) -> tuple[Iri, dict[str, str], list[Axiom]]:
        while self.peek()[:2] == (TokenKind.KEYWORD, "Prefix"):
            self.parse_prefix()
        tok = self.peek()
        if tok[:2] != (TokenKind.KEYWORD, "Ontology"):
            self.fail_unexpected(tok, "'Ontology('")
        self.take()
        self.expect(TokenKind.LPAREN, "'('")
        iri_tok = self.expect(TokenKind.IRI_REF, "ontology IRI")
        ontology_iri = self.intern(iri_tok[1])
        axioms: list[Axiom] = []
        while self.peek()[0] is not TokenKind.RPAREN:
            axioms.append(self.parse_axiom())
        self.take()  # ')'
        trailing = self.peek()
        if trailing[0] is not TokenKind.EOF:
            if trailing[:2] == (TokenKind.KEYWORD, "Ontology"):
                raise self.error(ParseErrorKind.DUPLICATE_ONTOLOGY, trailing,
                                 "a document holds exactly one Ontology block")
            self.fail_unexpected(trailing, "end of input")
        return ontology_iri, self.prefixes, axioms

    def parse_prefix(self) -> None:
        self.take()  # 'Prefix'
        self.expect(TokenKind.LPAREN, "'('")
        name_tok = self.expect(TokenKind.PNAME, "prefix name like 'p:'")
        prefix, _, local = name_tok[1].partition(":")
        if local:
            raise self.error(ParseErrorKind.UNEXPECTED_TOKEN, name_tok,
                             f"prefix declaration must end in ':', found {name_tok[1]!r}")
        self.expect(TokenKind.EQUALS, "'='")
        expansion = self.expect(TokenKind.IRI_REF, "IRI")[1]
        self.expect(TokenKind.RPAREN, "')'")
        existing = self.prefixes.get(prefix)
        if existing is not None and existing != expansion:
            raise self.error(ParseErrorKind.UNEXPECTED_TOKEN, name_tok,
                             f"conflicting redeclaration of prefix '{prefix}:'")
        self.prefixes[prefix] = expansion

    # -- axioms --------------------------------------------------------------

    def parse_axiom(self) -> Axiom:
        tok = self.peek()
        kind, name, _ = tok
        if kind is not TokenKind.KEYWORD:
            self.fail_unexpected(tok, "an axiom keyword")
        if name in _UNSUPPORTED_AXIOMS or name in _UNSUPPORTED_CONCEPTS:
            raise self.error(ParseErrorKind.UNKNOWN_CONSTRUCT, tok,
                             f"unsupported construct '{name}'")
        handler = getattr(self, f"_axiom_{name}", None)
        if handler is None:
            raise self.error(ParseErrorKind.UNKNOWN_CONSTRUCT, tok,
                             f"unknown construct '{name}'")
        self.take()
        self.expect(TokenKind.LPAREN, "'('")
        axiom = handler()
        self.expect(TokenKind.RPAREN, "')'")
        return axiom

    def _axiom_Declaration(self) -> Axiom:
        tok = self.peek()
        kind, name, _ = tok
        if kind is not TokenKind.KEYWORD or name not in _DECLARATION_KINDS:
            if kind is TokenKind.KEYWORD:
                raise self.error(ParseErrorKind.UNKNOWN_CONSTRUCT, tok,
                                 f"unknown entity kind '{name}'")
            self.fail_unexpected(tok, "an entity kind keyword")
        self.take()
        self.expect(TokenKind.LPAREN, "'('")
        iri = self.parse_iri("entity IRI")
        self.expect(TokenKind.RPAREN, "')'")
        return Declaration(Entity(_DECLARATION_KINDS[name], iri))

    def _axiom_SubClassOf(self) -> Axiom:
        return SubConceptOf(self.parse_concept(), self.parse_concept())

    def _axiom_EquivalentClasses(self) -> Axiom:
        return EquivalentConcepts(tuple(self._concept_list(minimum=2)))

    def _axiom_DisjointClasses(self) -> Axiom:
        return DisjointConcepts(tuple(self._concept_list(minimum=2)))

    def _concept_list(self, minimum: int) -> list[ConceptExpression]:
        items = [self.parse_concept() for _ in range(minimum)]
        while self.peek()[0] is not TokenKind.RPAREN:
            items.append(self.parse_concept())
        return items

    def _axiom_SubObjectPropertyOf(self) -> Axiom:
        return SubRoleOf(self.parse_iri("object property IRI"),
                         self.parse_iri("object property IRI"))

    def _axiom_InverseObjectProperties(self) -> Axiom:
        return InverseRoles(self.parse_iri("object property IRI"),
                            self.parse_iri("object property IRI"))

    def _axiom_TransitiveObjectProperty(self) -> Axiom:
        return TransitiveRole(self.parse_iri("object property IRI"))

    def _axiom_ObjectPropertyDomain(self) -> Axiom:
        return RoleDomain(self.parse_iri("object property IRI"), self.parse_concept())

    def _axiom_ObjectPropertyRange(self) -> Axiom:
        return RoleRange(self.parse_iri("object property IRI"), self.parse_concept())

    def _axiom_ClassAssertion(self) -> Axiom:
        return ConceptAssertion(self.parse_concept(), self.parse_iri("individual IRI"))

    def _axiom_ObjectPropertyAssertion(self) -> Axiom:
        return RoleAssertion(self.parse_iri("object property IRI"),
                             self.parse_iri("individual IRI"),
                             self.parse_iri("individual IRI"))

    def _axiom_DataPropertyAssertion(self) -> Axiom:
        return DataAssertion(self.parse_iri("data property IRI"),
                             self.parse_iri("individual IRI"),
                             self.parse_literal())

    def _axiom_AnnotationAssertion(self) -> Axiom:
        return AnnotationAssertion(self.parse_iri("annotation property IRI"),
                                   self.parse_iri("subject IRI"),
                                   self.parse_literal())

    # -- expressions ----------------------------------------------------------

    def parse_concept(self) -> ConceptExpression:
        tok = self.peek()
        if self.depth >= MAX_NESTING:
            raise self.error(ParseErrorKind.UNEXPECTED_TOKEN, tok,
                             "expression nesting too deep")
        kind, name, _ = tok
        if kind is TokenKind.IRI_REF or kind is TokenKind.PNAME:
            iri = self.parse_iri("concept IRI")
            leaf = self.leaves.get(iri.value)
            if leaf is None:
                leaf = self.leaves[iri.value] = Named(iri)
            return leaf
        if kind is not TokenKind.KEYWORD:
            self.fail_unexpected(tok, "a concept expression")
        if name in _UNSUPPORTED_CONCEPTS:
            raise self.error(ParseErrorKind.UNKNOWN_CONSTRUCT, tok,
                             f"unsupported construct '{name}'")
        if name not in _CONSTRUCTORS:
            raise self.error(ParseErrorKind.UNKNOWN_CONSTRUCT, tok,
                             f"unknown construct '{name}'")
        self.take()
        self.expect(TokenKind.LPAREN, "'('")
        self.depth += 1
        if name == "ObjectIntersectionOf":
            result = Intersection(tuple(self._concept_list(minimum=2)))
        elif name == "ObjectUnionOf":
            result = Union(tuple(self._concept_list(minimum=2)))
        elif name == "ObjectComplementOf":
            result = Complement(self.parse_concept())
        elif name == "ObjectSomeValuesFrom":
            result = Existential(self.parse_role(), self.parse_concept())
        else:
            result = Universal(self.parse_role(), self.parse_concept())
        self.depth -= 1
        self.expect(TokenKind.RPAREN, "')'")
        return result

    def parse_role(self) -> RoleExpression:
        if self.peek()[:2] == (TokenKind.KEYWORD, "ObjectInverseOf"):
            self.take()
            self.expect(TokenKind.LPAREN, "'('")
            iri = self.parse_iri("object property IRI")
            self.expect(TokenKind.RPAREN, "')'")
            return InverseRole(iri)
        return NamedRole(self.parse_iri("object property IRI"))

    def parse_literal(self) -> Literal:
        lexical = self.expect(TokenKind.STRING, "a string literal")[1]
        if self.peek()[0] is TokenKind.CARETS:
            self.take()
            return Literal(lexical, self.parse_iri("datatype IRI"))
        return Literal(lexical)


def parse(text: str, strict: bool = False) -> Ontology:
    """Parse a functional-syntax document into an Ontology.

    The first error aborts with a ParseError carrying an exact location.
    Lenient mode (the default) auto-declares referenced entities with recorded
    warnings; strict mode raises UndeclaredEntityError for missing
    declarations.
    """
    ontology_iri, prefixes, axioms = _Parser(text).parse_document()
    return make_ontology(ontology_iri, tuple(sorted(prefixes.items())), axioms,
                         strict=strict)


def parse_file(path, strict: bool = False) -> Ontology:
    with open(path, encoding="utf-8") as handle:
        return parse(handle.read(), strict=strict)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


_SAFE_LOCAL = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")


def render_iri(iri: Iri, prefixes: dict[str, str]) -> str:
    """Prefixed form when a declared prefix matches (longest expansion wins,
    then the lexicographically smallest prefix), else an <angle-bracket> IRI."""
    best: tuple[int, str] | None = None
    for prefix, expansion in prefixes.items():
        if iri.value.startswith(expansion):
            local = iri.value[len(expansion):]
            if _SAFE_LOCAL.fullmatch(local):
                candidate = (-len(expansion), prefix)
                if best is None or candidate < best:
                    best = candidate
    if best is None:
        return f"<{iri.value}>"
    prefix = best[1]
    return f"{prefix}:{iri.value[len(prefixes[prefix]):]}"


class _Names(dict):
    """Each IRI's text under one prefix map, rendered on its first lookup,
    so a serialization renders each distinct IRI once."""

    def __init__(self, prefixes: dict[str, str]):
        super().__init__()
        self.prefixes = prefixes

    def __missing__(self, iri: Iri) -> str:
        text = self[iri] = render_iri(iri, self.prefixes)
        return text


def _literal_text(literal: Literal, names: _Names) -> str:
    escaped = literal.lexical.replace("\\", "\\\\").replace('"', '\\"')
    if literal.datatype == XSD_STRING:
        return f'"{escaped}"'
    return f'"{escaped}"^^{names[literal.datatype]}'


def _role_text(role: RoleExpression, names: _Names) -> str:
    if isinstance(role, InverseRole):
        return f"ObjectInverseOf({names[role.iri]})"
    return names[role.iri]


def _concept_text(expr: ConceptExpression, names: _Names) -> str:
    if isinstance(expr, Named):
        return names[expr.iri]
    if isinstance(expr, Top):
        return names[OWL_THING]
    if isinstance(expr, Bottom):
        return names[OWL_NOTHING]
    if isinstance(expr, Intersection):
        inner = " ".join(_concept_text(op, names) for op in expr.operands)
        return f"ObjectIntersectionOf({inner})"
    if isinstance(expr, Union):
        inner = " ".join(_concept_text(op, names) for op in expr.operands)
        return f"ObjectUnionOf({inner})"
    if isinstance(expr, Complement):
        return f"ObjectComplementOf({_concept_text(expr.operand, names)})"
    if isinstance(expr, Existential):
        return (f"ObjectSomeValuesFrom({_role_text(expr.role, names)} "
                f"{_concept_text(expr.filler, names)})")
    if isinstance(expr, Universal):
        return (f"ObjectAllValuesFrom({_role_text(expr.role, names)} "
                f"{_concept_text(expr.filler, names)})")
    raise TypeError(f"unknown concept expression: {type(expr).__name__}")


def render_axiom(axiom: Axiom, prefixes: dict[str, str]) -> str:
    return _axiom_text(axiom, _Names(prefixes))


def _axiom_text(axiom: Axiom, names: _Names) -> str:
    r = names.__getitem__
    c = lambda expr: _concept_text(expr, names)
    if isinstance(axiom, Declaration):
        return f"Declaration({axiom.entity.kind.value}({r(axiom.entity.iri)}))"
    if isinstance(axiom, SubConceptOf):
        return f"SubClassOf({c(axiom.sub)} {c(axiom.sup)})"
    if isinstance(axiom, EquivalentConcepts):
        return f"EquivalentClasses({' '.join(c(op) for op in axiom.operands)})"
    if isinstance(axiom, DisjointConcepts):
        return f"DisjointClasses({' '.join(c(op) for op in axiom.operands)})"
    if isinstance(axiom, SubRoleOf):
        return f"SubObjectPropertyOf({r(axiom.sub)} {r(axiom.sup)})"
    if isinstance(axiom, InverseRoles):
        return f"InverseObjectProperties({r(axiom.first)} {r(axiom.second)})"
    if isinstance(axiom, TransitiveRole):
        return f"TransitiveObjectProperty({r(axiom.role)})"
    if isinstance(axiom, RoleDomain):
        return f"ObjectPropertyDomain({r(axiom.role)} {c(axiom.concept)})"
    if isinstance(axiom, RoleRange):
        return f"ObjectPropertyRange({r(axiom.role)} {c(axiom.concept)})"
    if isinstance(axiom, ConceptAssertion):
        return f"ClassAssertion({c(axiom.concept)} {r(axiom.individual)})"
    if isinstance(axiom, RoleAssertion):
        return f"ObjectPropertyAssertion({r(axiom.role)} {r(axiom.subject)} {r(axiom.object)})"
    if isinstance(axiom, DataAssertion):
        return (f"DataPropertyAssertion({r(axiom.role)} {r(axiom.subject)} "
                f"{_literal_text(axiom.value, names)})")
    if isinstance(axiom, AnnotationAssertion):
        return (f"AnnotationAssertion({r(axiom.role)} {r(axiom.subject)} "
                f"{_literal_text(axiom.value, names)})")
    raise TypeError(f"unknown axiom type: {type(axiom).__name__}")


def _axiom_group(axiom: Axiom) -> tuple[int, int]:
    # Declarations (grouped by entity kind), then logical axioms, then
    # assertions, then annotations.
    if isinstance(axiom, Declaration):
        return (0, KIND_ORDER[axiom.entity.kind])
    if isinstance(axiom, (ConceptAssertion, RoleAssertion, DataAssertion)):
        return (2, 0)
    if isinstance(axiom, AnnotationAssertion):
        return (3, 0)
    return (1, 0)


def serialize(ontology: Ontology) -> str:
    """Canonical text form: prefixes sorted, axioms grouped by kind and
    sorted by their serialized text, one per line; byte-identical across runs
    for equal inputs. Each distinct IRI is rendered once per call."""
    prefixes = ontology.prefix_map()
    lines = [f"Prefix({prefix}:=<{expansion}>)"
             for prefix, expansion in sorted(prefixes.items())]
    lines.append(f"Ontology(<{ontology.iri.value}>")
    names = _Names(prefixes)
    rendered = sorted(
        (_axiom_group(axiom) + (_axiom_text(axiom, names),) for axiom in ontology.axioms)
    )
    lines.extend(text for _, _, text in rendered)
    lines.append(")")
    return "\n".join(lines) + "\n"
