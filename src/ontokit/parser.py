"""Text front-end for the supported functional-syntax subset.

`tokenize` / `parse` / `serialize` over UTF-8 ".ofn" documents. The grammar
covers prefix declarations, one Ontology block, declarations, the class and
property axioms the model supports, and the ALC-with-inverses concept
constructors. One `findall` of one pattern reads a document into its token
texts, and a recursive descent walks them. Parsing aborts on the first error
with an exact (line, column); serialization is canonical and
byte-deterministic.
"""

from __future__ import annotations

import enum
import itertools
import re
from typing import Callable, NoReturn

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
    _Value,
)

# The deepest expression is MAX_NESTING - 1 levels. The reasoner's sort keys,
# `to_nnf` and the site renderer recurse on nesting, each at 2-4 frames a
# level, so every subcommand must carry that depth within the default
# recursion limit of 1000, under a test runner's frames too.
MAX_NESTING = 128


class SourceLocation(_Value):
    __slots__ = ()
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


class Token(_Value):
    __slots__ = ()
    kind: TokenKind
    text: str
    location: SourceLocation


# Whitespace and comments. A comment must run to the end of its line, so a
# failed token match cannot backtrack into one and find a token there.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?:\n|\Z)[ \t\r\n]*)*"
_STRING_BODY = re.compile(r'[^"\\]*(?:\\["\\][^"\\]*)*')
_IRI_BODY = re.compile(r"[^\s<>]*")
_ESCAPE = re.compile(r'\\(["\\])')
# The skipped text, then one token, whose text is the only group: a
# parenthesis, a name (a keyword, or a prefixed name if it holds ':'), an
# IRI reference, a string literal, '^^', '=', Eof's empty text, or else the
# one character that starts no token, a lex error. So `findall` reads a
# whole document into token texts, ending with Eof.
_TOKEN = re.compile(_SKIP + r"""(
      \) | \(
    | [A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z0-9_.\-]*)?|:[A-Za-z0-9_.\-]*
    | <[^\s<>]+>
    | "(?:""" + _STRING_BODY.pattern + r""")"
    | \^\^ | = | \Z | .)""", re.VERBOSE)
_PUNCTUATION = {"(": TokenKind.LPAREN, ")": TokenKind.RPAREN, "=": TokenKind.EQUALS,
                "^^": TokenKind.CARETS, "": TokenKind.EOF}


def _kind(token: str) -> TokenKind | None:
    """The kind of a token text of `_TOKEN`, read off its first character;
    None for a lex error, whose text is one character."""
    kind = _PUNCTUATION.get(token)
    if kind is None:
        first = token[0]
        if first == "<" or first == '"':
            if len(token) > 1:
                kind = TokenKind.IRI_REF if first == "<" else TokenKind.STRING
        elif first == "_" or first == ":" or first.isascii() and first.isalpha():
            kind = TokenKind.PNAME if ":" in token else TokenKind.KEYWORD
    return kind


def _value(token: str) -> str:
    """A token's value: an IRI reference without its brackets, a string
    literal's text unescaped, any other token its text."""
    if len(token) > 1 and token[0] in '<"':
        body = token[1:-1]
        return _ESCAPE.sub(r"\1", body) if token[0] == '"' and "\\" in body else body
    return token


def tokenize(text: str) -> list[Token]:
    """Scan the input into tokens, ending with Eof, or raise the first lex
    error.

    Whitespace and '#'-to-end-of-line comments (outside IRIs and strings) are
    skipped; string values are stored unescaped.
    """
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        token, offset = match[1], match.start(1)
        kind = _kind(token)
        if kind is None:
            raise _lex_error(text, offset)
        newlines = text.count("\n", line_start, offset)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", line_start, offset) + 1
        tokens.append(Token(kind, _value(token), SourceLocation(line, offset - line_start + 1)))
        if kind is TokenKind.EOF:
            break
    return tokens


def _lex_error(text: str, start: int) -> ParseError:
    """The error for the lex error token at `start`; only the failure path
    comes here."""
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

_ROLE = "object property IRI"
_INDIVIDUAL = "individual IRI"


class _Parser:
    """Recursive descent over the token texts of one `_TOKEN.findall`.

    The descent walks the list by index and compares token texts; it reads
    a token's kind with `_kind` only where the grammar allows more than one.
    A lex error's token is raised only when the descent reaches it, so an
    unsupported keyword still wins over a lex error inside it. Offsets come
    from a `finditer` of the same pattern, only for an error.

    Each IRI value is built once per document: every mention of it, in
    either spelling (`:A` or `<...#A>`), is the same `Iri` object, and every
    mention as a concept is the same `Named`, `Top` or `Bottom` leaf. The
    dicts that hold them are keyed by text (a token's, or the IRI, which is
    its own text), so a name read before costs one dict lookup, and later
    lookups of equal values find identical objects.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.depth = 0
        # IRI text -> Iri; the built-in constants are the document's own.
        self.iris: dict[str, Iri] = {iri.value: iri for iri in (OWL_THING, OWL_NOTHING, XSD_STRING)}
        # Token text of a prefixed name or an IRI reference -> Iri.
        self.names: dict[str, Iri] = {}
        # Iri -> its concept leaf.
        self.leaves: dict[Iri, ConceptExpression] = {OWL_THING: Top(), OWL_NOTHING: Bottom()}
        # Token text of a concept name -> its leaf.
        self.concepts: dict[str, ConceptExpression] = {}

    def error(self, kind: ParseErrorKind, pos: int, message: str) -> ParseError:
        """The error at token `pos`, or the lex error if that token is one."""
        offset = next(itertools.islice(_TOKEN.finditer(self.text), pos, None)).start(1)
        if _kind(self.tokens[pos]) is None:
            return _lex_error(self.text, offset)
        return ParseError(kind, _location(self.text, offset), message)

    def fail_unexpected(self, pos: int, what: str) -> NoReturn:
        token = self.tokens[pos]
        shown = _value(token) if token else "end of input"
        raise self.error(ParseErrorKind.UNEXPECTED_TOKEN, pos,
                         f"expected {what}, found {shown!r}")

    def expect(self, token: str, what: str) -> None:
        pos = self.pos
        if self.tokens[pos] != token:
            self.fail_unexpected(pos, what)
        self.pos = pos + 1

    def take(self, kind: TokenKind, what: str) -> str:
        """The value of the next token, which must be of `kind`."""
        pos = self.pos
        token = self.tokens[pos]
        if _kind(token) is not kind:
            self.fail_unexpected(pos, what)
        self.pos = pos + 1
        return _value(token)

    def intern(self, value: str) -> Iri:
        # The scanner admits no whitespace in an IRI reference or a prefixed
        # name, and no empty IRI reference, so Iri() cannot fail here.
        iri = self.iris.get(value)
        if iri is None:
            iri = self.iris[value] = Iri(value)
        return iri

    def parse_iri(self, what: str = "IRI") -> Iri:
        pos = self.pos
        token = self.tokens[pos]
        iri = self.names.get(token)
        if iri is None:
            kind = _kind(token)
            if kind is TokenKind.PNAME:
                prefix, _, local = token.partition(":")
                if prefix not in self.prefixes:
                    raise self.error(ParseErrorKind.UNDECLARED_PREFIX, pos,
                                     f"undeclared prefix '{prefix}:'")
                iri = self.intern(self.prefixes[prefix] + local)
            elif kind is TokenKind.IRI_REF:
                iri = self.intern(token[1:-1])
            else:
                self.fail_unexpected(pos, what)
            self.names[token] = iri
        self.pos = pos + 1
        return iri

    # -- document -----------------------------------------------------------

    def parse_document(self) -> tuple[Iri, dict[str, str], list[Axiom]]:
        tokens = self.tokens
        while tokens[self.pos] == "Prefix":
            self.parse_prefix()
        if tokens[self.pos] != "Ontology":
            self.fail_unexpected(self.pos, "'Ontology('")
        self.pos += 1
        self.expect("(", "'('")
        ontology_iri = self.intern(self.take(TokenKind.IRI_REF, "ontology IRI"))
        axioms: list[Axiom] = []
        while tokens[self.pos] != ")":
            axioms.append(self.parse_axiom())
        self.pos += 1
        trailing = tokens[self.pos]
        if trailing:  # not Eof
            if trailing == "Ontology":
                raise self.error(ParseErrorKind.DUPLICATE_ONTOLOGY, self.pos,
                                 "a document holds exactly one Ontology block")
            self.fail_unexpected(self.pos, "end of input")
        return ontology_iri, self.prefixes, axioms

    def parse_prefix(self) -> None:
        self.pos += 1  # 'Prefix'
        self.expect("(", "'('")
        name_pos = self.pos
        name = self.take(TokenKind.PNAME, "prefix name like 'p:'")
        prefix, _, local = name.partition(":")
        if local:
            raise self.error(ParseErrorKind.UNEXPECTED_TOKEN, name_pos,
                             f"prefix declaration must end in ':', found {name!r}")
        self.expect("=", "'='")
        expansion = self.take(TokenKind.IRI_REF, "IRI")
        self.expect(")", "')'")
        existing = self.prefixes.get(prefix)
        if existing is not None and existing != expansion:
            raise self.error(ParseErrorKind.UNEXPECTED_TOKEN, name_pos,
                             f"conflicting redeclaration of prefix '{prefix}:'")
        self.prefixes[prefix] = expansion

    # -- axioms --------------------------------------------------------------

    def parse_axiom(self) -> Axiom:
        pos = self.pos
        name = self.tokens[pos]
        build = _AXIOMS.get(name)
        if build is None:
            if _kind(name) is not TokenKind.KEYWORD:
                self.fail_unexpected(pos, "an axiom keyword")
            known = name in _UNSUPPORTED_AXIOMS or name in _UNSUPPORTED_CONCEPTS
            raise self.error(ParseErrorKind.UNKNOWN_CONSTRUCT, pos,
                             f"{'unsupported' if known else 'unknown'} construct '{name}'")
        if self.tokens[pos + 1] != "(":
            self.fail_unexpected(pos + 1, "'('")
        self.pos = pos + 2
        axiom = build(self)
        self.expect(")", "')'")
        return axiom

    def parse_declaration(self) -> Axiom:
        pos = self.pos
        name = self.tokens[pos]
        kind = _DECLARATION_KINDS.get(name)
        if kind is None:
            if _kind(name) is TokenKind.KEYWORD:
                raise self.error(ParseErrorKind.UNKNOWN_CONSTRUCT, pos,
                                 f"unknown entity kind '{name}'")
            self.fail_unexpected(pos, "an entity kind keyword")
        self.pos = pos + 1
        self.expect("(", "'('")
        iri = self.parse_iri("entity IRI")
        self.expect(")", "')'")
        return Declaration(Entity(kind, iri))

    def concept_list(self) -> tuple[ConceptExpression, ...]:
        """Two or more concepts, up to the closing ')'."""
        items = [self.parse_concept(), self.parse_concept()]
        while self.tokens[self.pos] != ")":
            items.append(self.parse_concept())
        return tuple(items)

    # -- expressions ----------------------------------------------------------

    def parse_concept(self) -> ConceptExpression:
        pos = self.pos
        token = self.tokens[pos]
        if self.depth >= MAX_NESTING:
            raise self.error(ParseErrorKind.UNEXPECTED_TOKEN, pos,
                             "expression nesting too deep")
        leaf = self.concepts.get(token)
        if leaf is not None:
            self.pos = pos + 1
            return leaf
        if token not in _CONSTRUCTORS:
            kind = _kind(token)
            if kind is TokenKind.IRI_REF or kind is TokenKind.PNAME:
                iri = self.parse_iri("concept IRI")
                leaf = self.leaves.get(iri)
                if leaf is None:
                    leaf = self.leaves[iri] = Named(iri)
                self.concepts[token] = leaf
                return leaf
            if kind is not TokenKind.KEYWORD:
                self.fail_unexpected(pos, "a concept expression")
            known = token in _UNSUPPORTED_CONCEPTS
            raise self.error(ParseErrorKind.UNKNOWN_CONSTRUCT, pos,
                             f"{'unsupported' if known else 'unknown'} construct '{token}'")
        self.pos = pos + 1
        self.expect("(", "'('")
        self.depth += 1
        # One frame per level of nesting: no helper between two levels.
        if token == "ObjectIntersectionOf" or token == "ObjectUnionOf":
            items = [self.parse_concept(), self.parse_concept()]
            while self.tokens[self.pos] != ")":
                items.append(self.parse_concept())
            result = (Intersection if token == "ObjectIntersectionOf" else Union)(tuple(items))
        elif token == "ObjectComplementOf":
            result = Complement(self.parse_concept())
        elif token == "ObjectSomeValuesFrom":
            result = Existential(self.parse_role(), self.parse_concept())
        else:
            result = Universal(self.parse_role(), self.parse_concept())
        self.depth -= 1
        self.expect(")", "')'")
        return result

    def parse_role(self) -> RoleExpression:
        if self.tokens[self.pos] == "ObjectInverseOf":
            self.pos += 1
            self.expect("(", "'('")
            iri = self.parse_iri(_ROLE)
            self.expect(")", "')'")
            return InverseRole(iri)
        return NamedRole(self.parse_iri(_ROLE))

    def parse_literal(self) -> Literal:
        lexical = self.take(TokenKind.STRING, "a string literal")
        if self.tokens[self.pos] == "^^":
            self.pos += 1
            return Literal(lexical, self.parse_iri("datatype IRI"))
        return Literal(lexical)


# Each supported axiom keyword -> what reads its arguments, after its '('.
_AXIOMS: dict[str, Callable[[_Parser], Axiom]] = {
    "Declaration": _Parser.parse_declaration,
    "SubClassOf": lambda p: SubConceptOf(p.parse_concept(), p.parse_concept()),
    "EquivalentClasses": lambda p: EquivalentConcepts(p.concept_list()),
    "DisjointClasses": lambda p: DisjointConcepts(p.concept_list()),
    "SubObjectPropertyOf": lambda p: SubRoleOf(p.parse_iri(_ROLE), p.parse_iri(_ROLE)),
    "InverseObjectProperties": lambda p: InverseRoles(p.parse_iri(_ROLE), p.parse_iri(_ROLE)),
    "TransitiveObjectProperty": lambda p: TransitiveRole(p.parse_iri(_ROLE)),
    "ObjectPropertyDomain": lambda p: RoleDomain(p.parse_iri(_ROLE), p.parse_concept()),
    "ObjectPropertyRange": lambda p: RoleRange(p.parse_iri(_ROLE), p.parse_concept()),
    "ClassAssertion": lambda p: ConceptAssertion(p.parse_concept(), p.parse_iri(_INDIVIDUAL)),
    "ObjectPropertyAssertion": lambda p: RoleAssertion(
        p.parse_iri(_ROLE), p.parse_iri(_INDIVIDUAL), p.parse_iri(_INDIVIDUAL)),
    "DataPropertyAssertion": lambda p: DataAssertion(
        p.parse_iri("data property IRI"), p.parse_iri(_INDIVIDUAL), p.parse_literal()),
    "AnnotationAssertion": lambda p: AnnotationAssertion(
        p.parse_iri("annotation property IRI"), p.parse_iri("subject IRI"), p.parse_literal()),
}


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
        if iri.startswith(expansion):
            local = iri[len(expansion):]
            if _SAFE_LOCAL.fullmatch(local):
                candidate = (-len(expansion), prefix)
                if best is None or candidate < best:
                    best = candidate
    if best is None:
        return f"<{iri}>"
    prefix = best[1]
    return f"{prefix}:{iri[len(prefixes[prefix]):]}"


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
    lines.append(f"Ontology(<{ontology.iri}>")
    names = _Names(prefixes)
    rendered = sorted(
        (_axiom_group(axiom) + (_axiom_text(axiom, names),) for axiom in ontology.axioms)
    )
    lines.extend(text for _, _, text in rendered)
    lines.append(")")
    return "\n".join(lines) + "\n"
