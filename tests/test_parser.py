import random

import pytest
from hypothesis import given, settings, strategies as st

from ontokit.model import (
    Bottom,
    Declaration,
    EntityKind,
    Iri,
    Ontology,
    SubConceptOf,
    Top,
    UndeclaredEntityError,
    _Value,
)
from ontokit.parser import (
    ParseError,
    ParseErrorKind,
    TokenKind,
    parse,
    serialize,
    tokenize,
)
from genontology import random_full_ontology


def kinds(tokens):
    return [t.kind for t in tokens]


def test_tokenize_subclassof():
    tokens = tokenize("SubClassOf(:A :B)")
    assert kinds(tokens) == [TokenKind.KEYWORD, TokenKind.LPAREN, TokenKind.PNAME,
                             TokenKind.PNAME, TokenKind.RPAREN, TokenKind.EOF]
    assert tokens[0].text == "SubClassOf"
    assert tokens[2].text == ":A"


def test_tokenize_empty():
    assert kinds(tokenize("")) == [TokenKind.EOF]


def test_tokenize_string_literal():
    tokens = tokenize('"Flagellates"')
    assert kinds(tokens) == [TokenKind.STRING, TokenKind.EOF]
    assert tokens[0].text == "Flagellates"


def test_tokenize_escapes_and_carets():
    tokens = tokenize(r'"a \"quoted\" word"^^<http://t>')
    assert tokens[0].text == 'a "quoted" word'
    assert tokens[1].kind == TokenKind.CARETS
    assert tokens[2].kind == TokenKind.IRI_REF


def test_tokenize_comments_skipped():
    tokens = tokenize("# a comment\nSubClassOf # trailing\n")
    assert kinds(tokens) == [TokenKind.KEYWORD, TokenKind.EOF]
    assert tokens[0].location.line == 2


def test_tokenize_hash_inside_iri_is_not_comment():
    tokens = tokenize("<http://x#Fragment>")
    assert tokens[0].kind == TokenKind.IRI_REF
    assert tokens[0].text == "http://x#Fragment"


def test_tokenize_locations_accurate():
    tokens = tokenize("Ontology(\n  <http://x>)")
    assert tokens[0].location == tokens[0].location.__class__(1, 1)
    assert tokens[2].location.line == 2
    assert tokens[2].location.column == 3


def test_lex_error_unterminated_string():
    with pytest.raises(ParseError) as err:
        tokenize('"oops')
    assert err.value.kind is ParseErrorKind.LEX_ERROR


def test_lex_error_malformed_iri():
    with pytest.raises(ParseError) as err:
        tokenize("<http://x y>")
    assert err.value.kind is ParseErrorKind.LEX_ERROR


DOC = """Prefix(:=<http://x#>)
Ontology(<http://x>
Declaration(Class(:A))
Declaration(Class(:B))
SubClassOf(:A :B)
)
"""


def test_parse_counts_axioms():
    ontology = parse(DOC)
    assert len(ontology.axioms) == 3
    assert ontology.iri == Iri("http://x")


def test_parse_disease_fixture_file(fixture_dir):
    text = (fixture_dir / "disease.ofn").read_text(encoding="utf-8")
    ontology = parse(text, strict=True)
    concepts = [e for e in __import__("ontokit.model", fromlist=["signature"])
                .signature(ontology) if e.kind is EntityKind.CONCEPT]
    assert len(concepts) == 24


def test_parse_arity_error_location():
    with pytest.raises(ParseError) as err:
        parse("Prefix(:=<http://x#>)\nOntology(<http://x>\nSubClassOf(:A)\n)")
    assert err.value.kind is ParseErrorKind.UNEXPECTED_TOKEN
    assert err.value.location.line == 3
    assert err.value.location.column == 14  # the ')'


def test_parse_undeclared_prefix():
    with pytest.raises(ParseError) as err:
        parse("Ontology(<http://x>\nSubClassOf(q:A q:B)\n)")
    assert err.value.kind is ParseErrorKind.UNDECLARED_PREFIX
    assert "q:" in err.value.message


def test_parse_duplicate_ontology():
    with pytest.raises(ParseError) as err:
        parse("Ontology(<http://x>)\nOntology(<http://y>)")
    assert err.value.kind is ParseErrorKind.DUPLICATE_ONTOLOGY


def test_parse_unknown_construct_for_cardinality():
    doc = ("Prefix(:=<http://x#>)\nOntology(<http://x>\n"
           "SubClassOf(:A ObjectMinCardinality(1 :r :B))\n)")
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert err.value.kind is ParseErrorKind.UNKNOWN_CONSTRUCT
    assert "ObjectMinCardinality" in err.value.message


def test_parse_unknown_keyword():
    with pytest.raises(ParseError) as err:
        parse("Ontology(<http://x>\nFrobnicate(:A)\n)")
    assert err.value.kind is ParseErrorKind.UNKNOWN_CONSTRUCT


def test_parse_owl_thing_and_nothing():
    doc = ("Prefix(:=<http://x#>)\nPrefix(owl:=<http://www.w3.org/2002/07/owl#>)\n"
           "Ontology(<http://x>\nSubClassOf(owl:Thing owl:Nothing)\n)")
    ontology = parse(doc)
    assert SubConceptOf(Top(), Bottom()) in ontology.axioms


def test_parse_strict_raises_on_undeclared():
    with pytest.raises(UndeclaredEntityError):
        parse("Prefix(:=<http://x#>)\nOntology(<http://x>\nSubClassOf(:A :B)\n)",
              strict=True)


def test_parse_lenient_auto_declares():
    ontology = parse("Prefix(:=<http://x#>)\nOntology(<http://x>\nSubClassOf(:A :B)\n)")
    assert len(ontology.warnings) == 2


def test_serialize_empty_ontology_exact_bytes():
    assert serialize(Ontology(Iri("http://x"))) == "Ontology(<http://x>\n)\n"


def test_serialize_is_canonical_fixpoint(disease):
    text = serialize(disease)
    assert serialize(parse(text)) == text


def test_fixture_round_trip(disease, fixture_dir):
    shipped = (fixture_dir / "disease.ofn").read_text(encoding="utf-8")
    assert parse(shipped, strict=True) == disease
    assert serialize(disease) == shipped


def test_declarations_precede_logical_axioms(disease):
    lines = serialize(disease).splitlines()
    decl_lines = [i for i, l in enumerate(lines) if l.startswith("Declaration")]
    logic_lines = [i for i, l in enumerate(lines) if l.startswith("SubClassOf")]
    assert max(decl_lines) < min(logic_lines)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_random_ontologies(seed):
    ontology = random_full_ontology(random.Random(seed))
    text = serialize(ontology)
    assert parse(text, strict=True) == ontology


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=300))
def test_fuzz_parse_never_crashes(text):
    try:
        parse(text)
    except (ParseError, UndeclaredEntityError):
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300))
def test_fuzz_parse_bytes_never_crash(data):
    try:
        parse(data.decode("utf-8", errors="replace"))
    except (ParseError, UndeclaredEntityError):
        pass


def test_deeply_nested_input_is_rejected_not_crashing():
    doc = ("Prefix(:=<http://x#>)\nOntology(<http://x>\nSubClassOf(:A "
           + "ObjectComplementOf(" * 2000 + ":B" + ")" * 2000 + ")\n)")
    with pytest.raises(ParseError):
        parse(doc)


@pytest.mark.parametrize("opening", ["ObjectIntersectionOf(:C ", "ObjectUnionOf(:C ",
                                     "ObjectSomeValuesFrom(:r ", "ObjectAllValuesFrom(:r "])
def test_every_constructor_nested_too_deep_is_a_parse_error(opening):
    doc = ("Prefix(:=<http://x#>)\nOntology(<http://x>\nSubClassOf(:A "
           + opening * 600 + ":B" + ")" * 600 + ")\n)")
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert err.value.message == "expression nesting too deep"


def test_error_locations_are_inside_input():
    bad_docs = [
        "Ontology(",
        "Prefix(:=<http://x#>) Ontology(<http://x> SubClassOf(:A))",
        "Ontology(<http://x> Declaration(Class(<http://y>)))extra",
    ]
    for doc in bad_docs:
        with pytest.raises(ParseError) as err:
            parse(doc)
        lines = doc.splitlines() or [""]
        assert 1 <= err.value.location.line <= len(lines) + 1
        assert err.value.location.column >= 1


def test_megabyte_input_parses_or_rejects_quickly():
    import time
    chunk = 'Declaration(Class(:C0))\n' * 40000  # ~1 MiB of valid axioms
    doc = "Prefix(:=<http://x#>)\nOntology(<http://x>\n" + chunk + ")\n"
    assert len(doc) > 900_000
    start = time.perf_counter()
    ontology = parse(doc)
    assert len(ontology.axioms) == 1  # duplicates collapse
    garbage = ("SubClassOf(:A " * 400 + '"' + "x" * 500_000)
    try:
        parse("Prefix(:=<http://x#>)\nOntology(<http://x>\n" + garbage + ")")
    except ParseError:
        pass
    assert time.perf_counter() - start < 10.0


def test_typed_literal_round_trip():
    doc = ("Prefix(:=<http://x#>)\nPrefix(xsd:=<http://www.w3.org/2001/XMLSchema#>)\n"
           "Ontology(<http://x>\n"
           "Declaration(DataProperty(:age))\n"
           "Declaration(NamedIndividual(:i))\n"
           "Declaration(Datatype(xsd:integer))\n"
           'DataPropertyAssertion(:age :i "41"^^xsd:integer)\n)')
    ontology = parse(doc, strict=True)
    from ontokit.model import DataAssertion, Literal
    typed = [a for a in ontology.axioms if isinstance(a, DataAssertion)]
    assert typed[0].value == Literal("41", Iri("http://www.w3.org/2001/XMLSchema#integer"))
    assert parse(serialize(ontology), strict=True) == ontology
    assert '"41"^^xsd:integer' in serialize(ontology)


def test_render_iri_prefers_longest_expansion_then_smallest_prefix():
    from ontokit.parser import render_iri
    prefixes = {"a": "http://x#", "b": "http://x#sub", "": "http://x#"}
    assert render_iri(Iri("http://x#subThing"), prefixes) == "b:Thing"
    # Equal expansions: the lexicographically smallest prefix wins.
    assert render_iri(Iri("http://x#Plain"), prefixes) == ":Plain"


def test_empty_input_is_unexpected_token():
    with pytest.raises(ParseError) as err:
        parse("")
    assert err.value.kind is ParseErrorKind.UNEXPECTED_TOKEN


# ---------------------------------------------------------------------------
# One value per IRI within a parse
# ---------------------------------------------------------------------------


SHARED_NAMES = """Prefix(:=<http://x#>)
Prefix(owl:=<http://www.w3.org/2002/07/owl#>)
Prefix(xsd:=<http://www.w3.org/2001/XMLSchema#>)
Ontology(<http://x>
SubClassOf(:A <http://x#B>)
SubClassOf(<http://x#A> ObjectSomeValuesFrom(:r :B))
SubClassOf(:B owl:Thing)
EquivalentClasses(<http://www.w3.org/2002/07/owl#Thing> ObjectUnionOf(:A owl:Nothing))
ClassAssertion(:A <http://x>)
ObjectPropertyAssertion(<http://x#r> :i <http://x#i>)
DataPropertyAssertion(:d :i "1"^^xsd:string)
)"""


def _parts(value):
    """`value` and every value inside it, through record fields and tuples.
    A record is a tuple too, but only its fields are walked, not the type
    name it starts with."""
    stack = [value]
    while stack:
        value = stack.pop()
        yield value
        if isinstance(value, _Value):
            stack.extend(getattr(value, name) for name in value.__match_args__)
        elif isinstance(value, tuple):
            stack.extend(value)


def test_equal_iris_within_one_parse_are_one_object():
    from ontokit.model import Named, XSD_STRING
    ontology = parse(SHARED_NAMES)
    shared: dict = {}
    parts = list(_parts((ontology.iri, ontology.axioms)))
    assert not {"Named", "SubConceptOf", "Literal"} & {p for p in parts if type(p) is str}
    for part in parts:
        if isinstance(part, Iri):
            key = part.value
        elif isinstance(part, Named):
            key = ("Named", part.iri.value)
        elif isinstance(part, (Top, Bottom)):
            key = type(part)
        else:
            continue
        assert shared.setdefault(key, part) is part, part
    # `:A` and `<http://x#A>` are one Iri and one Named leaf, and both
    # spellings of owl:Thing are one Top; the built-in IRIs are the model's.
    assert ontology.axioms[0].sub is ontology.axioms[1].sub
    assert shared[Top] is ontology.axioms[2].sup
    assert shared[XSD_STRING.value] is XSD_STRING
    assert {key for key in shared if isinstance(key, tuple)} == {("Named", "http://x#A"),
                                                              ("Named", "http://x#B")}


def test_two_parses_are_equal_and_share_nothing():
    one, other = parse(SHARED_NAMES), parse(SHARED_NAMES)
    assert one == other
    assert one.axioms == other.axioms
    assert one.axioms[0].sub == other.axioms[0].sub
    assert one.axioms[0].sub is not other.axioms[0].sub
    assert one.iri is not other.iri


@pytest.mark.parametrize("strict", [False, True])
def test_parse_then_signature_walks_each_axiom_once(fixture_dir, monkeypatch, strict):
    from ontokit import model
    calls: dict = {}
    original = model.axiom_references

    def counting(axiom):
        calls[id(axiom)] = calls.get(id(axiom), 0) + 1
        return original(axiom)

    monkeypatch.setattr(model, "axiom_references", counting)
    text = (fixture_dir / "disease.ofn").read_text(encoding="utf-8")
    ontology = parse(text, strict=strict)
    model.signature(ontology)
    model.compute_counts(ontology)
    # Declarations are read without the walk; every other axiom once.
    logical = [a for a in ontology.axioms if not isinstance(a, Declaration)]
    assert len(logical) > 30
    assert calls == {id(axiom): 1 for axiom in logical}


# ---------------------------------------------------------------------------
# One scan per document
# ---------------------------------------------------------------------------


class CountingPattern:
    """A compiled pattern that counts the calls of its methods."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.pattern, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def _documents(fixture_dir, count):
    return ([(fixture_dir / "disease.ofn").read_text(encoding="utf-8"), SHARED_NAMES]
            + [serialize(random_full_ontology(random.Random(seed))) for seed in range(count)])


def test_parse_runs_the_token_pattern_once_per_document(fixture_dir, monkeypatch):
    from ontokit import parser
    texts = _documents(fixture_dir, 20)
    counting = CountingPattern(parser._TOKEN)
    monkeypatch.setattr(parser, "_TOKEN", counting)
    for text in texts:
        counting.calls = 0
        parse(text)
        assert counting.calls == 1


def test_tokenize_equals_the_tokens_the_parser_consumes(fixture_dir):
    from ontokit.parser import _Parser, _kind, _value
    for text in _documents(fixture_dir, 200):
        reader = _Parser(text)
        reader.parse_document()
        consumed = reader.tokens[:reader.pos + 1]
        assert consumed[-1] == ""  # the descent ends on Eof
        assert [(t.kind, t.text) for t in tokenize(text)] == [
            (_kind(token), _value(token)) for token in consumed]


@pytest.mark.parametrize("tail, line, column, message", [
    (')\n  ^', 2004, 3, "expected '^^'"),
    ('SubClassOf(:C0 "oops', 2003, 16, "unterminated string literal"),
])
def test_lex_error_on_the_last_token_of_a_long_document(tail, line, column, message):
    axioms = "".join(f"SubClassOf(:C{i} :C{i + 1})\n" for i in range(2000))
    doc = "Prefix(:=<http://x#>)\nOntology(<http://x>\n" + axioms + tail
    for read in (parse, tokenize):
        with pytest.raises(ParseError) as err:
            read(doc)
        assert err.value.kind is ParseErrorKind.LEX_ERROR
        assert (err.value.location.line, err.value.location.column) == (line, column)
        assert err.value.message == message
