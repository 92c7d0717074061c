"""Golden digests for the text front end.

Each digest covers a family of inputs. For every input it pins what
`tokenize` returns (each token's kind, text, line and column) and what
`parse` returns (the canonical text and the warnings of the ontology), or
the ParseError either raises (its kind, line, column and message). The
digests were recorded with the character-at-a-time scanner that the regex
scanner replaced, so a change in any token, location or message shows here.
"""

import hashlib
import pathlib
import random

import pytest

from ontokit.parser import ParseError, ParseErrorKind, parse, serialize, tokenize
from genontology import random_full_ontology

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "disease.ofn"

# Every token kind, both comment forms, CRLF and tab layout, escapes and a
# newline inside strings, typed literals, and IRIs with '#', '%' and
# non-ASCII letters.
HANDWRITTEN = (
    "# leading comment ^ < \" \\ é\n"
    "Prefix(:=<http://ex.org/o#>)\r\n"
    "Prefix(ex2:=<http://ex.org/été/%41#>)\n"
    "Prefix(xsd:=<http://www.w3.org/2001/XMLSchema#>)\n"
    "Prefix(owl:=<http://www.w3.org/2002/07/owl#>)\n"
    "Ontology(<http://ex.org/o>\t# the ontology IRI\n"
    "Declaration(Class(:A))Declaration(Class(ex2:B.c-d_1))\n"
    "Declaration(ObjectProperty(:r)) Declaration(ObjectProperty(:s))\n"
    "Declaration(DataProperty(:age))\tDeclaration(AnnotationProperty(:note))\n"
    "Declaration(NamedIndividual(<http://ex.org/o#iñ>))\n"
    "SubClassOf(:A ObjectSomeValuesFrom(ObjectInverseOf(:r) owl:Thing))\n"
    "SubClassOf(  ObjectUnionOf(:A ex2:B.c-d_1)\r\n  ObjectAllValuesFrom(:s owl:Nothing))\n"
    "EquivalentClasses(:A ObjectIntersectionOf(:A ObjectComplementOf(ex2:B.c-d_1)) :A)\n"
    "DisjointClasses(:A ex2:B.c-d_1)\n"
    "SubObjectPropertyOf(:r :s) InverseObjectProperties(:r :s) TransitiveObjectProperty(:s)\n"
    "ObjectPropertyDomain(:r :A) ObjectPropertyRange(:r ex2:B.c-d_1)\n"
    "ClassAssertion(:A <http://ex.org/o#iñ>)\n"
    "ObjectPropertyAssertion(:r <http://ex.org/o#iñ> :j)\n"
    'DataPropertyAssertion(:age :j "41"^^xsd:integer)\n'
    'AnnotationAssertion(:note :A "a \\"quoted\\" \\\\ word\nover two lines # not a comment")\n'
    'AnnotationAssertion(:note :j "")\n'
    ")  # trailing comment"
)

# One lex error or edge of the token grammar each.
EDGE_CASES = [
    "", " \t\r\n", "#", "# only a comment", "a", "_", "a:", ":", "_x9:y.z-0", "a1:b:c",
    "^", "^^", "^ ^", "=", "()", "<>", "<a", "<a\nb>", "<a b>", "<a<b>", "<a\x1cb>",
    "<a\xa0b>", "<a\u3000b>", "<#%\xe9>", '"', '"a', '"a\\', '"\\x"', '"a\\"',
    '"\\\\"', '"\\""', '"\n"^^<d>', "1", "-", ".", "\xe9", "a\xe9", "a:\xe9",
    "Ontology(<http://x>)\n\r\n  ", "Ontology(<http://x>)#", "Ontology(<http://x>)x",
]

# Lex hazards inserted by the mutation family: every character the old
# scanner treated specially, and whitespace that only str.isspace() knows.
INSERTS = ["^", "^^", "<", ">", '"', "\\", "#", "(", ")", ":", "=", "\t", "\r",
           "\n", " ", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000",
           "\xe9"]


def _tokens(text):
    return [(t.kind.value, t.text, t.location.line, t.location.column)
            for t in tokenize(text)]


def _parsed(text):
    ontology = parse(text)
    return serialize(ontology), ontology.warnings


def _outcome(function, text):
    try:
        return function(text)
    except ParseError as err:
        return ("error", err.kind.value, err.location.line, err.location.column,
                err.message)


def _digest(texts):
    digest = hashlib.sha256()
    for text in texts:
        outcome = (_outcome(_tokens, text), _outcome(_parsed, text))
        digest.update(repr(outcome).encode("utf-8"))
    return digest.hexdigest()


def _random_texts(count):
    return [serialize(random_full_ontology(random.Random(seed))) for seed in range(count)]


def _mutated_texts(count):
    rng = random.Random(2026)
    bases = [FIXTURE.read_text(encoding="utf-8"), HANDWRITTEN] + _random_texts(20)
    texts = []
    for _ in range(count):
        base = rng.choice(bases)
        opens = [i for i, ch in enumerate(base) if ch in '"<']
        boundaries = [i for i, ch in enumerate(base) if ch in "() \n"]
        roll = rng.random()
        if roll < 0.7:
            if roll < 0.25:
                at = rng.randint(0, len(base))
            elif roll < 0.5:  # inside a string or an IRI reference
                quotes = [i for i in opens if base[i] == '"']
                start = rng.choice(quotes if quotes and rng.random() < 0.5 else opens)
                at = min(len(base), start + 1 + rng.randrange(12))
            else:  # between tokens
                at = rng.choice(boundaries) + rng.randint(0, 1)
            texts.append(base[:at] + rng.choice(INSERTS) + base[at:])
        elif roll < 0.9:  # cut inside a string or an IRI reference
            start = rng.choice(opens)
            texts.append(base[:rng.randint(start + 1, min(len(base), start + 40))])
        else:
            at = rng.randrange(len(base))
            texts.append(base[:at] + base[at + 1:])
    return texts


def test_golden_fixture_handwritten_and_edge_inputs():
    texts = [FIXTURE.read_text(encoding="utf-8"), HANDWRITTEN] + EDGE_CASES
    assert parse(HANDWRITTEN).axioms  # the handwritten document is valid
    assert _digest(texts) == (
        "99deb2f62ccd8dfe149099a27ca0a7e00204e62bf395c473c83fff908914df35")


def test_golden_serialized_random_ontologies():
    assert _digest(_random_texts(80)) == (
        "51eb0eb0070852d67cea72bc52a68ec02fbcc73027cf8d5e0b409003a1c1e70e")


def test_golden_mutated_inputs():
    assert _digest(_mutated_texts(1200)) == (
        "2829a23f1a4fdd2130f5f6f94aa5637fa1c0ca126f54b6429ca6fcfec554cb01")


def test_unsupported_keyword_wins_over_later_lex_error():
    # Tokens are scanned only as the parser reaches them, so the construct is
    # rejected before the stray '^' inside it is scanned; tokenize, which
    # scans everything, reports the '^'.
    doc = "Ontology(<http://x>\nObjectMinCardinality(:r ^ :B)\n)"
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert (err.value.kind, err.value.location.line, err.value.location.column) == (
        ParseErrorKind.UNKNOWN_CONSTRUCT, 2, 1)
    with pytest.raises(ParseError) as err:
        tokenize(doc)
    assert (err.value.kind, err.value.location.line, err.value.location.column) == (
        ParseErrorKind.LEX_ERROR, 2, 25)


def test_undeclared_prefix_wins_over_a_following_lex_error():
    doc = "Ontology(<http://x>\nSubClassOf(q:A ^)\n)"
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert err.value.kind is ParseErrorKind.UNDECLARED_PREFIX
    assert (err.value.location.line, err.value.location.column) == (2, 12)
