"""Golden digest of the tableau's witnesses.

For the fixture and 40 seeded random ALC TBoxes, the digest covers the
verdict of ⊤ and of every named concept and, for each satisfiable one, the
witness: node ids, parents, the sorted reprs of each label, the edges in
order and the blocking pairs. The search (rule order, tie-breaks, branch
choices) decides every one of these, so a change that makes a step cheaper
must leave the digest as it is. A change of the normal form the tableau
runs on (what `normalize` absorbs) changes the witnesses but not the
verdicts: the verdict digest covers the verdict lines alone, and every
witness must pass the independent saturation check. The witness digest was
recorded after binary absorption stopped keeping a repeated conjunct (alc-1
and alc-13 have `A ⊓ A` inside a union on one side of an equivalence), the
verdict digest before ranges and existential left-hand sides became
absorbed; neither depends on PYTHONHASHSEED.
"""

import hashlib
import pathlib
import random

from ontokit.model import BUILTIN_CONCEPTS, EntityKind, Named, Top, signature
from ontokit.parser import parse
from ontokit.reasoner import is_satisfiable, normalize
from genontology import random_alc_ontology
from modelsearch import verify_saturated

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "disease.ofn"

WITNESS_DIGEST = "1fd50d4776103220a401ed6585d8cf9bd79bad09a3175f7ef168475104b7e84f"
VERDICT_DIGEST = "e3b28a6ce29e024ba751561cb58b119fa66b20171c966623030d54116f4c7ac5"


def _ontologies():
    yield "fixture", parse(FIXTURE.read_text(encoding="utf-8"))
    for seed in range(40):
        yield f"alc-{seed}", random_alc_ontology(random.Random(seed))[0]


def _verdicts(ontology):
    """The compiled TBox with each concept's title and verdict."""
    tbox = normalize(ontology)
    names = sorted((e.iri for e in signature(ontology)
                    if e.kind is EntityKind.CONCEPT and e.iri not in BUILTIN_CONCEPTS),
                   key=lambda iri: iri.value)
    concepts = [("⊤", Top())] + [(name.value, Named(name)) for name in names]
    for title, concept in concepts:
        yield tbox, title, is_satisfiable(concept, tbox)


def _witness_lines(ontology):
    for _, title, verdict in _verdicts(ontology):
        yield f"{title} {verdict.satisfiable}"
        if verdict.witness is None:
            continue
        for node in verdict.witness.nodes:
            yield f"  node {node.id} {node.parent} {sorted(repr(e) for e in node.label)}"
        for edge in verdict.witness.edges:
            yield f"  edge {edge.source} {edge.target} {edge.role.value}"
        yield f"  blocking {list(verdict.witness.blocking)}"


def _digest(lines_of):
    digest = hashlib.sha256()
    for title, ontology in _ontologies():
        digest.update(f"== {title}\n".encode())
        for line in lines_of(ontology):
            digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_witness_digest():
    assert _digest(_witness_lines) == WITNESS_DIGEST


def test_verdict_digest():
    assert _digest(lambda ontology: (f"{title} {verdict.satisfiable}"
                                     for _, title, verdict in _verdicts(ontology))) \
        == VERDICT_DIGEST


def test_every_witness_is_saturated():
    for _, ontology in _ontologies():
        for tbox, title, verdict in _verdicts(ontology):
            if verdict.satisfiable:
                assert verify_saturated(verdict.witness, tbox) == [], title
