"""Golden digest of the tableau's witnesses.

For the fixture and 40 seeded random ALC TBoxes, the digest covers the
verdict of ⊤ and of every named concept and, for each satisfiable one, the
witness: node ids, parents, the sorted reprs of each label, the edges in
order and the blocking pairs. The search (rule order, tie-breaks, branch
choices) decides every one of these, so a change that makes a step cheaper
must leave the digest as it is. The digest was recorded on the
expression-tree tableau and does not depend on PYTHONHASHSEED.
"""

import hashlib
import pathlib
import random

from ontokit.model import BUILTIN_CONCEPTS, EntityKind, Named, Top, signature
from ontokit.parser import parse
from ontokit.reasoner import is_satisfiable, normalize
from genontology import random_alc_ontology

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "disease.ofn"

WITNESS_DIGEST = "7317095117891127ebc5b8b5fade8aeedea2e4f75acd3159357bac4c3583d62d"


def _ontologies():
    yield "fixture", parse(FIXTURE.read_text(encoding="utf-8"))
    for seed in range(40):
        yield f"alc-{seed}", random_alc_ontology(random.Random(seed))[0]


def _witness_lines(ontology):
    tbox = normalize(ontology)
    names = sorted((e.iri for e in signature(ontology)
                    if e.kind is EntityKind.CONCEPT and e.iri not in BUILTIN_CONCEPTS),
                   key=lambda iri: iri.value)
    concepts = [("⊤", Top())] + [(name.value, Named(name)) for name in names]
    for title, concept in concepts:
        verdict = is_satisfiable(concept, tbox)
        yield f"{title} {verdict.satisfiable}"
        if verdict.witness is None:
            continue
        for node in verdict.witness.nodes:
            yield f"  node {node.id} {node.parent} {sorted(repr(e) for e in node.label)}"
        for edge in verdict.witness.edges:
            yield f"  edge {edge.source} {edge.target} {edge.role.value}"
        yield f"  blocking {list(verdict.witness.blocking)}"


def test_witness_digest():
    digest = hashlib.sha256()
    for title, ontology in _ontologies():
        digest.update(f"== {title}\n".encode())
        for line in _witness_lines(ontology):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == WITNESS_DIGEST
