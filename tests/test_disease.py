from collections import Counter

from ontokit.analysis import asserted_taxonomy, diff_taxonomies, run_probes
from ontokit.model import EntityKind, Iri, Named, compute_counts, signature
from ontokit.parser import parse, serialize
from ontokit.reasoner import Taxonomy, instances_of, is_consistent, realize
from ontokit.disease import (
    DISEASE_IRI,
    DISEASE_NS,
    GIARDIA,
    Provenance,
    build_disease_ontology,
    fixture_ledger,
    published_reference,
    render_ledger,
    table1_probes,
)


def iri(fragment):
    return Iri(DISEASE_NS + fragment)


def test_builder_matches_shipped_file(disease, fixture_dir):
    shipped = (fixture_dir / "disease.ofn").read_text(encoding="utf-8")
    assert parse(shipped, strict=True) == disease


def test_shipped_file_is_canonical(disease, fixture_dir):
    shipped = (fixture_dir / "disease.ofn").read_text(encoding="utf-8")
    assert serialize(disease) == shipped


def test_ledger_has_exactly_one_entry_per_axiom(disease):
    entries = fixture_ledger()
    assert Counter(e.axiom for e in entries) == Counter(disease.axioms)
    assert all(isinstance(e.kind, Provenance) and e.note for e in entries)


def test_shipped_ledger_file_matches_builder(disease, fixture_dir):
    shipped = (fixture_dir / "ledger").read_text(encoding="utf-8")
    assert render_ledger() == shipped
    assert len(shipped.splitlines()) == len(disease.axioms)


def test_shipped_probe_file_matches_builder(fixture_dir):
    from ontokit.analysis import parse_probe_file
    shipped = parse_probe_file((fixture_dir / "table1.probes").read_text())
    assert shipped == table1_probes()


def test_fixture_is_strict(disease):
    assert disease.strict
    assert disease.warnings == ()


def test_fixture_ontology_iri(disease):
    assert disease.iri == Iri(DISEASE_IRI)
    assert GIARDIA.value == DISEASE_IRI + "#Giardia_lambliia"


def test_fixture_counts(disease):
    counts = compute_counts(disease)
    assert (counts.concepts, counts.object_roles) == (24, 9)
    assert (counts.data_roles, counts.annotation_roles,
            counts.individuals, counts.datatypes) == (1, 1, 1, 1)


def test_published_reference_records_the_deviation(disease):
    reference = published_reference()[DISEASE_IRI]
    counts = compute_counts(disease)
    assert reference["concepts_including_top"] == 26
    assert reference["object_roles"] == 10
    # The documented gap: published counts cannot be reproduced without
    # inventing entities the source never names.
    assert counts.concepts_including_top == 25
    assert counts.object_roles == 9
    assert reference["data_roles"] == counts.data_roles
    assert reference["individuals"] == counts.individuals


def test_probes_are_three_and_unsatisfiable(disease, probes):
    assert len(probes) == 3
    assert [p.name for p in probes] == ["ProbeType1", "ProbeType2", "ProbeType3"]
    assert [tuple(p.supers) for p in probes] == [
        ("Autoimmune", "Infectious"),
        ("External", "Internal"),
        ("AreaStructure", "OrganismStructure"),
    ]
    results = run_probes(disease, probes)
    assert all(not r.satisfiable for r in results)


def test_pinned_reasoning_results(disease, disease_taxonomy):
    assert is_consistent(disease)
    assert disease_taxonomy.members(Taxonomy.BOTTOM) == ()
    diff = diff_taxonomies(asserted_taxonomy(disease), disease_taxonomy)
    assert diff.added_parent_links == ((iri("OrganismStructure"), iri("Infectious")),)
    assert diff.removed_parent_links == ()
    assert instances_of(Named(iri("Infectious")), disease) == (GIARDIA,)
    assert realize(disease)[GIARDIA] == (iri("OrganismStructure"),)


def test_fixture_signature_breakdown(disease):
    by_kind = Counter(e.kind for e in signature(disease))
    assert by_kind[EntityKind.CONCEPT] == 24
    assert by_kind[EntityKind.OBJECT_ROLE] == 9
    assert by_kind[EntityKind.DATA_ROLE] == 1
    assert by_kind[EntityKind.ANNOTATION_ROLE] == 1
    assert by_kind[EntityKind.INDIVIDUAL] == 1
    assert by_kind[EntityKind.DATATYPE] == 1


def test_builder_is_pure(disease):
    assert build_disease_ontology() == disease
    assert serialize(build_disease_ontology()) == serialize(disease)
