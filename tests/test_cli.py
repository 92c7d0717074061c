import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from ontokit import analysis, cli, model, reasoner
from ontokit.cli import run
from ontokit.model import (
    Declaration,
    Entity,
    EntityKind,
    EquivalentConcepts,
    Existential,
    Intersection,
    Iri,
    Named,
    NamedRole,
    SubConceptOf,
    declared_entities,
    make_ontology,
)
from ontokit.parser import MAX_NESTING, parse, serialize
from ontokit.sitegen import generate_site
from genontology import random_alc_ontology


@pytest.fixture()
def ofn(fixture_dir):
    return str(fixture_dir / "disease.ofn")


@pytest.fixture()
def probe_file(fixture_dir):
    return str(fixture_dir / "table1.probes")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_consistent(capsys, ofn):
    code, out, _ = invoke(capsys, "check", ofn)
    assert code == 0
    assert "consistent: true" in out


def test_check_missing_file(capsys):
    code, out, err = invoke(capsys, "check", "missing-file.ofn")
    assert code == 2
    assert "missing-file.ofn" in err


def test_check_directory_exit_2(capsys, tmp_path):
    code, out, err = invoke(capsys, "check", str(tmp_path))
    assert (code, out) == (2, "")
    assert str(tmp_path) in err


def test_probe_file_that_is_a_directory_exit_2(capsys, ofn, tmp_path):
    code, out, err = invoke(capsys, "probe", ofn, "--probes", str(tmp_path))
    assert (code, out) == (2, "")
    assert str(tmp_path) in err


def test_site_out_that_is_a_file_exit_2(capsys, ofn, tmp_path):
    taken = tmp_path / "site"
    taken.write_text("not a directory")
    code, out, err = invoke(capsys, "site", ofn, "--out", str(taken))
    assert (code, out) == (2, "")
    assert str(taken) in err
    assert taken.read_text() == "not a directory"


def test_site_out_that_is_a_file_fails_before_reasoning(capsys, ofn, tmp_path, monkeypatch):
    def no_reasoning(*args, **kwargs):
        raise AssertionError("classify called before --out was checked")

    monkeypatch.setattr(cli, "classify", no_reasoning)
    taken = tmp_path / "site"
    taken.write_text("not a directory")
    code, out, err = invoke(capsys, "site", ofn, "--out", str(taken))
    assert (code, out) == (2, "")
    assert str(taken) in err


def test_check_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.ofn"
    bad.write_text("Ontology(oops")
    code, _, err = invoke(capsys, "check", str(bad))
    assert code == 2
    assert "parse error" in err


def test_classify_shows_multi_parent_line(capsys, ofn):
    code, out, _ = invoke(capsys, "classify", ofn)
    assert code == 0
    assert "OrganismStructure [parents: DiseaseStructure, Infectious]" in out


def test_classify_json_schema(capsys, ofn):
    code, out, _ = invoke(capsys, "classify", ofn, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    groups = payload["taxonomy"]["groups"]
    assert groups[0]["kind"] == "top"
    assert groups[1]["kind"] == "bottom"
    assert groups[1]["members"] == []
    assert {"child", "parent"} == set(payload["taxonomy"]["links"][0])


def test_classify_flags_unsatisfiable_concepts(capsys, tmp_path):
    doc = """Prefix(:=<http://x#>)
Ontology(<http://x>
Declaration(Class(:A))
Declaration(Class(:B))
Declaration(Class(:C))
DisjointClasses(:B :C)
SubClassOf(:A :B)
SubClassOf(:A :C)
)
"""
    path = tmp_path / "unsat.ofn"
    path.write_text(doc)
    code, out, _ = invoke(capsys, "classify", str(path))
    assert code == 1
    assert "unsatisfiable: A" in out


def test_diff_reports_single_added_link(capsys, ofn):
    code, out, _ = invoke(capsys, "diff", ofn)
    assert code == 0
    assert out.strip() == "added-parent: OrganismStructure -> Infectious"


def test_diff_json(capsys, ofn):
    code, out, _ = invoke(capsys, "diff", ofn, "--format", "json")
    payload = json.loads(out)
    assert payload["addedParentLinks"] == [{
        "child": "http://www.disintel.lk/ontologies/disease.owl#OrganismStructure",
        "parent": "http://www.disintel.lk/ontologies/disease.owl#Infectious",
    }]
    assert payload["removedParentLinks"] == []
    assert payload["newEquivalences"] == []


def test_probe_exit_one_without_expectation(capsys, ofn, probe_file):
    code, out, _ = invoke(capsys, "probe", ofn, "--probes", probe_file)
    assert code == 1
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 3
    assert all(line.endswith("UNSATISFIABLE") for line in lines)


def test_probe_expect_unsat_exit_zero(capsys, ofn, probe_file):
    code, out, _ = invoke(capsys, "probe", ofn, "--probes", probe_file,
                          "--expect-unsat")
    assert code == 0
    assert out.count("UNSATISFIABLE") == 3


def test_probe_json(capsys, ofn, probe_file):
    code, out, _ = invoke(capsys, "probe", ofn, "--probes", probe_file,
                          "--format", "json")
    payload = json.loads(out)
    assert [p["name"] for p in payload["probes"]] == \
        ["ProbeType1", "ProbeType2", "ProbeType3"]
    assert all(p["satisfiable"] is False for p in payload["probes"])


def test_stats_text_with_deviation(capsys, ofn):
    code, out, _ = invoke(capsys, "stats", ofn)
    assert code == 0
    assert "concepts: 24" in out
    assert "object-roles: 9" in out
    assert "data-roles: 1" in out
    assert "annotation-roles: 1" in out
    assert "individuals: 1" in out
    assert "datatypes: 1" in out
    assert "deviation: concepts-including-top 25 != published 26" in out
    assert "deviation: object-roles 9 != published 10" in out


def test_stats_json_machine_readable_deviation(capsys, ofn):
    code, out, _ = invoke(capsys, "stats", ofn, "--format", "json")
    payload = json.loads(out)
    assert payload["counts"]["concepts"] == 24
    assert payload["counts"]["objectRoles"] == 9
    deviations = {d["field"]: d for d in payload["deviations"]}
    assert deviations["concepts_including_top"]["actual"] == 25
    assert deviations["concepts_including_top"]["published"] == 26
    assert deviations["object_roles"]["actual"] == 9
    assert deviations["object_roles"]["published"] == 10


# Recorded from the `stats` command that wrote its seven counts out three
# times (text lines, JSON counts, reference comparison).
STATS_TEXT = """\
concepts: 24
concepts-including-top: 25
object-roles: 9
data-roles: 1
annotation-roles: 1
individuals: 1
datatypes: 1
deviation: concepts-including-top 25 != published 26
deviation: object-roles 9 != published 10
"""

STATS_JSON = """\
{
  "counts": {
    "annotationRoles": 1,
    "concepts": 24,
    "conceptsIncludingTop": 25,
    "dataRoles": 1,
    "datatypes": 1,
    "individuals": 1,
    "objectRoles": 9
  },
  "deviations": [
    {
      "actual": 25,
      "field": "concepts_including_top",
      "published": 26
    },
    {
      "actual": 9,
      "field": "object_roles",
      "published": 10
    }
  ]
}
"""


def test_stats_keeps_recorded_stdout(capsys, ofn):
    assert invoke(capsys, "stats", ofn) == (0, STATS_TEXT, "")
    assert invoke(capsys, "stats", ofn, "--format", "json") == (0, STATS_JSON, "")


def _told_tree_with_equivalences():
    """A told tree of 40 classes with named equivalences, one subclass cycle
    and one defined class, so that the inferred tree adds links."""
    ns = "http://example.org/tree#"
    names = [Iri(f"{ns}C{i:02d}") for i in range(40)]
    role = Iri(ns + "r")
    axioms = [Declaration(Entity(EntityKind.OBJECT_ROLE, role))]
    axioms += [Declaration(Entity(EntityKind.CONCEPT, name)) for name in names]
    for i in range(1, 40):
        axioms.append(SubConceptOf(Named(names[i]), Named(names[(i - 1) // 3])))
    for i in range(0, 40, 9):
        twin = Iri(f"{ns}E{i:02d}")
        axioms.append(Declaration(Entity(EntityKind.CONCEPT, twin)))
        axioms.append(EquivalentConcepts((Named(names[i]), Named(twin))))
    axioms.append(SubConceptOf(Named(names[4]), Named(names[13])))
    defined = Iri(ns + "D")
    axioms.append(Declaration(Entity(EntityKind.CONCEPT, defined)))
    axioms.append(EquivalentConcepts((
        Named(defined), Intersection((Named(names[2]), Existential(NamedRole(role), Named(names[5])))))))
    axioms.append(SubConceptOf(Named(names[25]), Existential(NamedRole(role), Named(names[17]))))
    return make_ontology(Iri(ns.rstrip("#")), (("", ns),), axioms)


# Recorded from the taxonomy builder that inserted one name at a time with
# a top and a bottom search, before it read the hierarchy off bitsets.
CLI_DIGESTS = {
    "classify text": "e065b6c89905138b5144a2c4e354fbf589f1699935c102bc139fbe189378016f",
    "classify json": "abd097323c600e62dd781bb28bd93772af4c67ee3df9d28ba769f1851e7a0599",
    "diff text": "91b92360f0e2cc311fedf455c0ef67967b462784a24fcda665f44d0c55894b40",
    "diff json": "71ab02334fb4cbd3422c08fd50e44a73baeecafae0f840fa1fb0a87f091f71ad",
}


def test_classify_and_diff_keep_recorded_stdout(capsys, ofn, tmp_path):
    # The fixture, 20 seeded ALC draws and a told tree with equivalences;
    # each digest covers the exit code and stdout of every input.
    rng = random.Random(20261019)
    ontologies = [random_alc_ontology(rng)[0] for _ in range(20)]
    ontologies.append(_told_tree_with_equivalences())
    paths = [ofn]
    for index, ontology in enumerate(ontologies):
        path = tmp_path / f"draw{index}.ofn"
        path.write_text(serialize(ontology), encoding="utf-8")
        paths.append(str(path))
    digests = {}
    for command in ("classify", "diff"):
        for fmt in ("text", "json"):
            digest = hashlib.sha256()
            for path in paths:
                code, out, _ = invoke(capsys, command, path, "--format", fmt)
                digest.update(f"{code}\n{out}".encode("utf-8"))
            digests[f"{command} {fmt}"] = digest.hexdigest()
    assert digests == CLI_DIGESTS


def test_stats_no_deviation_block_for_other_ontologies(capsys, tmp_path):
    path = tmp_path / "other.ofn"
    path.write_text("Prefix(:=<http://x#>)\nOntology(<http://x>\n"
                    "Declaration(Class(:A))\n)\n")
    code, out, _ = invoke(capsys, "stats", str(path))
    assert code == 0
    assert "deviation" not in out


def test_query_superconcepts(capsys, ofn):
    code, out, _ = invoke(capsys, "query", ofn, "--kind", "SuperConceptsOf",
                          "--subject", "OrganismStructure")
    assert code == 0
    assert set(out.split()) == {"Disease", "DiseaseStructure", "Infectious"}


def test_stats_and_queries_sort_no_entities(capsys, ofn, monkeypatch):
    # Counts and name lookups read the kept entity sets of each kind.
    calls = []
    original = model._sorted_entities

    def counting(entities):
        calls.append(1)
        return original(entities)

    monkeypatch.setattr(model, "_sorted_entities", counting)
    subjects = {"SubConceptsOf": "Disease", "SuperConceptsOf": "OrganismStructure",
                "InstancesOf": "Infectious", "FillersOf": "Giardia_lambliia"}
    for strict in ((), ("--strict",)):
        assert invoke(capsys, "stats", ofn, *strict)[0] == 0
        for kind in analysis.QueryKind:
            role = ("--role", "hasStructure") if kind is analysis.QueryKind.FILLERS_OF else ()
            subject = subjects.get(kind.value, "Giardia_lambliia")
            code, out, err = invoke(capsys, "query", ofn, "--kind", kind.value,
                                    "--subject", subject, *role, *strict)
            assert (code, err) == (0, ""), (kind, err)
    assert calls == []


def test_names_resolve_to_the_least_iri_with_that_fragment(disease):
    # The least IRI of any kind whose fragment is the name, as a scan of
    # the sorted signature finds it; punned and shared fragments included.
    def by_signature(ontology, name):
        return min((e.iri for e in model.signature(ontology) if e.iri.fragment == name),
                   default=None)

    shared = parse("Prefix(:=<http://b#>)\nOntology(<http://x>\n"
                   "Declaration(Class(:X))\nDeclaration(Class(<http://a#X>))\n"
                   "Declaration(NamedIndividual(<http://a/X>))\n"
                   "Declaration(ObjectProperty(:X))\nDeclaration(Class(<http://c#Y>))\n)\n")
    rng = random.Random(3)
    ontologies = [shared, disease] + [random_alc_ontology(rng)[0] for _ in range(20)]
    for ontology in ontologies:
        names = {e.iri.fragment for e in model.signature(ontology)}
        for name in sorted(names):
            assert cli._resolve_iri(ontology, name) == by_signature(ontology, name)
        with pytest.raises(analysis.UnknownEntityError, match="^unknown entity name: Nowhere$"):
            cli._resolve_iri(ontology, "Nowhere")
    assert cli._resolve_iri(shared, "X") == Iri("http://a#X")


def test_query_takes_an_entity_iri_in_full_whatever_its_scheme(capsys, tmp_path):
    # The parser admits any IRI; a --subject or --role that is one of the
    # ontology's IRIs resolves to it, a fragment still resolves by fragment,
    # and http(s) text keeps its own handling and error texts.
    path = tmp_path / "urn.ofn"
    path.write_text("Prefix(:=<urn:example:onto#>)\nOntology(<urn:example:onto>\n"
                    "SubClassOf(:A :B)\nSubClassOf(:B :C)\n"
                    "ObjectPropertyAssertion(:r :i :j)\n)\n")
    for subject in ("urn:example:onto#A", "A"):
        assert invoke(capsys, "query", str(path), "--kind", "SuperConceptsOf",
                      "--subject", subject) == (0, "B\nC\n", "")
    assert invoke(capsys, "query", str(path), "--kind", "FillersOf", "--subject",
                  "urn:example:onto#i", "--role", "urn:example:onto#r") == (0, "j\n", "")
    code, out, err = invoke(capsys, "query", str(path), "--kind", "SuperConceptsOf",
                            "--subject", "urn:example:onto#Z")
    assert (code, out) == (2, "") and "unknown entity name: urn:example:onto#Z" in err
    code, out, err = invoke(capsys, "query", str(path), "--kind", "SuperConceptsOf",
                            "--subject", "http://nowhere#X")
    assert (code, out) == (2, "") and "unknown concept: <http://nowhere#X>" in err


def test_query_instances(capsys, ofn):
    code, out, _ = invoke(capsys, "query", ofn, "--kind", "InstancesOf",
                          "--subject", "Infectious", "--format", "json")
    payload = json.loads(out)
    assert payload["results"] == [
        "http://www.disintel.lk/ontologies/disease.owl#Giardia_lambliia"]


def test_query_fillers_requires_role(capsys, ofn):
    code, _, err = invoke(capsys, "query", ofn, "--kind", "FillersOf",
                          "--subject", "Giardia_lambliia")
    assert code == 2
    assert "--role" in err


def test_query_unknown_subject(capsys, ofn):
    code, _, err = invoke(capsys, "query", ofn, "--kind", "SymptomsOf",
                          "--subject", "Nonexistent")
    assert code == 2


def test_site_writes_documents_and_verifies(capsys, ofn, tmp_path):
    out_dir = tmp_path / "site"
    code, out, _ = invoke(capsys, "site", ofn, "--out", str(out_dir))
    assert code == 0
    assert "0 broken" in out
    assert (out_dir / "index.html").exists()
    assert (out_dir / "Giardia_lambliia.html").exists()
    page = (out_dir / "Giardia_lambliia.html").read_text(encoding="utf-8")
    assert "locomotion: Flagellates" in page


def test_site_gives_an_entity_named_index_a_page_of_its_own(capsys, tmp_path):
    source = tmp_path / "index.ofn"
    source.write_text("Prefix(:=<http://x#>)\nOntology(<http://x>\n"
                      "Declaration(Class(:index)) Declaration(Class(:A)) "
                      "SubClassOf(:A :index)\n)\n", encoding="utf-8")
    ontology = parse(source.read_text(encoding="utf-8"))
    docs = generate_site(ontology, reasoner.classify(ontology), analysis.asserted_taxonomy(ontology))
    paths = [doc.relative_path for doc in docs]
    assert sorted(paths) == ["A.html", "index-2.html", "index.html"]
    assert "Entity counts" in docs[paths.index("index.html")].body
    assert "Entity counts" not in docs[paths.index("index-2.html")].body
    out_dir = tmp_path / "site"
    code, out, _ = invoke(capsys, "site", str(source), "--out", str(out_dir))
    assert code == 0
    assert "wrote 3 documents" in out and "0 broken" in out
    assert {path.name: path.read_text(encoding="utf-8") for path in out_dir.iterdir()} == {
        doc.relative_path: doc.body for doc in docs}


def test_site_checks_consistency_once(capsys, ofn, tmp_path, monkeypatch):
    calls = []
    original = reasoner._abox_labels

    def counting(*args, **kwargs):
        calls.append(kwargs.get("extra"))
        return original(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("site built the asserted taxonomy")

    monkeypatch.setattr(reasoner, "_abox_labels", counting)
    monkeypatch.setattr(analysis, "asserted_taxonomy", forbidden)
    monkeypatch.setattr(cli, "asserted_taxonomy", forbidden)
    code, _, _ = invoke(capsys, "site", ofn, "--out", str(tmp_path / "site"))
    assert code == 0
    # entailed_types' own check is the only one, and its labels decide
    # every name, so no entailment test follows.
    assert calls == [None]


def test_site_on_inconsistent_ontology_has_no_inferred_types(capsys, ofn, tmp_path):
    with open(ofn, encoding="utf-8") as handle:
        text = handle.read()
    told = "ClassAssertion(:OrganismStructure :Giardia_lambliia)\n"
    assert told in text
    bad = tmp_path / "inconsistent.ofn"
    bad.write_text(text.replace(told, told + "ClassAssertion(ObjectComplementOf("
                                ":OrganismStructure) :Giardia_lambliia)\n"),
                   encoding="utf-8")
    assert invoke(capsys, "check", str(bad))[0] == 1
    pages = {}
    for name, source in (("consistent", ofn), ("inconsistent", str(bad))):
        out_dir = tmp_path / name
        code, out, _ = invoke(capsys, "site", source, "--out", str(out_dir))
        assert code == 0
        with open(source, encoding="utf-8") as handle:
            entities = declared_entities(parse(handle.read()))
        files = sorted(out_dir.iterdir())
        assert len(files) == 1 + len(entities)
        assert f"wrote {len(files)} documents" in out
        pages[name] = {path.name: path.read_text(encoding="utf-8") for path in files}
    # Only the consistent ontology has entailed types: Giardia is inferred
    # Infectious, which no axiom states.
    for name, has_types in (("consistent", True), ("inconsistent", False)):
        giardia = pages[name]["Giardia_lambliia.html"]
        assert ("<h2>Types (inferred)</h2>" in giardia) is has_types
        assert ("<h2>Members</h2>" in pages[name]["Infectious.html"]) is has_types
    assert not any("Types (inferred)" in page for page in pages["inconsistent"].values())


def test_site_runs_are_byte_identical(capsys, ofn, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    invoke(capsys, "site", ofn, "--out", str(first))
    invoke(capsys, "site", ofn, "--out", str(second))
    for path in sorted(first.iterdir()):
        other = second / path.name
        assert other.read_bytes() == path.read_bytes()


def test_site_republish_over_longer_stale_pages_matches_a_fresh_publish(capsys, ofn, tmp_path):
    fresh = tmp_path / "fresh"
    assert invoke(capsys, "site", ofn, "--out", str(fresh))[0] == 0
    stale = tmp_path / "stale"
    stale.mkdir()
    for path in fresh.iterdir():  # index.html among them
        (stale / path.name).write_bytes(b"stale " * (len(path.read_bytes()) + 100))
    code, out, _ = invoke(capsys, "site", ofn, "--out", str(stale))
    assert code == 0
    assert "0 broken" in out
    assert sorted(p.name for p in stale.iterdir()) == sorted(p.name for p in fresh.iterdir())
    for path in fresh.iterdir():
        assert (stale / path.name).read_bytes() == path.read_bytes(), path.name


def test_site_republish_truncates_no_page_to_zero(capsys, ofn, tmp_path, monkeypatch):
    out_dir = tmp_path / "site"
    assert invoke(capsys, "site", ofn, "--out", str(out_dir))[0] == 0
    pages = sorted(p.name for p in out_dir.iterdir())
    opened = []
    truncated = []  # opened with O_TRUNC, or by path in a "w" mode
    os_open = os.open

    def record(path, truncates):
        if os.path.dirname(path) == str(out_dir):
            opened.append(os.path.basename(path))
            if truncates:
                truncated.append(os.path.basename(path))

    def recording_os_open(path, flags, *args, **kwargs):
        record(path, flags & os.O_TRUNC)
        return os_open(path, flags, *args, **kwargs)

    def recording_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int):
            record(file, "w" in mode)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_os_open)
    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    code, out, _ = invoke(capsys, "site", ofn, "--out", str(out_dir))
    monkeypatch.undo()
    assert code == 0
    # One open per document, none of which cuts the old page to zero.
    assert sorted(opened) == pages
    assert truncated == []


def test_site_page_path_that_is_a_directory_exit_2(capsys, ofn, tmp_path):
    out_dir = tmp_path / "site"
    taken = out_dir / "Disease.html"
    taken.mkdir(parents=True)
    code, out, err = invoke(capsys, "site", ofn, "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert str(taken) in err
    assert taken.is_dir()


def test_same_argv_same_stdout(capsys, ofn):
    _, first, _ = invoke(capsys, "classify", ofn)
    _, second, _ = invoke(capsys, "classify", ofn)
    assert first == second


def test_usage_error_unknown_subcommand(capsys):
    code, _, err = invoke(capsys, "frobnicate", "x.ofn")
    assert code == 2


def test_resource_limit_exit_three(capsys, tmp_path):
    doc = """Prefix(:=<http://x#>)
Ontology(<http://x>
Declaration(Class(:A))
Declaration(Class(:B))
Declaration(Class(:C))
Declaration(Class(:D))
Declaration(Class(:E))
Declaration(ObjectProperty(:r))
SubClassOf(:A ObjectSomeValuesFrom(:r :B))
SubClassOf(:B ObjectSomeValuesFrom(:r :C))
SubClassOf(:C ObjectSomeValuesFrom(:r :D))
SubClassOf(:D ObjectSomeValuesFrom(:r :E))
)
"""
    path = tmp_path / "deep.ofn"
    path.write_text(doc)
    code, _, err = invoke(capsys, "classify", str(path), "--max-nodes", "2")
    assert code == 3
    assert "limit" in err


def test_step_limit_exit_three(capsys, tmp_path):
    # Eight pigeons in seven holes: `C ⊑ Pi0 ⊔ … ⊔ Pi6` for each pigeon and
    # the pigeons in each hole disjoint. Every clash depends on two
    # pigeons' choices, so even backjumping needs 137,000 steps.
    lines = ["Prefix(:=<http://x#>)", "Ontology(<http://x>"]
    lines += ["SubClassOf(:C ObjectUnionOf(" + " ".join(f":P{i}_{h}" for h in range(7)) + "))"
              for i in range(8)]
    lines += ["DisjointClasses(" + " ".join(f":P{i}_{h}" for i in range(8)) + ")"
              for h in range(7)]
    path = tmp_path / "pigeons.ofn"
    path.write_text("\n".join(lines + [")"]) + "\n")
    code, out, err = invoke(capsys, "classify", str(path), "--max-steps", "5000")
    assert code == 3
    assert out == ""
    assert err.startswith("ontokit: resource limit: step limit exceeded "
                          "(max_steps 5000) after 5001 steps: ")
    assert "nodes created" in err and "graph copies" in err


def test_stdout_does_not_depend_on_hash_seed(fixture_dir):
    # Labels are int sets and expression sets iterate in hash order, so the
    # bytes must come from the fixed tie-breaks, never from set order.
    root = pathlib.Path(__file__).resolve().parent.parent
    ofn = str(fixture_dir / "disease.ofn")
    commands = [
        ["classify", ofn], ["diff", ofn],
        ["query", ofn, "--kind", "InstancesOf", "--subject", "Infectious"],
        ["probe", ofn, "--probes", str(fixture_dir / "table1.probes")],
    ]
    for argv in commands:
        runs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
            done = subprocess.run([sys.executable, "-m", "ontokit.cli", *argv,
                                   "--format", "json"],
                                  env=env, capture_output=True, timeout=120)
            runs.append((done.returncode, done.stdout))
        assert runs[0] == runs[1], argv
        assert runs[0][1], argv


def test_strict_flag_rejects_undeclared(capsys, tmp_path):
    path = tmp_path / "lenient.ofn"
    path.write_text("Prefix(:=<http://x#>)\nOntology(<http://x>\n"
                    "SubClassOf(:A :B)\n)\n")
    code, _, err = invoke(capsys, "check", str(path), "--strict")
    assert code == 2
    assert "undeclared" in err
    code, out, _ = invoke(capsys, "check", str(path))
    assert code == 0


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_one_parser_serves_every_run_in_a_process(capsys, ofn, monkeypatch):
    argvs = [["frobnicate", "x.ofn"], ["--help"],
             ["classify", ofn, "--format", "json"], ["stats", ofn]]
    shared = [invoke(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in shared] == [2, 0, 0, 0]
    assert cli._build_parser.cache_info().misses == 1
    # Each call below builds its own parser, as every run did before.
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [invoke(capsys, *argv) for argv in argvs]
    assert shared == fresh


def test_query_fillers_of_roundtrip(capsys, ofn, tmp_path):
    # Extend the bundled ontology with an assertion, then query through the CLI.
    from ontokit.disease import build_disease_ontology, DISEASE_NS
    from ontokit.model import (ConceptAssertion, Declaration, Entity,
                               EntityKind, Iri, Named, RoleAssertion, add_axiom)
    from ontokit.parser import serialize

    o = build_disease_ontology()
    d1, s1 = Iri(DISEASE_NS + "d1"), Iri(DISEASE_NS + "s1")
    for entity in (d1, s1):
        o = add_axiom(o, Declaration(Entity(EntityKind.INDIVIDUAL, entity)))
    o = add_axiom(o, ConceptAssertion(Named(Iri(DISEASE_NS + "Virus")), d1))
    o = add_axiom(o, RoleAssertion(Iri(DISEASE_NS + "hasSymptoms"), d1, s1))
    path = tmp_path / "extended.ofn"
    path.write_text(serialize(o), encoding="utf-8")
    code, out, _ = invoke(capsys, "query", str(path), "--kind", "FillersOf",
                          "--subject", "s1", "--role", "isSymptomsOf")
    assert code == 0
    assert out.strip() == "d1"


# ---------------------------------------------------------------------------
# Deep inputs: no walk recurses on the depth of a taxonomy or of a chain of
# definitions, and every subcommand carries the deepest expression the
# parser admits.
# ---------------------------------------------------------------------------

DEEP = 1200


def _write_ofn(path, lines):
    path.write_text("\n".join(["Prefix(:=<http://x#>)", "Ontology(<http://x>",
                               *lines, ")"]) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def told_chain(tmp_path):
    """C0000 above C0001 above … C1199: a told chain of 1,200 classes."""
    return _write_ofn(tmp_path / "chain.ofn",
                      [f"SubClassOf(:C{i + 1:04d} :C{i:04d})" for i in range(DEEP - 1)])


def test_classify_prints_a_told_chain_deeper_than_the_recursion_limit(capsys, told_chain):
    code, out, err = invoke(capsys, "classify", told_chain)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1 + DEEP and lines[0] == "⊤"
    assert lines[-1] == "  " * DEEP + f"C{DEEP - 1:04d}"


def test_site_nests_a_told_chain_deeper_than_the_recursion_limit(capsys, told_chain, tmp_path):
    out_dir = tmp_path / "site"
    code, out, err = invoke(capsys, "site", told_chain, "--out", str(out_dir))
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith(" total, 0 broken")
    index = (out_dir / "index.html").read_text(encoding="utf-8")
    tree = index.split("<h2>Class hierarchy (inferred)</h2>\n")[1].split("<h2>")[0]
    # Every list opens before the first one closes: 1,200 lists below ⊤'s.
    assert tree.startswith("<ul>\n<li>⊤<ul>\n")
    assert tree.count("<ul>") == 1 + DEEP
    assert tree.rindex("<ul>") < tree.index("</ul>")
    assert tree.endswith("</li>\n</ul>\n" * (1 + DEEP))


def test_check_compiles_a_chain_of_definitions_deeper_than_the_recursion_limit(
        capsys, tmp_path):
    path = _write_ofn(tmp_path / "definitions.ofn", ["Declaration(ObjectProperty(:r))"] + [
        f"EquivalentClasses(:A{i} ObjectSomeValuesFrom(:r :A{i + 1}))" for i in range(DEEP)])
    assert invoke(capsys, "check", path) == (0, "consistent: true\n", "")


@pytest.mark.parametrize("opening", ["ObjectIntersectionOf(:C ", "ObjectUnionOf(:C ",
                                     "ObjectSomeValuesFrom(:r ", "ObjectAllValuesFrom(:r ",
                                     "ObjectComplementOf("])
def test_every_subcommand_carries_the_deepest_expression_the_parser_admits(
        capsys, tmp_path, opening):
    depth = MAX_NESTING - 1
    path = _write_ofn(tmp_path / "deep.ofn", [
        "Declaration(ObjectProperty(:r))", "Declaration(NamedIndividual(:x))",
        "ClassAssertion(:A :x)",
        "SubClassOf(:A " + opening * depth + ":B" + ")" * depth + ")"])
    ontology = parse(pathlib.Path(path).read_text(encoding="utf-8"))
    assert parse(serialize(ontology)) == ontology
    probes = tmp_path / "deep.probes"
    probes.write_text("Probe: A, B\n", encoding="utf-8")
    for argv in (["check"], ["classify"], ["diff"], ["stats"],
                 ["probe", "--probes", str(probes)],
                 ["query", "--kind", "InstancesOf", "--subject", "A"],
                 ["site", "--out", str(tmp_path / "site")]):
        code, _, err = invoke(capsys, argv[0], path, *argv[1:])
        assert code in (0, 1) and err == "", argv
