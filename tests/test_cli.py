import json
import os
import pathlib
import subprocess
import sys

import pytest

from ontokit import analysis, cli, reasoner
from ontokit.cli import run
from ontokit.model import declared_entities
from ontokit.parser import parse


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
    # entailed_types' own check is the only one; the rest are entailment tests.
    assert calls.count(None) == 1 < len(calls)


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
    # `C ⊑ Ai ⊔ Bi` for i < 20 and an unsatisfiable successor: about 2^20
    # branches, all meeting the same clash.
    lines = ["Prefix(:=<http://x#>)", "Prefix(owl:=<http://www.w3.org/2002/07/owl#>)",
             "Ontology(<http://x>",
             "SubClassOf(:C ObjectSomeValuesFrom(:r :D))", "SubClassOf(:D owl:Nothing)"]
    lines += [f"SubClassOf(:C ObjectUnionOf(:A{i} :B{i}))" for i in range(20)]
    path = tmp_path / "thrash.ofn"
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
