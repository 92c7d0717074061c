"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

They pin the reference EL classifier on hand-worked cases, check that every
workload passes its own checks, and that a corrupted output fails them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import elref  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import AboxCase, Batch, DiseaseCli, SiteCase, TboxCase  # noqa: E402


# ---------------------------------------------------------------------------
# Reference EL classifier
# ---------------------------------------------------------------------------


def test_elref_told_chain():
    axioms = [("class", c) for c in "ABC"] + [("sub", "A", "B"), ("sub", "B", "C")]
    assert elref.classify(axioms) == {"A": {"A", "B", "C"}, "B": {"B", "C"}, "C": {"C"}}


def test_elref_conjunction_definition():
    axioms = [("class", c) for c in "ABCD"] + [
        ("sub", "A", "B"), ("sub", "A", "C"), ("equiv", "D", ("and", "B", "C"))]
    s = elref.classify(axioms)
    assert s["A"] == {"A", "B", "C", "D"}
    assert s["D"] == {"B", "C", "D"}
    assert s["B"] == {"B"}


def test_elref_existential_through_role_hierarchy():
    axioms = [("class", c) for c in "ABE"] + [
        ("subrole", "r", "s"), ("sub", "A", ("some", "r", "B")),
        ("equiv", "E", ("some", "s", "B"))]
    assert elref.classify(axioms)["A"] == {"A", "E"}
    # Not the other way round: an s-successor need not be an r-successor.
    axioms[-2] = ("sub", "A", ("some", "s", "B"))
    axioms[-1] = ("equiv", "E", ("some", "r", "B"))
    assert elref.classify(axioms)["A"] == {"A"}


@pytest.mark.parametrize("transitive, expected", [(True, {"A", "E"}), (False, {"A"})])
def test_elref_transitive_sub_role(transitive, expected):
    axioms = [("class", c) for c in "ABCE"] + [
        ("subrole", "direct", "part"),
        ("sub", "A", ("some", "direct", "B")), ("sub", "B", ("some", "part", "C")),
        ("equiv", "E", ("some", "part", "C"))]
    if transitive:
        axioms.append(("trans", "part"))
    assert elref.classify(axioms)["A"] == expected


def test_elref_defined_class_over_transitive_chain():
    # E ≡ P ⊓ ∃part.Q, the shape tbox-classify defines every 11th name.
    axioms = [("class", c) for c in ("A", "B", "P", "Q", "E")] + [
        ("trans", "part"), ("sub", "A", "P"), ("sub", "A", ("some", "part", "B")),
        ("sub", "B", ("some", "part", "Q")),
        ("equiv", "E", ("and", "P", ("some", "part", "Q")))]
    s = elref.classify(axioms)
    assert s["A"] == {"A", "P", "E"}
    assert s["B"] == {"B"}


def test_elref_rejects_non_el():
    with pytest.raises(ValueError):
        elref.classify([("class", "A"), ("sub", "A", ("or", "B", "C"))])


# ---------------------------------------------------------------------------
# Workloads pass their checks; corrupted outputs fail them
# ---------------------------------------------------------------------------


def _run(case):
    batch = Batch([case])
    done = batch.run_pass()
    assert done.failed == 0, done.errors
    return batch, done


def test_tbox_case_passes_and_a_dropped_edge_fails():
    batch, done = _run(TboxCase(gen.tbox_spec(3, classes=23)))
    assert batch.check(done) == []
    taxonomy = done.results[(0, "classify")]
    named = [e for e in taxonomy.edges if e[1] not in (0, 1) and e[0] != 1]
    done.results[(0, "classify")] = dataclasses.replace(
        taxonomy, edges=tuple(e for e in taxonomy.edges if e != named[0]))
    assert any("classify" in e for e in batch.check(done))


def test_abox_case_passes_and_a_wrong_type_fails():
    for kinds in (("Bacteria",), ("Virus",), ("Bacteria", "Virus")):
        batch, done = _run(AboxCase(gen.abox_spec(5, kinds)))
        assert batch.check(done) == []
    types = done.results[(0, "realize")]
    individual = sorted(types)[0]
    ns = gen.abox_spec(5).ns
    types[individual] = types[individual] + (workloads.model.Iri(ns + "Disease"),
                                             workloads.model.Iri(ns + "Organism"))
    assert any("realize" in e for e in batch.check(done))


def test_abox_truth_marks_exactly_the_bacterial_diseases():
    spec = gen.abox_spec(9, ("Bacteria", "Virus", "Bacteria"))
    bacterial = [i for i, t in spec.truth["realization"].items() if t == ("Bacterial",)]
    caused = spec.truth["caused_by"]
    assert sorted(bacterial) == sorted(
        d for d, (o,) in caused.items() if spec.truth["realization"][o] == ("Bacteria",))
    assert len(bacterial) == 2


def test_site_case_passes_and_a_broken_link_fails():
    batch, done = _run(SiteCase(gen.site_spec(4, classes=30, individuals=6)))
    assert batch.check(done) == []
    docs = list(done.results[(0, "site")])
    page = next(i for i, d in enumerate(docs) if d.relative_path != "index.html")
    docs[page] = dataclasses.replace(
        docs[page], body=docs[page].body.replace("</body>", '<a href="gone.html">x</a></body>'))
    done.results[(0, "site")] = tuple(docs)
    assert any("broken links" in e for e in batch.check(done))


def test_site_parent_links_are_checked():
    batch, done = _run(SiteCase(gen.site_spec(4, classes=30, individuals=6)))
    child, parents = next((c, ps) for c, ps in sorted(batch.cases[0].spec.truth["parents"].items())
                          if ps)
    unlinked = f'href="{sorted(parents)[0]}.html"'
    done.results[(0, "site")] = tuple(
        dataclasses.replace(d, body=d.body.replace(unlinked, 'href="index.html"'))
        if d.relative_path == f"{child}.html" else d for d in done.results[(0, "site")])
    assert any("told parents" in e for e in batch.check(done))


def test_disease_cli_passes_and_a_changed_exit_code_fails(tmp_path):
    batch = Batch([DiseaseCli(ROOT, str(tmp_path))])
    assert batch.cross_check() == []
    done = batch.run_pass()
    assert done.failed == 0
    assert batch.check(done) == []
    code, out = done.results[(0, "probe-expect")]
    done.results[(0, "probe-expect")] = (1, out)
    assert any("probe-expect: exit 1" in e for e in batch.check(done))


def test_failed_operation_counts_whole_pass():
    def boom():
        raise RuntimeError("no")

    done = workloads.Pass().run([("a", lambda: 1), ("b", boom), ("c", lambda: 3)])
    assert (done.attempted, done.failed) == (3, 2)
    assert done.results == {"a": 1}


# ---------------------------------------------------------------------------
# Seeds, metric names and the command
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["tbox-classify", "abox-realize", "publish-site"])
def test_inputs_come_from_the_seed(workload):
    texts = lambda seed: [s.text for s in gen.workload_specs(workload, seed)]
    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == list(spans.METRICS)
    assert all(m["unit"] == spans.METRICS[m["name"]] for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == {
        "disease-cli", "tbox-classify", "abox-realize", "publish-site"}


def _command(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_one_result_line(trace):
    done = _command(ROOT, "--workload", "abox-realize", "--seed", "3",
                    "--seconds", "0.2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = set(spans.METRICS) if trace == "1" else {"wall_s", "setup_s", "peak_rss_mb"}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values()) or trace == "1"


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _command(tmp_path, "--workload", "disease-cli", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
