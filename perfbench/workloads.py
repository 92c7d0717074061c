"""The four benchmark workloads.

A workload is a `Batch` of cases. A case is made in `__init__` (inputs and
the answers they must give), lists one pass of public calls into ontokit
with `ops`, and checks that pass's results with `check`, which returns a
list of error messages. Every answer checked here is computed by the
generators, the reference EL classifier or by hand from the fixture, never
copied from a stored run.

Calls go through module attributes (`reasoner.classify`, not a name
imported from it), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import html.parser
import io
import json
import os
import re

import gen
from elref import classify as el_classify

from ontokit import analysis, cli, disease, model, parser, reasoner, sitegen


class Pass:
    """Runs a fixed list of operations; once one raises, it and every later
    one count as failed, so each pass attempts the same number."""

    def __init__(self):
        self.results: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, ops) -> "Pass":
        for key, call in ops:
            self.attempted += 1
            if self.failed:
                self.failed += 1
                continue
            try:
                self.results[key] = call()
            except Exception as exc:  # counted and reported, never hidden
                self.failed += 1
                self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
        return self


class Batch:
    """A workload: its cases run one after another in every pass."""

    def __init__(self, cases: list):
        self.cases = cases

    def run_pass(self) -> Pass:
        return Pass().run([((i, key), call) for i, case in enumerate(self.cases)
                           for key, call in case.ops()])

    def check(self, done: Pass) -> list:
        """Errors in the outputs; a pass with a failed operation has none to
        check, since its failure is counted instead."""
        if done.failed:
            return []
        errors = []
        for i, case in enumerate(self.cases):
            results = {key: value for (j, key), value in done.results.items() if j == i}
            errors += [f"case {i}: {e}" if len(self.cases) > 1 else e
                       for e in case.check(results)]
        return errors

    def cross_check(self) -> list:
        return [e for case in self.cases for e in getattr(case, "cross_check", list)()]


def to_ontology(spec: gen.Spec) -> model.Ontology:
    """The generator's axioms as ontokit model values, built without the
    parser, for checking what `parser.parse` returns."""
    ns = spec.ns

    def iri(name):
        return model.XSD_STRING if name == "xsd:string" else model.Iri(ns + name)

    def expr(e):
        if isinstance(e, str):
            return model.Named(iri(e))
        if e[0] == "some":
            return model.Existential(model.NamedRole(iri(e[1])), expr(e[2]))
        ops = tuple(expr(op) for op in e[1:])
        return model.Intersection(ops) if e[0] == "and" else model.Union(ops)

    kinds = {"class": model.EntityKind.CONCEPT, "oprop": model.EntityKind.OBJECT_ROLE,
             "dprop": model.EntityKind.DATA_ROLE, "aprop": model.EntityKind.ANNOTATION_ROLE,
             "ind": model.EntityKind.INDIVIDUAL}
    builders = {
        "datatype": lambda a: model.Declaration(
            model.Entity(model.EntityKind.DATATYPE, model.XSD_STRING)),
        "sub": lambda a: model.SubConceptOf(expr(a[1]), expr(a[2])),
        "equiv": lambda a: model.EquivalentConcepts((expr(a[1]), expr(a[2]))),
        "disjoint": lambda a: model.DisjointConcepts((expr(a[1]), expr(a[2]))),
        "subrole": lambda a: model.SubRoleOf(iri(a[1]), iri(a[2])),
        "inverse": lambda a: model.InverseRoles(iri(a[1]), iri(a[2])),
        "trans": lambda a: model.TransitiveRole(iri(a[1])),
        "range": lambda a: model.RoleRange(iri(a[1]), expr(a[2])),
        "type": lambda a: model.ConceptAssertion(expr(a[1]), iri(a[2])),
        "rel": lambda a: model.RoleAssertion(iri(a[1]), iri(a[2]), iri(a[3])),
        "data": lambda a: model.DataAssertion(iri(a[1]), iri(a[2]), model.Literal(a[3])),
        "note": lambda a: model.AnnotationAssertion(iri(a[1]), iri(a[2]),
                                                    model.Literal(a[3])),
    }
    axioms = [model.Declaration(model.Entity(kinds[a[0]], iri(a[1]))) if a[0] in kinds
              else builders[a[0]](a) for a in spec.axioms]
    prefixes = (("", ns), ("owl", gen.OWL_NS), ("xsd", gen.XSD_NS))
    return model.make_ontology(model.Iri(spec.iri), prefixes, axioms)


def _expect(errors: list, ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


def check_taxonomy(errors: list, what: str, taxonomy, ns: str, subsumers: dict) -> None:
    """`subsumers` maps each name to its named subsumers, itself included.
    Checks every name's equivalents, ancestors and direct parents."""
    equivalents = {c: {d for d in ups if c in subsumers[d]} for c, ups in subsumers.items()}
    strict = {c: ups - equivalents[c] for c, ups in subsumers.items()}
    direct = gen.reduce_parents(strict)
    direct = {c: set().union(*(equivalents[p] for p in ps)) for c, ps in direct.items()}
    names = lambda iris: {i.value[len(ns):] for i in iris}
    _expect(errors, names(taxonomy.concepts()) == set(subsumers),
            f"{what}: concept set differs")
    _expect(errors, not taxonomy.members(reasoner.Taxonomy.TOP)
            and not taxonomy.members(reasoner.Taxonomy.BOTTOM),
            f"{what}: unexpected top or bottom members")
    present = set(taxonomy.concepts())
    for c in sorted(subsumers):
        iri = model.Iri(ns + c)
        if iri not in present:
            continue
        _expect(errors, names(taxonomy.equivalents_of(iri)) == equivalents[c],
                f"{what}: equivalents of {c}")
        _expect(errors, names(taxonomy.ancestors_of(iri)) == strict[c],
                f"{what}: ancestors of {c}")
        _expect(errors, names(taxonomy.parent_concepts_of(iri)) == direct[c],
                f"{what}: parents of {c}")


class _Links(html.parser.HTMLParser):
    def __init__(self):
        super().__init__()
        self.hrefs: list = []

    def handle_starttag(self, tag, attrs):
        self.hrefs.extend(v for k, v in attrs if tag == "a" and k == "href")


def broken_links(pages: dict) -> list:
    """(page, target) for each relative link that names no page; `pages` maps
    a relative path to its HTML."""
    broken = []
    for path, body in sorted(pages.items()):
        links = _Links()
        links.feed(body)
        for href in links.hrefs:
            if "://" not in href and not href.startswith("#") \
                    and href.split("#", 1)[0] not in pages:
                broken.append((path, href))
    return broken


# ---------------------------------------------------------------------------
# disease-cli
# ---------------------------------------------------------------------------


class DiseaseCli:
    """Every subcommand on the bundled fixture, in-process through
    `ontokit.cli.run`, with stdout captured."""

    def __init__(self, root: str, scratch: str):
        fixtures = os.path.join(root, "fixtures")
        self.ofn = os.path.join(fixtures, "disease.ofn")
        self.probes = os.path.join(fixtures, "table1.probes")
        with open(self.ofn, encoding="utf-8") as handle:
            self.text = handle.read()
        with open(self.probes, encoding="utf-8") as handle:
            self.probe_text = handle.read()
        self.site_dir = os.path.join(scratch, "site")
        self.first_stdout: dict | None = None
        self.ns = "http://www.disintel.lk/ontologies/disease.owl#"
        f, p = self.ofn, self.probes
        self.commands = [
            ("check", ["check", f], 0),
            ("stats", ["stats", f], 0),
            ("classify", ["classify", f], 0),
            ("diff", ["diff", f], 0),
            ("probe", ["probe", f, "--probes", p], 1),
            ("probe-expect", ["probe", f, "--probes", p, "--expect-unsat"], 0),
            ("super", ["query", f, "--kind", "SuperConceptsOf",
                       "--subject", "OrganismStructure"], 0),
            ("symptoms", ["query", f, "--kind", "SymptomsOf",
                          "--subject", "Giardia_lambliia"], 0),
            ("instances", ["query", f, "--kind", "InstancesOf",
                           "--subject", "Infectious"], 0),
            ("site", ["site", f, "--out", self.site_dir], 0),
        ]

    def ops(self) -> list:
        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv + ["--format", "json"])
            return code, out.getvalue()

        return [(key, lambda argv=argv: call(argv)) for key, argv, _ in self.commands]

    def check(self, results: dict) -> list:
        errors: list = []
        reports = {}
        for key, _, code in self.commands:
            got, stdout = results[key]
            _expect(errors, got == code, f"{key}: exit {got}, expected {code}")
            try:
                reports[key] = json.loads(stdout)
            except ValueError:
                errors.append(f"{key}: stdout is not JSON")
                return errors
        stdouts = {key: out for key, (_, out) in results.items()}
        if self.first_stdout is None:
            self.first_stdout = stdouts
        _expect(errors, stdouts == self.first_stdout, "stdout differs between passes")
        try:
            self._check_reports(errors, reports)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            errors.append(f"report schema: {type(exc).__name__}: {exc}")
        return errors

    def _declared(self) -> dict:
        counts: dict = {}
        for kind in re.findall(r"^Declaration\((\w+)\(", self.text, re.M):
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def _check_reports(self, errors: list, r: dict) -> None:
        ns, frag = self.ns, lambda iri: iri[len(self.ns):]
        _expect(errors, r["check"] == {"consistent": True}, "check: not consistent")

        declared = self._declared()
        counts = r["stats"]["counts"]
        expected = {"concepts": declared["Class"], "objectRoles": declared["ObjectProperty"],
                    "dataRoles": declared["DataProperty"],
                    "annotationRoles": declared["AnnotationProperty"],
                    "individuals": declared["NamedIndividual"],
                    "datatypes": declared["Datatype"]}
        _expect(errors, all(counts[k] == v for k, v in expected.items())
                and counts["conceptsIncludingTop"] == declared["Class"] + 1,
                "stats: counts differ from the fixture's declarations")
        _expect(errors, all(set(d) == {"field", "actual", "published"}
                            for d in r["stats"]["deviations"]), "stats: deviation schema")

        groups = r["classify"]["taxonomy"]["groups"]
        links = r["classify"]["taxonomy"]["links"]
        _expect(errors, [g["id"] for g in groups] == list(range(len(groups)))
                and groups[0]["kind"] == "top" and groups[1]["kind"] == "bottom"
                and all(g["kind"] == "named" for g in groups[2:])
                and not groups[1]["members"], "classify: group schema")
        members = sorted(frag(m) for g in groups for m in g["members"])
        classes = sorted(re.findall(r"^Declaration\(Class\(:(\w+)\)", self.text, re.M))
        _expect(errors, members == classes, "classify: classes differ from the fixture")
        parents: dict = {}
        for link in links:
            parents.setdefault(link["child"], []).append(link["parent"])
        group_of = {frag(m): g["id"] for g in groups for m in g["members"]}

        def ancestors(name):
            seen, stack = set(), [group_of[name]]
            while stack:
                for p in parents.get(stack.pop(), ()):
                    if p not in seen:
                        seen.add(p)
                        stack.append(p)
            return {frag(m) for g in seen for m in groups[g]["members"]}

        told = {}
        for sub, sup in re.findall(r"^SubClassOf\(:(\w+) :(\w+)\)", self.text, re.M):
            told.setdefault(sub, set()).add(sup)
        for c, sups in gen.told_closure(classes, told).items():
            _expect(errors, sups - {c} <= ancestors(c),
                    f"classify: misses a told ancestor of {c}")

        # The paper's inference, by hand: OrganismStructure ⊑ ∃hasGenetics.
        # GeneticMaterial ≡ Infectious, so the only new link is this one.
        _expect(errors, r["diff"] == {
            "addedParentLinks": [{"child": ns + "OrganismStructure",
                                  "parent": ns + "Infectious"}],
            "removedParentLinks": [], "newEquivalences": []}, "diff: report differs")
        probes = [line.split(":", 1) for line in self.probe_text.splitlines()
                  if line.strip() and not line.startswith("#")]
        expected_probes = [{"name": n.strip(), "satisfiable": False,
                            "superclasses": [s.strip() for s in ss.split(",")]}
                           for n, ss in probes]
        for key in ("probe", "probe-expect"):
            _expect(errors, r[key] == {"probes": expected_probes},
                    f"{key}: not every Table 1 probe is unsatisfiable")
        super_report = r["super"]
        _expect(errors, super_report["kind"] == "SuperConceptsOf"
                and {frag(i) for i in super_report["results"]}
                == ancestors("OrganismStructure")
                and "Infectious" in ancestors("OrganismStructure"),
                "query SuperConceptsOf: differs from classify's ancestors")
        _expect(errors, r["symptoms"] == {"kind": "SymptomsOf", "role": None,
                                          "subject": ns + "Giardia_lambliia",
                                          "results": []}, "query SymptomsOf")
        _expect(errors, r["instances"] == {"kind": "InstancesOf", "role": None,
                                           "subject": ns + "Infectious",
                                           "results": [ns + "Giardia_lambliia"]},
                "query InstancesOf: Giardia_lambliia is not Infectious")

        site = r["site"]
        pages = {}
        for name in os.listdir(self.site_dir):
            with open(os.path.join(self.site_dir, name), encoding="utf-8") as handle:
                pages[name] = handle.read()
        _expect(errors, site["documents"] == sum(declared.values()) + 1 == len(pages)
                and site["brokenLinks"] == 0 and site["broken"] == []
                and site["links"] > 0 and site["outputDir"] == self.site_dir,
                "site: report differs")
        _expect(errors, not broken_links(pages), "site: written pages have broken links")

    def cross_check(self) -> list:
        """The fixture file and `ontokit.disease` describe one ontology."""
        same = parser.parse(self.text) == disease.build_disease_ontology()
        return [] if same else ["fixtures/disease.ofn differs from ontokit.disease"]


# ---------------------------------------------------------------------------
# tbox-classify
# ---------------------------------------------------------------------------


class TboxCase:
    """Parse, classify, asserted taxonomy and diff on a seeded EL TBox."""

    def __init__(self, spec: gen.Spec):
        self.spec = spec
        self.text = self.spec.text
        self.expected = to_ontology(self.spec)
        self.subsumers = el_classify(self.spec.axioms)
        names = self.spec.truth["names"]
        told = {}
        for a in self.spec.axioms:
            if a[0] == "sub" and isinstance(a[2], str):
                told.setdefault(a[1], set()).add(a[2])
        self.told = gen.told_closure(names, told)

    def ops(self) -> list:
        r: dict = {}
        return [
            ("parse", lambda: r.setdefault("onto", parser.parse(self.text))),
            ("classify", lambda: r.setdefault("inferred", reasoner.classify(r["onto"]))),
            ("asserted", lambda: r.setdefault("asserted",
                                              analysis.asserted_taxonomy(r["onto"]))),
            ("diff", lambda: analysis.diff_taxonomies(r["asserted"], r["inferred"])),
        ]

    def expected_diff(self) -> tuple:
        ns = self.spec.ns
        told_pairs = {(c, d) for c, ups in self.told.items() for d in ups if d != c}
        ref = self.subsumers
        strict = {c: {d for d in ups if c not in ref[d]} for c, ups in ref.items()}
        direct = gen.reduce_parents(strict)
        equivalent = {c: {d for d in ups if c in ref[d]} for c, ups in ref.items()}
        links = {(c, q) for c, ps in direct.items() for p in ps for q in equivalent[p]}
        added = sorted((model.Iri(ns + c), model.Iri(ns + p))
                       for c, p in links - told_pairs)
        equivalences = sorted((model.Iri(ns + c), model.Iri(ns + d))
                              for c, ds in equivalent.items() for d in ds if c < d)
        return tuple(added), (), tuple(equivalences)

    def check(self, r: dict) -> list:
        errors: list = []
        ns = self.spec.ns
        _expect(errors, r["parse"] == self.expected, "parse: axioms differ from the generator's")
        check_taxonomy(errors, "classify", r["classify"], ns, self.subsumers)
        check_taxonomy(errors, "asserted_taxonomy", r["asserted"], ns, self.told)
        diff = r["diff"]
        _expect(errors, (diff.added_parent_links, diff.removed_parent_links,
                         diff.new_equivalences) == self.expected_diff(),
                "diff_taxonomies: differs from the reference classification")
        return errors


# ---------------------------------------------------------------------------
# abox-realize
# ---------------------------------------------------------------------------


class AboxCase:
    """Consistency, realization, instance retrieval and role-filler queries
    on a seeded disease-style ABox."""

    QUERY_CLASSES = ("Bacterial", "Infectious", "Organism")

    def __init__(self, spec: gen.Spec):
        self.spec = spec
        self.text = self.spec.text
        self.expected = to_ontology(self.spec)
        truth = self.spec.truth
        self.queries = (
            [(f"symptoms:{d}", analysis.QueryKind.SYMPTOMS_OF, d, None, s)
             for d, s in truth["symptoms"].items()]
            + [(f"diseases:{s}", analysis.QueryKind.DISEASES_WITH_SYMPTOM, s, None, d)
               for s, d in truth["diseases_with_symptom"].items()]
            + [(f"fillers:{d}", analysis.QueryKind.FILLERS_OF, d, "causedBy", o)
               for d, o in truth["caused_by"].items()])

    def _iri(self, name: str) -> model.Iri:
        return model.Iri(self.spec.ns + name)

    def ops(self) -> list:
        r: dict = {}

        def query(kind, subject, role):
            q = analysis.CompetencyQuery(kind, self._iri(subject),
                                         self._iri(role) if role else None)
            return analysis.answer_competency_query(q, r["parse"])

        ops = [
            ("parse", lambda: r.setdefault("parse", parser.parse(self.text))),
            ("is_consistent", lambda: reasoner.is_consistent(r["parse"])),
            ("realize", lambda: reasoner.realize(r["parse"])),
        ]
        ops += [(f"instances:{c}", lambda c=c: reasoner.instances_of(
            model.Named(self._iri(c)), r["parse"])) for c in self.QUERY_CLASSES]
        ops += [(key, lambda k=kind, s=subject, ro=role: query(k, s, ro))
                for key, kind, subject, role, _ in self.queries]
        return ops

    def check(self, r: dict) -> list:
        errors: list = []
        truth = self.spec.truth
        frag = lambda iris: {i.value[len(self.spec.ns):] for i in iris}
        _expect(errors, r["parse"] == self.expected, "parse: axioms differ from the generator's")
        _expect(errors, r["is_consistent"] is True, "is_consistent: not consistent")
        realized = {frag([i]).pop(): frag(ts) for i, ts in r["realize"].items()}
        _expect(errors, realized == {i: set(t) for i, t in truth["realization"].items()},
                "realize: types differ from the generator's")
        ancestors = truth["ancestors"]
        for ind, types in realized.items():
            _expect(errors, not any(a in ancestors.get(b, ()) for a in types for b in types),
                    f"realize: types of {ind} are not an antichain")
            told = truth["told_types"].get(ind)
            _expect(errors, not (told and types & ancestors[told]),
                    f"realize: {ind} has an ancestor of its told type")
        for c in self.QUERY_CLASSES:
            from_types = {i for i, ts in realized.items()
                          if any(c == t or c in ancestors.get(t, ()) for t in ts)}
            got = frag(r[f"instances:{c}"])
            _expect(errors, got == from_types == set(truth["instances"][c]),
                    f"instances_of({c}) disagrees with the types")
        for key, _, _, _, answer in self.queries:
            _expect(errors, frag(r[key]) == set(answer), f"query {key}")
        return errors


# ---------------------------------------------------------------------------
# publish-site
# ---------------------------------------------------------------------------


class SiteCase:
    """Parse, serialize, asserted taxonomy, site generation and link check
    on a seeded told-only ontology."""

    def __init__(self, spec: gen.Spec):
        self.spec = spec
        self.text = self.spec.text
        self.expected = to_ontology(self.spec)
        ns = self.spec.ns
        self.realization = {model.Iri(ns + i): tuple(model.Iri(ns + t) for t in ts)
                            for i, ts in self.spec.truth["realization"].items()}

    def ops(self) -> list:
        r: dict = {}
        return [
            ("parse", lambda: r.setdefault("onto", parser.parse(self.text))),
            ("serialize", lambda: parser.serialize(r["onto"])),
            ("asserted", lambda: r.setdefault("tree", analysis.asserted_taxonomy(r["onto"]))),
            ("site", lambda: r.setdefault("docs", sitegen.generate_site(
                r["onto"], r["tree"], r["tree"], self.realization))),
            ("links", lambda: sitegen.verify_links(r["docs"])),
        ]

    def check(self, r: dict) -> list:
        errors: list = []
        truth = self.spec.truth
        _expect(errors, r["parse"] == self.expected, "parse: axioms differ from the generator's")
        _expect(errors, parser.parse(r["serialize"]) == self.expected,
                "serialize: text does not parse back to the ontology")
        subsumers = {c: ups | {c} for c, ups in truth["ancestors"].items()}
        check_taxonomy(errors, "asserted_taxonomy", r["asserted"], self.spec.ns, subsumers)
        pages = {doc.relative_path: doc.body for doc in r["site"]}
        _expect(errors, len(r["site"]) == len(pages) == truth["entities"] + 1
                and "index.html" in pages, "generate_site: document count")
        report = r["links"]
        _expect(errors, report.broken_links == 0 and report.total_links > 0,
                "verify_links: reports broken links")
        _expect(errors, not broken_links(pages), "generate_site: broken links")
        for c, parents in sorted(truth["parents"].items()):
            body = pages.get(f"{c}.html", "")
            _expect(errors, all(f'href="{p}.html"' in body for p in parents),
                    f"generate_site: page of {c} does not link its told parents")
        return errors


_CASES = {"tbox-classify": TboxCase, "abox-realize": AboxCase, "publish-site": SiteCase}


def make_workload(name: str, root: str, seed: int, scratch: str) -> Batch:
    if name == "disease-cli":
        return Batch([DiseaseCli(root, scratch)])
    return Batch([_CASES[name](spec) for spec in gen.workload_specs(name, seed)])
