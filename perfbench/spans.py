"""Spans around ontokit's public functions, for the traced run.

`Tracer.instrument` wraps each function in `SPANS` in every ontokit module
that binds it, so calls the program makes to its own public functions are
recorded too (classify's calls to is_satisfiable, sitegen's to signature).
Spans stay in memory and are written out once, when the run ends. The
untraced run never calls `instrument`, so it measures the bare program.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, function) -> span name; metric "<span>_s" is its total time.
SPANS = {
    ("parser", "parse"): "parser.parse",
    ("parser", "serialize"): "parser.serialize",
    ("model", "signature"): "model.signature",
    ("reasoner", "normalize"): "reasoner.normalize",
    ("reasoner", "is_satisfiable"): "reasoner.sat_test",
    ("reasoner", "is_subsumed_by"): "reasoner.subsumption_test",
    ("reasoner", "classify"): "reasoner.classify",
    ("reasoner", "is_consistent"): "reasoner.is_consistent",
    ("reasoner", "entailed_types"): "reasoner.entailed_types",
    ("reasoner", "realize"): "reasoner.realize",
    ("reasoner", "instances_of"): "reasoner.instances_of",
    ("analysis", "asserted_taxonomy"): "analysis.asserted_taxonomy",
    ("analysis", "diff_taxonomies"): "analysis.diff_taxonomies",
    ("analysis", "run_probes"): "analysis.run_probes",
    ("analysis", "answer_competency_query"): "analysis.competency_query",
    ("sitegen", "generate_site"): "sitegen.generate_site",
    ("sitegen", "verify_links"): "sitegen.verify_links",
    ("cli", "run"): "cli",  # named per subcommand: cli.check, cli.query, ...
}
CLI_COMMANDS = ("check", "stats", "classify", "diff", "probe", "query", "site")

# Per-layer metrics, in BENCHMARK.json order: name -> unit.
METRICS = {f"cli.{c}_s": "s" for c in CLI_COMMANDS}
METRICS.update({
    "reasoner.classify_s": "s", "reasoner.sat_tests": "count",
    "reasoner.sat_test_ms": "ms", "reasoner.subsumption_tests": "count",
    "reasoner.is_consistent_s": "s", "reasoner.realize_s": "s",
    "reasoner.entailed_types_s": "s", "reasoner.instances_of_s": "s",
    "reasoner.normalize_s": "s",
    "analysis.asserted_taxonomy_s": "s", "analysis.diff_taxonomies_s": "s",
    "analysis.run_probes_s": "s", "analysis.competency_query_s": "s",
    "parser.parse_s": "s", "parser.serialize_s": "s", "parser.input_bytes": "bytes",
    "model.signature_s": "s", "model.signature_calls": "count",
    "sitegen.generate_site_s": "s", "sitegen.verify_links_s": "s",
    "sitegen.documents": "count", "sitegen.site_bytes": "bytes",
    "bench.traced_pass_s": "s",
})


def _counts(span: str, args: tuple, result) -> dict:
    """Work counted at a span: its calls, plus sizes read off the call."""
    out = {span: 1}
    if span == "parser.parse":
        out["parser.input_bytes"] = len(args[0].encode("utf-8"))
    elif span == "sitegen.generate_site":
        out["sitegen.documents"] = len(result)
        out["sitegen.site_bytes"] = sum(len(d.body.encode("utf-8")) for d in result)
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []  # [pass, name, start, end, parent index]
        self.counts: list = []  # per pass: name -> count
        self._stack: list = []
        self._pass = -1
        self._restore: list = []

    def begin_pass(self) -> None:
        self._pass += 1
        self.counts.append({})

    def _wrap(self, span: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            name = span if span != "cli" else f"cli.{args[0][0]}"
            record = [self._pass, name, time.perf_counter(), None,
                      self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            counts = self.counts[self._pass]
            for key, n in _counts(name, args, result).items():
                counts[key] = counts.get(key, 0) + n
            return result
        return traced

    def instrument(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "ontokit" or n.startswith("ontokit.")]
        for (module, attr), span in SPANS.items():
            original = getattr(sys.modules[f"ontokit.{module}"], attr)
            wrapper = self._wrap(span, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapper)
                    self._restore.append((m, attr, original))

    def uninstrument(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def metrics(self) -> dict:
        """Median over the traced passes of each per-pass total; all of
        METRICS but bench.traced_pass_s, which the caller measures."""
        totals: list = [{} for _ in self.counts]
        for index, name, start, end, _ in self.spans:
            totals[index][name] = totals[index].get(name, 0.0) + (end - start)
        values: dict = {m: [] for m in METRICS if m != "bench.traced_pass_s"}
        for total, counts in zip(totals, self.counts):
            for metric in values:
                if metric.endswith("_s"):
                    values[metric].append(total.get(metric[:-2], 0.0))
            sat = counts.get("reasoner.sat_test", 0)
            values["reasoner.sat_tests"].append(sat)
            values["reasoner.sat_test_ms"].append(
                1000 * total.get("reasoner.sat_test", 0.0) / sat if sat else 0.0)
            values["reasoner.subsumption_tests"].append(
                counts.get("reasoner.subsumption_test", 0))
            values["model.signature_calls"].append(counts.get("model.signature", 0))
            for key in ("parser.input_bytes", "sitegen.documents", "sitegen.site_bytes"):
                values[key].append(counts.get(key, 0))
        return {m: {"value": statistics.median(v), "unit": METRICS[m]}
                for m, v in values.items()}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [{"pass": p, "name": n, "start": s, "end": e, "parent": par}
                                 for p, n, s, e, par in self.spans],
                       "counts": self.counts}, handle)
