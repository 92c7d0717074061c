"""Reference EL classifier: the completion rules of Baader, Brandt & Lutz,
"Pushing the EL envelope" (IJCAI 2005), restricted to what the benchmark's
TBoxes use: conjunction, existentials, role inclusions and transitive roles.

It works on the generator's abstract axioms and shares no code with
`ontokit.reasoner`, so tbox-classify can check `classify` against it.
"""

from __future__ import annotations

TOP = "⊤"


class _Normalizer:
    """Rewrites axioms into the normal forms A ⊑ B, A ⊓ B ⊑ C, A ⊑ ∃r.B and
    ∃r.A ⊑ B over names, introducing fresh names for complex parts."""

    def __init__(self):
        self.sub: list = []      # (a, b)
        self.conj: list = []     # (a, b, c)
        self.exists_r: list = []  # (a, r, b): a ⊑ ∃r.b
        self.exists_l: list = []  # (r, a, b): ∃r.a ⊑ b
        self._fresh = 0

    def _name(self, expr) -> str:
        if isinstance(expr, str):
            return expr
        self._fresh += 1
        fresh = f"#aux{self._fresh}"
        self.include(fresh, expr)
        self.include(expr, fresh)
        return fresh

    def include(self, lhs, rhs) -> None:
        if isinstance(rhs, tuple) and rhs[0] == "and":
            for op in rhs[1:]:
                self.include(lhs, op)
            return
        if not isinstance(lhs, str):
            if lhs[0] == "and":
                names = [self._name(op) for op in lhs[1:]]
                while len(names) > 2:
                    fresh = self._name(("and", names[0], names[1]))
                    names = [fresh] + names[2:]
                self.conj.append((names[0], names[1], self._name(rhs)))
            elif lhs[0] == "some":
                self.exists_l.append((lhs[1], self._name(lhs[2]), self._name(rhs)))
            else:
                raise ValueError(f"not EL: {lhs!r}")
            return
        if isinstance(rhs, str):
            self.sub.append((lhs, rhs))
        elif rhs[0] == "some":
            self.exists_r.append((lhs, rhs[1], self._name(rhs[2])))
        else:
            raise ValueError(f"not EL: {rhs!r}")


def classify(axioms) -> dict:
    """Named subsumers of every declared class: name -> set of names (itself
    included, ⊤ excluded). Axiom kinds other than class and role axioms are
    ignored; anything outside EL raises ValueError."""
    norm = _Normalizer()
    names: list = []
    role_sups: dict = {}
    transitive: set = set()
    for a in axioms:
        kind = a[0]
        if kind == "class":
            names.append(a[1])
        elif kind == "sub":
            norm.include(a[1], a[2])
        elif kind == "equiv":
            norm.include(a[1], a[2])
            norm.include(a[2], a[1])
        elif kind == "subrole":
            role_sups.setdefault(a[1], set()).add(a[2])
        elif kind == "trans":
            transitive.add(a[1])
        elif kind in ("oprop", "dprop", "aprop", "ind", "datatype", "note"):
            continue
        else:
            raise ValueError(f"not EL: {a!r}")

    def sups(role):  # reflexive-transitive role hierarchy
        seen, stack = {role}, [role]
        while stack:
            for s in role_sups.get(stack.pop(), ()):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return seen

    concepts = set(names) | {x for ab in norm.sub for x in ab}
    concepts |= {x for abc in norm.conj for x in abc}
    concepts |= {x for a, _, b in norm.exists_r for x in (a, b)}
    concepts |= {x for _, a, b in norm.exists_l for x in (a, b)}
    subsumers = {c: {c, TOP} for c in concepts}
    links: set = set()  # (r, c, d): c has an r-successor d
    changed = True
    while changed:
        changed = False

        def add(c, d):
            nonlocal changed
            if d not in subsumers[c]:
                subsumers[c].add(d)
                changed = True

        def link(r, c, d):
            nonlocal changed
            for s in sups(r):
                if (s, c, d) not in links:
                    links.add((s, c, d))
                    changed = True

        for c in concepts:
            s = subsumers[c]
            for a, b in norm.sub:
                if a in s:
                    add(c, b)
            for a, b, d in norm.conj:
                if a in s and b in s:
                    add(c, d)
            for a, r, b in norm.exists_r:
                if a in s:
                    link(r, c, b)
        for r, c, d in list(links):
            for role, a, b in norm.exists_l:
                if role == r and a in subsumers[d]:
                    add(c, b)
            if r in transitive:
                for r2, d2, e in list(links):
                    if r2 == r and d2 == d:
                        link(r, c, e)
    named = set(names)
    return {c: subsumers[c] & named for c in names}
