"""Description-logic layer: concepts, domain formulas, interpretations.

The logic is ALC with nominals and an integer-valued concrete role
fragment (exists/forall value restrictions against a single literal).
Nominal concepts `{a}` may be written in kb files; internally they are
introduced only by stub closure, which restricts a stub's role to its
stub individual.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from .errors import UndeclaredSymbol

if TYPE_CHECKING:
    from .reasoning import Reasoner


# ---------------------------------------------------------------------------
# Concepts


@dataclass(frozen=True)
class Top:
    def __str__(self) -> str:
        return "Top"


@dataclass(frozen=True)
class Bottom:
    def __str__(self) -> str:
        return "Bot"


@dataclass(frozen=True)
class Atomic:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class NotC:
    arg: "Concept"

    def __str__(self) -> str:
        return f"!{_wrap(self.arg)}"


@dataclass(frozen=True)
class AndC:
    lhs: "Concept"
    rhs: "Concept"

    def __str__(self) -> str:
        return f"{_wrap(self.lhs, AndC)} & {_wrap(self.rhs, AndC)}"


@dataclass(frozen=True)
class OrC:
    lhs: "Concept"
    rhs: "Concept"

    def __str__(self) -> str:
        return f"{_wrap(self.lhs, OrC)} | {_wrap(self.rhs, OrC)}"


@dataclass(frozen=True)
class ExistsRole:
    role: str
    arg: "Concept"

    def __str__(self) -> str:
        return f"some {self.role} . {_wrap(self.arg, *_QUANTIFIERS)}"


@dataclass(frozen=True)
class ForallRole:
    role: str
    arg: "Concept"

    def __str__(self) -> str:
        return f"all {self.role} . {_wrap(self.arg, *_QUANTIFIERS)}"


@dataclass(frozen=True)
class ExistsData:
    role: str
    value: int

    def __str__(self) -> str:
        return f"some {self.role} . {self.value}"


@dataclass(frozen=True)
class ForallData:
    role: str
    value: int

    def __str__(self) -> str:
        return f"all {self.role} . {self.value}"


@dataclass(frozen=True)
class Nominal:
    name: str

    def __str__(self) -> str:
        return "{" + self.name + "}"


Concept = (
    Top
    | Bottom
    | Atomic
    | NotC
    | AndC
    | OrC
    | ExistsRole
    | ForallRole
    | ExistsData
    | ForallData
    | Nominal
)


# a quantifier body is itself unary, so nested quantifiers stay bare
_QUANTIFIERS = (ExistsRole, ForallRole, ExistsData, ForallData)


def _wrap(c: Concept, *bare_types: type) -> str:
    """`c` as an operand: parenthesized unless it is atomic, a negation
    or one of `bare_types`."""
    if isinstance(c, (Top, Bottom, Atomic, Nominal, NotC, *bare_types)):
        return str(c)
    return f"({c})"


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Subsumption:
    lhs: Concept
    rhs: Concept

    def __str__(self) -> str:
        return f"{self.lhs} <= {self.rhs}"


@dataclass(frozen=True)
class ConceptAssertion:
    concept: Concept
    individual: str

    def __str__(self) -> str:
        if isinstance(self.concept, (Top, Bottom, Atomic)):
            return f"{self.concept}({self.individual})"
        return f"({self.concept})({self.individual})"


@dataclass(frozen=True)
class RoleAssertion:
    role: str
    subject: str
    obj: str

    def __str__(self) -> str:
        return f"{self.role}({self.subject}, {self.obj})"


@dataclass(frozen=True)
class DataAssertion:
    role: str
    subject: str
    value: int

    def __str__(self) -> str:
        return f"{self.role}({self.subject}, {self.value})"


DomainFormula = Subsumption | ConceptAssertion | RoleAssertion | DataAssertion


def equivalence(lhs: Concept, rhs: Concept) -> tuple[DomainFormula, DomainFormula]:
    """C == D abbreviates the two subsumptions."""
    return (Subsumption(lhs, rhs), Subsumption(rhs, lhs))


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class DomainSignature:
    nominals: frozenset[str] = frozenset()
    abstract_roles: frozenset[str] = frozenset()
    concrete_roles: frozenset[str] = frozenset()
    atomic_concepts: frozenset[str] = frozenset()

    def union(self, other: "DomainSignature") -> "DomainSignature":
        return DomainSignature(
            self.nominals | other.nominals,
            self.abstract_roles | other.abstract_roles,
            self.concrete_roles | other.concrete_roles,
            self.atomic_concepts | other.atomic_concepts,
        )

    def missing_from(self, other: "DomainSignature") -> list[str]:
        out: list[str] = []
        out.extend(sorted(self.nominals - other.nominals))
        out.extend(sorted(self.abstract_roles - other.abstract_roles))
        out.extend(sorted(self.concrete_roles - other.concrete_roles))
        out.extend(sorted(self.atomic_concepts - other.atomic_concepts))
        return out


_BINARY = (Subsumption, AndC, OrC)
_UNARY = (NotC, ExistsRole, ForallRole)


def _nodes(x: DomainFormula | Concept, acc: list) -> list:
    """x and every formula and concept nested in it, appended to acc."""
    acc.append(x)
    if isinstance(x, _BINARY):
        _nodes(x.lhs, acc)
        _nodes(x.rhs, acc)
    elif isinstance(x, _UNARY):
        _nodes(x.arg, acc)
    elif isinstance(x, ConceptAssertion):
        _nodes(x.concept, acc)
    return acc


def nodes_of(formulas: Iterable[DomainFormula]) -> list:
    acc: list = []
    for f in formulas:
        _nodes(f, acc)
    return acc


def signature_of(formulas: Iterable[DomainFormula]) -> DomainSignature:
    """Exactly the symbols syntactically occurring in the formulas."""
    nom: set[str] = set()
    ar: set[str] = set()
    cr: set[str] = set()
    ac: set[str] = set()
    for n in nodes_of(formulas):
        if isinstance(n, Atomic):
            ac.add(n.name)
        elif isinstance(n, (ExistsRole, ForallRole)):
            ar.add(n.role)
        elif isinstance(n, (ExistsData, ForallData)):
            cr.add(n.role)
        elif isinstance(n, Nominal):
            nom.add(n.name)
        elif isinstance(n, ConceptAssertion):
            nom.add(n.individual)
        elif isinstance(n, RoleAssertion):
            ar.add(n.role)
            nom.update((n.subject, n.obj))
        elif isinstance(n, DataAssertion):
            cr.add(n.role)
            nom.add(n.subject)
    return DomainSignature(frozenset(nom), frozenset(ar), frozenset(cr), frozenset(ac))


def constants_of_formulas(formulas: Iterable[DomainFormula]) -> frozenset[int]:
    return frozenset(
        n.value
        for n in nodes_of(formulas)
        if isinstance(n, (ExistsData, ForallData, DataAssertion))
    )


# ---------------------------------------------------------------------------
# Interpretations


@dataclass(frozen=True)
class DomainInterpretation:
    universe: frozenset[str]
    concept_ext: Mapping[str, frozenset[str]]
    abs_role_ext: Mapping[str, frozenset[tuple[str, str]]]
    conc_role_ext: Mapping[str, frozenset[tuple[str, int]]]
    nominal_map: Mapping[str, str]

    def describe(self) -> str:
        lines = [f"universe: {{{', '.join(sorted(self.universe))}}}"]
        for n, e in sorted(self.nominal_map.items()):
            if n != e:
                lines.append(f"nominal {n} -> {e}")
        for name, ext in sorted(self.concept_ext.items()):
            lines.append(f"concept {name}: {{{', '.join(sorted(ext))}}}")
        for name, ext in sorted(self.abs_role_ext.items()):
            pairs = ", ".join(f"({a}, {b})" for a, b in sorted(ext))
            lines.append(f"role {name}: {{{pairs}}}")
        for name, ext in sorted(self.conc_role_ext.items()):
            pairs = ", ".join(f"({a}, {v})" for a, v in sorted(ext))
            lines.append(f"data-role {name}: {{{pairs}}}")
        return "\n".join(lines)


def _declared(mapping: Mapping, name: str):
    """mapping[name], or UndeclaredSymbol(name) when name has no entry."""
    try:
        return mapping[name]
    except KeyError:
        raise UndeclaredSymbol(name) from None


def concept_extension(c: Concept, interp: DomainInterpretation) -> frozenset[str]:
    universe = interp.universe
    if isinstance(c, Top):
        return universe
    if isinstance(c, Bottom):
        return frozenset()
    if isinstance(c, Atomic):
        return _declared(interp.concept_ext, c.name)
    if isinstance(c, Nominal):
        return frozenset({_declared(interp.nominal_map, c.name)})
    if isinstance(c, NotC):
        return universe - concept_extension(c.arg, interp)
    if isinstance(c, AndC):
        return concept_extension(c.lhs, interp) & concept_extension(c.rhs, interp)
    if isinstance(c, OrC):
        return concept_extension(c.lhs, interp) | concept_extension(c.rhs, interp)
    if isinstance(c, ExistsRole):
        ext = _declared(interp.abs_role_ext, c.role)
        inner = concept_extension(c.arg, interp)
        return frozenset(x for x in universe if any((x, y) in ext for y in inner))
    if isinstance(c, ForallRole):
        ext = _declared(interp.abs_role_ext, c.role)
        inner = concept_extension(c.arg, interp)
        return frozenset(
            x for x in universe if all(y in inner for (s, y) in ext if s == x)
        )
    if isinstance(c, ExistsData):
        ext = _declared(interp.conc_role_ext, c.role)
        return frozenset(x for x in universe if (x, c.value) in ext)
    if isinstance(c, ForallData):
        ext = _declared(interp.conc_role_ext, c.role)
        return frozenset(
            x for x in universe if all(v == c.value for (s, v) in ext if s == x)
        )
    raise TypeError(f"not a concept: {c!r}")


def satisfies(interp: DomainInterpretation, delta: DomainFormula) -> bool:
    if isinstance(delta, Subsumption):
        return concept_extension(delta.lhs, interp) <= concept_extension(
            delta.rhs, interp
        )
    if isinstance(delta, ConceptAssertion):
        return _declared(interp.nominal_map, delta.individual) in concept_extension(
            delta.concept, interp
        )
    if isinstance(delta, RoleAssertion):
        pair = (
            _declared(interp.nominal_map, delta.subject),
            _declared(interp.nominal_map, delta.obj),
        )
        return pair in _declared(interp.abs_role_ext, delta.role)
    if isinstance(delta, DataAssertion):
        pair = (_declared(interp.nominal_map, delta.subject), delta.value)
        return pair in _declared(interp.conc_role_ext, delta.role)
    raise TypeError(f"not a domain formula: {delta!r}")


# ---------------------------------------------------------------------------
# Knowledge bases


@dataclass(frozen=True)
class Stub:
    """Binding of a program variable to a stub individual reached from a
    subject individual through an abstract role."""

    role: str
    subject: str
    stub: str
    variable: str


@dataclass(frozen=True)
class KnowledgeBase:
    signature: DomainSignature
    axioms: tuple[DomainFormula, ...]
    stubs: tuple[Stub, ...] = ()
    closure_enabled: bool = True

    def with_closure(self, enabled: bool) -> "KnowledgeBase":
        return KnowledgeBase(self.signature, self.axioms, self.stubs, enabled)

    @cached_property
    def symbols(self) -> DomainSignature:
        """The declared signature plus every symbol the background uses."""
        return self.signature.union(signature_of(self.background))

    @cached_property
    def acyclic(self) -> bool:
        """Whether the axioms' concept definitions form no cycle."""
        return is_acyclic(self.axioms)

    @cached_property
    def reasoner(self) -> Reasoner:
        """The reasoner's state over this kb (`reasoning.Reasoner`)."""
        from .reasoning import Reasoner

        return Reasoner(self.background)

    @cached_property
    def background(self) -> tuple[DomainFormula, ...]:
        """The axioms every query grounds: K plus, when closure is enabled,
        stub-closure axioms and value functionality for K's own data
        triples."""
        if not self.closure_enabled:
            return self.axioms
        return (
            self.axioms
            + self.closure_axioms()
            + self.value_functionality_axioms(self.axioms)
        )

    @cached_property
    def constants(self) -> frozenset[int]:
        """The axioms' integer constants."""
        return constants_of_formulas(self.axioms)

    def closure_axioms(self) -> tuple[DomainFormula, ...]:
        """Per stub (R, c, s, v): the subject's only R-successor is s."""
        return tuple(
            ConceptAssertion(ForallRole(s.role, Nominal(s.stub)), s.subject)
            for s in self.stubs
        )

    def value_functionality_axioms(
        self, asserted: Iterable[DomainFormula]
    ) -> tuple[DomainFormula, ...]:
        """For each asserted data triple, close the data role on that
        subject to the asserted value."""
        out: list[DomainFormula] = []
        seen: set[tuple[str, str, int]] = set()
        for f in asserted:
            if isinstance(f, DataAssertion):
                key = (f.role, f.subject, f.value)
                if key not in seen:
                    seen.add(key)
                    out.append(
                        ConceptAssertion(ForallData(f.role, f.value), f.subject)
                    )
        return tuple(out)

    def query_axioms(
        self, asserted: Iterable[DomainFormula]
    ) -> tuple[DomainFormula, ...]:
        """When closure is enabled, value functionality for the asserted
        data triples that K does not assert itself."""
        if not self.closure_enabled:
            return ()
        return self.value_functionality_axioms(
            f for f in asserted if f not in self._axiom_set
        )

    @cached_property
    def _axiom_set(self) -> frozenset[DomainFormula]:
        return frozenset(self.axioms)


def definition_graph(
    axioms: Iterable[DomainFormula],
) -> dict[str, frozenset[str]]:
    """Concept-name dependency edges used for the acyclicity scan.

    Paired subsumptions with an atomic side are treated as definitions of
    that atom; remaining subsumptions contribute edges from the names of
    the subsumed side to the names of the subsuming side.
    """
    subs = [f for f in axioms if isinstance(f, Subsumption)]
    remaining = list(subs)
    edges: dict[str, set[str]] = {}

    def names(c: Concept) -> frozenset[str]:
        return frozenset(n.name for n in _nodes(c, []) if isinstance(n, Atomic))

    def add(src: str, dsts: frozenset[str]) -> None:
        edges.setdefault(src, set()).update(dsts)

    used: set[int] = set()
    for i, a in enumerate(subs):
        if i in used:
            continue
        for j in range(i + 1, len(subs)):
            if j in used:
                continue
            b = subs[j]
            if a.lhs == b.rhs and a.rhs == b.lhs:
                # an equivalence pair; orient it as a definition if possible
                defined: Optional[Atomic] = None
                body: Optional[Concept] = None
                if isinstance(a.lhs, Atomic):
                    defined, body = a.lhs, a.rhs
                elif isinstance(a.rhs, Atomic):
                    defined, body = a.rhs, a.lhs
                if defined is not None and body is not None:
                    used.add(i)
                    used.add(j)
                    add(defined.name, names(body))
                break
    for i, a in enumerate(subs):
        if i in used:
            continue
        for n in names(a.lhs):
            add(n, names(a.rhs))
    return {k: frozenset(v) for k, v in edges.items()}


def is_acyclic(axioms: Iterable[DomainFormula]) -> bool:
    """No cycle in `definition_graph`, and no subsumption whose subsumed
    side names no concept while its subsuming side holds a role
    restriction: such an axiom applies to every element, the successors
    it asks for among them, so it is a cycle that the graph has no node
    for."""
    axioms = tuple(axioms)

    def mentions(kind, c: Concept) -> bool:
        return any(isinstance(n, kind) for n in _nodes(c, []))

    for f in axioms:
        if isinstance(f, Subsumption) and not mentions(Atomic, f.lhs):
            if mentions((ExistsRole, ForallRole), f.rhs):
                return False
    try:
        graphlib.TopologicalSorter(definition_graph(axioms)).prepare()
    except graphlib.CycleError:
        return False
    return True
