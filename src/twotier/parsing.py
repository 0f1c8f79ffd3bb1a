"""Recursive-descent parsers and pretty-printers for the concrete
syntax: program files, knowledge-base files, state formulas, concepts,
domain assertions, and contract tiers.  Pretty-printing then re-parsing
is the identity on ASTs.

A text is scanned once, by `findall` over one pattern that takes the
blanks and comments in front of each token (or the end of the text) with
it.  The parser reads the tokens as strings, each of the kind its first
character tells, and finds a token's offset only for an error."""

from __future__ import annotations

import itertools
import re
from typing import NoReturn

from .errors import ParseError
from . import statelogic as sl
from . import domainlogic as dl
from .assertions import TwoTierAssertion, assertion
from . import lang
from .lifting import LiftingClash, SpecLifting


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*)*
    ( data-role\b | [A-Za-z][A-Za-z0-9_]* | \d+
    | :=|==|!=|&&|\|\||<=|[()\[\]{}|&!.,;=-]
    | . | \Z )
    """,
    re.VERBOSE | re.DOTALL,
)
# every one-character token but a bad character
_ONE_CHAR_RE = re.compile(r"[A-Za-z\d()\[\]{}|&!.,;=-]")


def _kind(token: str) -> str:
    """'ident', 'int', 'sym' or 'eof', read off the first character."""
    if not token:
        return "eof"
    if token[0].isalpha():  # no bad character is left, so an ASCII letter
        return "ident"
    return "int" if token[0].isdecimal() else "sym"


class _Parser:
    """Tokens of one text.  The list ends in the eof token "", twice when
    blanks or a comment end the text.  No grammar rule asks for the
    empty text, so the eof token is never accepted and the parser never
    moves past it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = _TOKEN_RE.findall(text)
        self.pos = 0
        bad = [t for t in set(self.tokens) if len(t) == 1 and not _ONE_CHAR_RE.match(t)]
        if bad:
            self.pos = min(map(self.tokens.index, bad))
            self.fail(f"unexpected character {self.peek()!r}")
        # the index of each token naming a symbol, with the kind of symbol
        # it names ("variable", "procedure", or a kb declaration keyword),
        # in text order, for the checks that need the whole text
        self.names: list[tuple[int, str]] = []

    def peek(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead]

    def advance(self) -> str:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def offset(self, index: int) -> int:
        """Where the token at `index` starts in the text."""
        return next(itertools.islice(_TOKEN_RE.finditer(self.text), index, None)).start(1)

    def fail(self, message: str, index: int | None = None) -> NoReturn:
        """The error at the token at `index`, by default the next one, with
        its 1-based line and column."""
        offset = self.offset(self.pos if index is None else index)
        line = self.text.count("\n", 0, offset) + 1
        raise ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def expect(self, text: str) -> None:
        if not self.accept(text):
            self.fail(f"expected {text!r}, found {self.peek()!r}")

    def expect_ident(self) -> str:
        if _kind(self.peek()) != "ident":
            self.fail(f"expected identifier, found {self.peek()!r}")
        return self.advance()

    def expect_int(self) -> int:
        neg = self.accept("-")
        if _kind(self.peek()) != "int":
            self.fail(f"expected integer, found {self.peek()!r}")
        return -int(self.advance()) if neg else int(self.advance())

    def expect_eof(self) -> None:
        if self.peek():
            self.fail(f"trailing input starting at {self.peek()!r}")


def _parse_all(text: str, rule, *args):
    """`rule` applied to the whole of `text`."""
    p = _Parser(text)
    out = rule(p, *args)
    p.expect_eof()
    return out


def _binary(p: _Parser, ops: tuple, unary, level: int = 0):
    """Left-associative binary operators, `ops[level]` binding loosest;
    past the last level, `unary`."""
    if level == len(ops):
        return unary(p)
    op, combine = ops[level]
    out = _binary(p, ops, unary, level + 1)
    while p.accept(op):
        out = combine(out, _binary(p, ops, unary, level + 1))
    return out


# ---------------------------------------------------------------------------
# Terms and state formulas


def _parse_term(p: _Parser) -> sl.Term:
    if p.at("-") or _kind(p.peek()) == "int":
        return sl.Lit(p.expect_int())
    p.names.append((p.pos, "variable"))
    name = p.expect_ident()
    return sl.Var(name)


def _parse_state_atom(p: _Parser) -> sl.StateFormula:
    if p.accept("true"):
        return sl.TRUE
    if p.accept("false"):
        return sl.Not(sl.TRUE)
    lhs = _parse_term(p)
    if p.accept("=="):
        return sl.Eq(lhs, _parse_term(p))
    if p.accept("!="):
        return sl.Not(sl.Eq(lhs, _parse_term(p)))
    p.fail("expected '==' or '!=' after term")


def _parse_state_unary(p: _Parser) -> sl.StateFormula:
    if p.accept("!"):
        return sl.Not(_parse_state_unary(p))
    if p.accept("("):  # terms never start with '('
        inner = _parse_state_formula(p)
        p.expect(")")
        return inner
    return _parse_state_atom(p)


_STATE_OPS = (("||", sl.disj), ("&&", sl.And))


def _parse_state_formula(p: _Parser) -> sl.StateFormula:
    return _binary(p, _STATE_OPS, _parse_state_unary)


def parse_state_formula(text: str) -> sl.StateFormula:
    text = text.strip()
    if text == "-":
        return sl.TRUE
    return _parse_all(text, _parse_state_formula)


def parse_term(text: str) -> sl.Term:
    return _parse_all(text, _parse_term)


# ---------------------------------------------------------------------------
# Concepts and domain formulas


def _parse_concept_unary(p: _Parser) -> dl.Concept:
    if p.accept("!"):
        return dl.NotC(_parse_concept_unary(p))
    if p.accept("("):
        inner = _parse_concept(p)
        p.expect(")")
        return inner
    if p.accept("{"):
        name = _parse_individual(p)
        p.expect("}")
        return dl.Nominal(name)
    if p.at("some") or p.at("all"):
        some = p.advance() == "some"
        t = p.pos
        role = p.expect_ident()
        p.expect(".")
        if p.at("-") or _kind(p.peek()) == "int":
            p.names.append((t, "data-role"))
            value = p.expect_int()
            return dl.ExistsData(role, value) if some else dl.ForallData(role, value)
        p.names.append((t, "role"))
        inner = _parse_concept_unary(p)
        return dl.ExistsRole(role, inner) if some else dl.ForallRole(role, inner)
    t = p.pos
    name = p.expect_ident()
    if name == "Top":
        return dl.Top()
    if name == "Bot":
        return dl.Bottom()
    p.names.append((t, "concept"))
    return dl.Atomic(name)


_CONCEPT_OPS = (("|", dl.OrC), ("&", dl.AndC))


def _parse_concept(p: _Parser) -> dl.Concept:
    return _binary(p, _CONCEPT_OPS, _parse_concept_unary)


def parse_concept(text: str) -> dl.Concept:
    return _parse_all(text, _parse_concept)


def _parse_individual(p: _Parser) -> str:
    p.names.append((p.pos, "individual"))
    return p.expect_ident()


def _parse_domain_assertion(p: _Parser, sig: dl.DomainSignature) -> dl.DomainFormula:
    """name(args) with the name classified through the signature."""
    t = p.pos
    name = p.expect_ident()
    p.expect("(")
    if name in sig.abstract_roles:
        subject = _parse_individual(p)
        p.expect(",")
        obj = _parse_individual(p)
        p.expect(")")
        return dl.RoleAssertion(name, subject, obj)
    if name in sig.concrete_roles:
        subject = _parse_individual(p)
        p.expect(",")
        value = p.expect_int()
        p.expect(")")
        return dl.DataAssertion(name, subject, value)
    if name == "Top":
        concept: dl.Concept = dl.Top()
    elif name == "Bot":
        concept = dl.Bottom()
    elif name in sig.atomic_concepts:
        concept = dl.Atomic(name)
    else:
        p.fail(f"undeclared symbol {name!r}", t)
    individual = _parse_individual(p)
    p.expect(")")
    return dl.ConceptAssertion(concept, individual)


def parse_domain_formula(text: str, sig: dl.DomainSignature) -> dl.DomainFormula:
    return _parse_all(text, _parse_domain_assertion, sig)


# ---------------------------------------------------------------------------
# Contract tiers


def _parse_tier(p: _Parser, sig: dl.DomainSignature) -> TwoTierAssertion:
    p.expect("[")
    domain: list[dl.DomainFormula] = []
    if p.at("-") and p.peek(1) == "|":
        p.advance()
    else:
        domain.append(_parse_domain_assertion(p, sig))
        while p.accept(","):
            domain.append(_parse_domain_assertion(p, sig))
    p.expect("|")
    if p.at("-") and p.peek(1) == "]":
        p.advance()
        state = sl.TRUE
    else:
        state = _parse_state_formula(p)
    p.expect("]")
    return assertion(domain, state)


def parse_assertion(text: str, sig: dl.DomainSignature) -> TwoTierAssertion:
    return _parse_all(text, _parse_tier, sig)


# ---------------------------------------------------------------------------
# Knowledge-base files


def parse_kb(text: str) -> dl.KnowledgeBase:
    p = _Parser(text)
    # one set per declaration keyword, in DomainSignature's field order
    declared = {k: set() for k in ("individual", "role", "data-role", "concept")}
    # symbols may be declared after the statements that use them; a
    # declaration is the only `keyword name ;` that a kb can hold
    for keyword, name, end in zip(p.tokens, p.tokens[1:], p.tokens[2:]):
        if keyword in declared and _kind(name) == "ident" and end == ";":
            declared[keyword].add(name)
    signature = dl.DomainSignature(*map(frozenset, declared.values()))
    axioms: list[dl.DomainFormula] = []
    stubs: list[dl.Stub] = []
    stub_at: list[dict[str, int]] = []  # each stub's individual and variable tokens
    closure = True
    while p.peek():
        if p.peek() in declared:
            p.advance()
            p.expect_ident()
            p.expect(";")
        elif p.accept("stub"):
            t = p.pos  # the tokens are `role ( subject , stub ) for var variable ;`
            role = p.expect_ident()
            p.expect("(")
            subject = p.expect_ident()
            p.expect(",")
            stub = p.expect_ident()
            p.expect(")")
            p.expect("for")
            p.expect("var")
            variable = p.expect_ident()
            p.expect(";")
            for name, at in ((subject, t + 2), (stub, t + 4)):
                if name not in declared["individual"]:
                    p.fail(f"stub references undeclared individual {name!r}", at)
            if role not in declared["role"]:
                p.fail(f"stub references undeclared role {role!r}", t)
            stubs.append(dl.Stub(role, subject, stub, variable))
            stub_at.append({"stub": t + 4, "variable": t + 8})
        elif p.accept("closure"):
            word = p.expect_ident()
            if word not in ("on", "off"):
                p.fail("expected 'on' or 'off' after 'closure'")
            closure = word == "on"
            p.expect(";")
        elif _kind(p.peek()) == "ident" and p.peek(1) == "(":
            axioms.append(_parse_domain_assertion(p, signature))
            p.expect(";")
        else:
            lhs = _parse_concept(p)
            if p.accept("=="):
                axioms.extend(dl.equivalence(lhs, _parse_concept(p)))
            else:
                p.expect("<=")
                axioms.append(dl.Subsumption(lhs, _parse_concept(p)))
            p.expect(";")
    for t, kind in p.names:
        if p.tokens[t] not in declared[kind]:
            p.fail(f"undeclared symbol {p.tokens[t]!r} used in axioms", t)
    kb = dl.KnowledgeBase(signature, tuple(axioms), tuple(stubs), closure)
    try:
        SpecLifting.direct(kb)
    except LiftingClash as exc:
        p.fail(str(exc), stub_at[exc.binding][exc.taken])
    return kb


# ---------------------------------------------------------------------------
# Programs


_STMT_END = {"end", "else", "fi", "od"}
# the words the program grammar reads as themselves
_KEYWORDS = _STMT_END | set(
    "var proc requires ensures begin skip if then while do true false".split()
)


def _parse_statements(p: _Parser) -> lang.Statement:
    stmts: list[lang.Statement] = []
    while p.peek() and p.peek() not in _STMT_END:
        stmts.append(_parse_statement(p))
    if not stmts:
        p.fail("expected at least one statement")
    return lang.sequence(stmts)


def _parse_statement(p: _Parser) -> lang.Statement:
    if p.accept("skip"):
        p.expect(";")
        return lang.Skip()
    if p.accept("if"):
        p.expect("(")
        cond = _parse_term(p)
        p.expect(")")
        p.expect("then")
        then = _parse_statements(p)
        p.expect("else")
        orelse = _parse_statements(p)
        p.expect("fi")
        return lang.If(cond, then, orelse)
    if p.accept("while"):
        p.expect("(")
        cond = _parse_term(p)
        p.expect(")")
        p.expect("do")
        body = _parse_statements(p)
        p.expect("od")
        return lang.While(cond, body)
    t = p.pos
    name = p.expect_ident()
    st: lang.Statement
    if p.accept(":="):
        p.names.append((t, "assigned"))
        st = lang.Assign(name, _parse_term(p))
    else:
        p.expect("(")
        p.names.append((t, "procedure"))
        st = lang.Call(name, _parse_term(p))
        p.expect(")")
    p.expect(";")
    return st


def _declared_name(p: _Parser, kind: str, taken, clash: str) -> str:
    """The name a declaration of `kind` introduces: no keyword, and none
    in `taken`, for which `clash` is the error."""
    if p.peek() in _KEYWORDS:
        p.fail(f"keyword {p.peek()!r} cannot name a {kind}")
    if p.peek() in taken:
        p.fail(f"{clash} {p.peek()!r}")
    return p.expect_ident()


def parse_program(text: str, kb: dl.KnowledgeBase) -> lang.Program:
    p = _Parser(text)
    sig = kb.symbols
    globals_: dict[str, lang.Expr] = {}
    procedures: dict[str, lang.Procedure] = {}
    declared_at: dict[str, int] = {}  # each variable's first declaration
    while p.accept("var"):
        declared_at[p.peek()] = p.pos
        name = _declared_name(p, "variable", globals_, "duplicate variable")
        p.expect("=")
        globals_[name] = sl.Lit(p.expect_int())
        p.expect(";")
    while p.accept("proc"):
        pname = _declared_name(p, "procedure", procedures, "duplicate procedure")
        p.expect("(")
        # a parameter is a program variable: one of a global's name would
        # be that global's slot, which the contract renames to the argument
        declared_at.setdefault(p.peek(), p.pos)
        param = _declared_name(p, "parameter", globals_, "parameter names the global variable")
        p.expect(")")
        p.expect("requires")
        pre = _parse_tier(p, sig)
        p.expect("ensures")
        post = _parse_tier(p, sig)
        p.expect("begin")
        body = _parse_statements(p)
        p.expect("end")
        p.expect(";")
        procedures[pname] = lang.Procedure(pname, param, lang.Contract(pre, post), body)
    p.expect_eof()
    program = lang.Program(tuple(globals_.items()), tuple(procedures.values()))
    try:
        lifting = SpecLifting.direct(kb, program.variables)
    except LiftingClash as exc:
        p.fail(str(exc), declared_at.get(exc.variable))
    declared = {
        "variable": set(program.variables),
        # a call's contract reads the callee's parameter as the argument,
        # which is sound only while no statement changes a parameter
        "assigned": set(globals_),
        "procedure": procedures,
        # a contract names the kb's individuals and the lifting's stubs
        "individual": lifting.kernel_signature.nominals,
    }
    for t, kind in p.names:
        name = p.tokens[t]
        if name not in declared[kind]:
            if kind == "assigned" and name in declared["variable"]:
                p.fail(f"parameter {name!r} cannot be assigned", t)
            p.fail(f"undeclared {'variable' if kind == 'assigned' else kind} {name!r}", t)
    return program


def parse_statement(text: str, kb: dl.KnowledgeBase) -> lang.Statement:
    return _parse_all(text, _parse_statements)


# ---------------------------------------------------------------------------
# Pretty-printers


def statement_to_text(s: lang.Statement, indent: int = 0) -> str:
    pad = "  " * indent
    lines: list[str] = []
    for st in lang.statements_of(s):
        if isinstance(st, lang.Skip):
            lines.append(f"{pad}skip;")
        elif isinstance(st, lang.Assign):
            lines.append(f"{pad}{st.var} := {st.expr};")
        elif isinstance(st, lang.Call):
            lines.append(f"{pad}{st.proc}({st.arg});")
        elif isinstance(st, lang.If):
            lines.append(f"{pad}if ({st.cond}) then")
            lines.append(statement_to_text(st.then, indent + 1))
            lines.append(f"{pad}else")
            lines.append(statement_to_text(st.orelse, indent + 1))
            lines.append(f"{pad}fi")
        elif isinstance(st, lang.While):
            lines.append(f"{pad}while ({st.cond}) do")
            lines.append(statement_to_text(st.body, indent + 1))
            lines.append(f"{pad}od")
        else:
            raise TypeError(f"not a statement: {st!r}")
    return "\n".join(lines)


def statement_to_line(s: lang.Statement) -> str:
    """Single-line rendering used in serialized judgements."""
    return " ".join(statement_to_text(s).split())


def program_to_text(program: lang.Program) -> str:
    lines: list[str] = []
    for v, e in program.globals:
        lines.append(f"var {v} = {e};")
    for proc in program.procedures:
        lines.append("")
        lines.append(f"proc {proc.name}({proc.parameter})")
        lines.append(f"  requires {proc.contract.pre}")
        lines.append(f"  ensures {proc.contract.post}")
        lines.append("begin")
        lines.append(statement_to_text(proc.body, 1))
        lines.append("end;")
    return "\n".join(lines) + "\n"


def kb_to_text(kb: dl.KnowledgeBase) -> str:
    sig = kb.signature
    lines = [f"concept {name};" for name in sorted(sig.atomic_concepts)]
    lines += [f"role {name};" for name in sorted(sig.abstract_roles)]
    lines += [f"data-role {name};" for name in sorted(sig.concrete_roles)]
    lines += [f"individual {name};" for name in sorted(sig.nominals)]
    lines.append("")
    i, axioms = 0, kb.axioms
    while i < len(axioms):
        a = axioms[i]
        # a subsumption followed by its converse is an equivalence
        pair = isinstance(a, dl.Subsumption) and axioms[i + 1 : i + 2] == (
            dl.Subsumption(a.rhs, a.lhs),
        )
        lines.append(f"{a.lhs} == {a.rhs};" if pair else f"{a};")
        i += 2 if pair else 1
    if kb.stubs:
        lines.append("")
        for s in kb.stubs:
            lines.append(f"stub {s.role}({s.subject}, {s.stub}) for var {s.variable};")
    lines.append("")
    lines.append(f"closure {'on' if kb.closure_enabled else 'off'};")
    return "\n".join(lines) + "\n"
