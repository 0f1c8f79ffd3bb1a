"""Recursive-descent parsers and pretty-printers for the concrete
syntax: program files, knowledge-base files, state formulas, concepts,
domain assertions, and contract tiers.  Pretty-printing then re-parsing
is the identity on ASTs."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from . import statelogic as sl
from . import domainlogic as dl
from .assertions import TwoTierAssertion, assertion
from . import lang


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<kw_dr>data-role\b)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<sym>:=|==|!=|&&|\|\||<=|[()\[\]{}|&!.,;=-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'int' | 'sym' | 'eof'
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "kw_dr":
                tokens.append(Token("ident", "data-role", line, col))
            elif kind == "ident":
                tokens.append(Token("ident", lexeme, line, col))
            elif kind == "int":
                tokens.append(Token("int", lexeme, line, col))
            else:
                tokens.append(Token("sym", lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.column)
        return self.advance()

    def expect_ident(self) -> str:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected identifier, found {t.text!r}", t.line, t.column)
        return self.advance().text

    def expect_int(self) -> int:
        neg = self.accept("-")
        t = self.peek()
        if t.kind != "int":
            raise ParseError(f"expected integer, found {t.text!r}", t.line, t.column)
        self.advance()
        return -int(t.text) if neg else int(t.text)

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.column)

    def expect_eof(self) -> None:
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input starting at {t.text!r}", t.line, t.column)


# ---------------------------------------------------------------------------
# Terms and state formulas


def _parse_term(p: _Parser) -> sl.Term:
    t = p.peek()
    if t.kind == "int" or t.text == "-":
        return sl.Lit(p.expect_int())
    return sl.Var(p.expect_ident())


def _parse_state_atom(p: _Parser) -> sl.StateFormula:
    if p.at("true"):
        p.advance()
        return sl.TRUE
    if p.at("false"):
        p.advance()
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
        inner = _parse_state_formula_inner(p)
        p.expect(")")
        return inner
    return _parse_state_atom(p)


def _parse_state_conj(p: _Parser) -> sl.StateFormula:
    out = _parse_state_unary(p)
    while p.accept("&&"):
        out = sl.And(out, _parse_state_unary(p))
    return out


def _parse_state_formula_inner(p: _Parser) -> sl.StateFormula:
    out = _parse_state_conj(p)
    while p.accept("||"):
        out = sl.disj(out, _parse_state_conj(p))
    return out


def parse_state_formula(text: str) -> sl.StateFormula:
    text = text.strip()
    if text == "-":
        return sl.TRUE
    p = _Parser(text)
    out = _parse_state_formula_inner(p)
    p.expect_eof()
    return out


def parse_term(text: str) -> sl.Term:
    p = _Parser(text)
    out = _parse_term(p)
    p.expect_eof()
    return out


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
        name = p.expect_ident()
        p.expect("}")
        return dl.Nominal(name)
    if p.at("some") or p.at("all"):
        quant = p.advance().text
        role = p.expect_ident()
        p.expect(".")
        nxt = p.peek()
        if nxt.kind == "int" or nxt.text == "-":
            value = p.expect_int()
            return (
                dl.ExistsData(role, value)
                if quant == "some"
                else dl.ForallData(role, value)
            )
        inner = _parse_concept_unary(p)
        return (
            dl.ExistsRole(role, inner) if quant == "some" else dl.ForallRole(role, inner)
        )
    name = p.expect_ident()
    if name == "Top":
        return dl.Top()
    if name == "Bot":
        return dl.Bottom()
    return dl.Atomic(name)


def _parse_concept_and(p: _Parser) -> dl.Concept:
    out = _parse_concept_unary(p)
    while p.accept("&"):
        out = dl.AndC(out, _parse_concept_unary(p))
    return out


def _parse_concept(p: _Parser) -> dl.Concept:
    out = _parse_concept_and(p)
    while p.accept("|"):
        out = dl.OrC(out, _parse_concept_and(p))
    return out


def parse_concept(text: str) -> dl.Concept:
    p = _Parser(text)
    out = _parse_concept(p)
    p.expect_eof()
    return out


def _parse_domain_assertion(p: _Parser, sig: dl.DomainSignature) -> dl.DomainFormula:
    """name(args) with the name classified through the signature."""
    t = p.peek()
    name = p.expect_ident()
    p.expect("(")
    if name in sig.abstract_roles:
        subject = p.expect_ident()
        p.expect(",")
        obj = p.expect_ident()
        p.expect(")")
        return dl.RoleAssertion(name, subject, obj)
    if name in sig.concrete_roles:
        subject = p.expect_ident()
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
        raise ParseError(f"undeclared symbol {name!r}", t.line, t.column)
    individual = p.expect_ident()
    p.expect(")")
    return dl.ConceptAssertion(concept, individual)


def parse_domain_formula(text: str, sig: dl.DomainSignature) -> dl.DomainFormula:
    p = _Parser(text)
    out = _parse_domain_assertion(p, sig)
    p.expect_eof()
    return out


# ---------------------------------------------------------------------------
# Contract tiers


def _parse_tier(p: _Parser, sig: dl.DomainSignature) -> TwoTierAssertion:
    p.expect("[")
    domain: list[dl.DomainFormula] = []
    if p.at("-") and p.peek(1).text == "|":
        p.advance()
    else:
        domain.append(_parse_domain_assertion(p, sig))
        while p.accept(","):
            domain.append(_parse_domain_assertion(p, sig))
    p.expect("|")
    if p.at("-") and p.peek(1).text == "]":
        p.advance()
        state = sl.TRUE
    else:
        state = _parse_state_formula_inner(p)
    p.expect("]")
    return assertion(domain, state)


def parse_assertion(text: str, sig: dl.DomainSignature) -> TwoTierAssertion:
    p = _Parser(text)
    out = _parse_tier(p, sig)
    p.expect_eof()
    return out


# ---------------------------------------------------------------------------
# Knowledge-base files


def parse_kb(text: str) -> dl.KnowledgeBase:
    p = _Parser(text)
    concepts: set[str] = set()
    abs_roles: set[str] = set()
    conc_roles: set[str] = set()
    individuals: set[str] = set()
    axioms: list[dl.DomainFormula] = []
    stubs: list[dl.Stub] = []
    closure = True

    def sig() -> dl.DomainSignature:
        return dl.DomainSignature(
            frozenset(individuals),
            frozenset(abs_roles),
            frozenset(conc_roles),
            frozenset(concepts),
        )

    while p.peek().kind != "eof":
        if p.accept("concept"):
            concepts.add(p.expect_ident())
            p.expect(";")
        elif p.accept("role"):
            abs_roles.add(p.expect_ident())
            p.expect(";")
        elif p.accept("data-role"):
            conc_roles.add(p.expect_ident())
            p.expect(";")
        elif p.accept("individual"):
            individuals.add(p.expect_ident())
            p.expect(";")
        elif p.accept("stub"):
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
            for name in (subject, stub):
                if name not in individuals:
                    p.fail(f"stub references undeclared individual {name!r}")
            if role not in abs_roles:
                p.fail(f"stub references undeclared role {role!r}")
            stubs.append(dl.Stub(role, subject, stub, variable))
        elif p.accept("closure"):
            word = p.expect_ident()
            if word not in ("on", "off"):
                p.fail("expected 'on' or 'off' after 'closure'")
            closure = word == "on"
            p.expect(";")
        elif p.peek().kind == "ident" and p.peek(1).text == "(":
            axioms.append(_parse_domain_assertion(p, sig()))
            p.expect(";")
        else:
            lhs = _parse_concept(p)
            if p.accept("=="):
                rhs = _parse_concept(p)
                axioms.extend(dl.equivalence(lhs, rhs))
            else:
                p.expect("<=")
                rhs = _parse_concept(p)
                axioms.append(dl.Subsumption(lhs, rhs))
            p.expect(";")
    p.expect_eof()
    declared = sig()
    used = dl.signature_of(axioms)
    for missing in used.missing_from(declared):
        raise ParseError(f"undeclared symbol {missing!r} used in axioms", 0, 0)
    return dl.KnowledgeBase(declared, tuple(axioms), tuple(stubs), closure)


# ---------------------------------------------------------------------------
# Programs


_STMT_END = {"end", "else", "fi", "od"}


def _parse_statements(p: _Parser, sig: dl.DomainSignature) -> lang.Statement:
    stmts: list[lang.Statement] = []
    while not (p.peek().kind == "eof" or p.peek().text in _STMT_END):
        stmts.append(_parse_statement(p, sig))
    if not stmts:
        p.fail("expected at least one statement")
    return lang.sequence(stmts)


def _parse_statement(p: _Parser, sig: dl.DomainSignature) -> lang.Statement:
    if p.accept("skip"):
        p.expect(";")
        return lang.Skip()
    if p.accept("if"):
        p.expect("(")
        cond = _parse_term(p)
        p.expect(")")
        p.expect("then")
        then = _parse_statements(p, sig)
        p.expect("else")
        orelse = _parse_statements(p, sig)
        p.expect("fi")
        return lang.If(cond, then, orelse)
    if p.accept("while"):
        p.expect("(")
        cond = _parse_term(p)
        p.expect(")")
        p.expect("do")
        body = _parse_statements(p, sig)
        p.expect("od")
        return lang.While(cond, body)
    name = p.expect_ident()
    if p.accept(":="):
        expr = _parse_term(p)
        p.expect(";")
        return lang.Assign(name, expr)
    p.expect("(")
    arg = _parse_term(p)
    p.expect(")")
    p.expect(";")
    return lang.Call(name, arg)


def parse_program(text: str, kb: dl.KnowledgeBase) -> lang.Program:
    p = _Parser(text)
    sig = kb.symbols
    globals_: list[tuple[str, lang.Expr]] = []
    procedures: list[lang.Procedure] = []
    while p.accept("var"):
        name = p.expect_ident()
        p.expect("=")
        value = sl.Lit(p.expect_int())
        p.expect(";")
        globals_.append((name, value))
    while p.accept("proc"):
        if any(proc.name == p.peek().text for proc in procedures):
            p.fail(f"duplicate procedure {p.peek().text!r}")
        pname = p.expect_ident()
        p.expect("(")
        param = p.expect_ident()
        p.expect(")")
        p.expect("requires")
        pre = _parse_tier(p, sig)
        p.expect("ensures")
        post = _parse_tier(p, sig)
        p.expect("begin")
        body = _parse_statements(p, sig)
        p.expect("end")
        p.expect(";")
        procedures.append(
            lang.Procedure(pname, param, lang.Contract(pre, post), body)
        )
    p.expect_eof()
    program = lang.Program(tuple(globals_), tuple(procedures))
    declared = set(program.variables)
    for proc in procedures:
        for st in lang.substatements(proc.body):
            if isinstance(st, lang.Assign) and st.var not in declared:
                raise ParseError(f"undeclared variable {st.var!r}", 0, 0)
            if isinstance(st, lang.Call):
                program.procedure(st.proc)
    return program


def parse_statement(text: str, kb: dl.KnowledgeBase) -> lang.Statement:
    p = _Parser(text)
    out = _parse_statements(p, kb.symbols)
    p.expect_eof()
    return out


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
    lines: list[str] = []
    for name in sorted(kb.signature.atomic_concepts):
        lines.append(f"concept {name};")
    for name in sorted(kb.signature.abstract_roles):
        lines.append(f"role {name};")
    for name in sorted(kb.signature.concrete_roles):
        lines.append(f"data-role {name};")
    for name in sorted(kb.signature.nominals):
        lines.append(f"individual {name};")
    lines.append("")
    i = 0
    while i < len(kb.axioms):
        axiom = kb.axioms[i]
        nxt = kb.axioms[i + 1] if i + 1 < len(kb.axioms) else None
        if (
            isinstance(axiom, dl.Subsumption)
            and nxt == dl.Subsumption(axiom.rhs, axiom.lhs)
        ):
            lines.append(f"{axiom.lhs} == {axiom.rhs};")
            i += 2
        else:
            lines.append(f"{axiom};")
            i += 1
    if kb.stubs:
        lines.append("")
        for s in kb.stubs:
            lines.append(f"stub {s.role}({s.subject}, {s.stub}) for var {s.variable};")
    lines.append("")
    lines.append(f"closure {'on' if kb.closure_enabled else 'off'};")
    return "\n".join(lines) + "\n"
