"""Recursive-descent parsers and pretty-printers for the concrete
syntax: program files, knowledge-base files, state formulas, concepts,
domain assertions, and contract tiers.  Pretty-printing then re-parsing
is the identity on ASTs."""

from __future__ import annotations

import re
from typing import NamedTuple, NoReturn

from .errors import ParseError
from . import statelogic as sl
from . import domainlogic as dl
from .assertions import TwoTierAssertion, assertion
from . import lang
from .lifting import SpecLifting


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    \s+ | //[^\n]*
  | (?P<ident>data-role\b|[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<sym>:=|==|!=|&&|\|\||<=|[()\[\]{}|&!.,;=-])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # 'ident' | 'int' | 'sym' | 'eof'
    text: str
    offset: int


def _error(text: str, offset: int, message: str) -> ParseError:
    """The error at `offset`, with its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _error(text, m.start(), f"unexpected character {m.group()!r}")
        if kind is not None:  # whitespace and comments name no group
            tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Parser:
    """Tokens of one text.  No grammar rule asks for the empty text, so
    the eof token is never accepted and the parser never moves past it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        # each token naming a symbol, with the kind of symbol it names
        # ("variable", "procedure", or a kb declaration keyword), in text
        # order, for the checks that need the whole text
        self.names: list[tuple[Token, str]] = []

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def fail(self, message: str, token: Token | None = None) -> NoReturn:
        t = self.peek() if token is None else token
        raise _error(self.text, t.offset, message)

    def expect(self, text: str) -> None:
        if not self.accept(text):
            self.fail(f"expected {text!r}, found {self.peek().text!r}")

    def expect_ident(self) -> str:
        if self.peek().kind != "ident":
            self.fail(f"expected identifier, found {self.peek().text!r}")
        return self.advance().text

    def expect_int(self) -> int:
        neg = self.accept("-")
        if self.peek().kind != "int":
            self.fail(f"expected integer, found {self.peek().text!r}")
        value = int(self.advance().text)
        return -value if neg else value

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            self.fail(f"trailing input starting at {self.peek().text!r}")


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
    t = p.peek()
    if t.kind == "int" or t.text == "-":
        return sl.Lit(p.expect_int())
    name = p.expect_ident()
    p.names.append((t, "variable"))
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
        some = p.advance().text == "some"
        t = p.peek()
        role = p.expect_ident()
        p.expect(".")
        nxt = p.peek()
        if nxt.kind == "int" or nxt.text == "-":
            p.names.append((t, "data-role"))
            value = p.expect_int()
            return dl.ExistsData(role, value) if some else dl.ForallData(role, value)
        p.names.append((t, "role"))
        inner = _parse_concept_unary(p)
        return dl.ExistsRole(role, inner) if some else dl.ForallRole(role, inner)
    t = p.peek()
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
    p.names.append((p.peek(), "individual"))
    return p.expect_ident()


def _parse_domain_assertion(p: _Parser, sig: dl.DomainSignature) -> dl.DomainFormula:
    """name(args) with the name classified through the signature."""
    t = p.peek()
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
    declared: dict[str, set[str]] = {
        "individual": set(), "role": set(), "data-role": set(), "concept": set()
    }
    # symbols may be declared after the statements that use them; a
    # declaration is the only `keyword name ;` that a kb can hold
    for keyword, name, end in zip(p.tokens, p.tokens[1:], p.tokens[2:]):
        if keyword.text in declared and name.kind == "ident" and end.text == ";":
            declared[keyword.text].add(name.text)
    signature = dl.DomainSignature(*map(frozenset, declared.values()))
    axioms: list[dl.DomainFormula] = []
    stubs: list[dl.Stub] = []
    closure = True
    while p.peek().kind != "eof":
        if p.peek().text in declared:
            p.advance()
            p.expect_ident()
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
                if name not in declared["individual"]:
                    p.fail(f"stub references undeclared individual {name!r}")
            if role not in declared["role"]:
                p.fail(f"stub references undeclared role {role!r}")
            stubs.append(dl.Stub(role, subject, stub, variable))
        elif p.accept("closure"):
            word = p.expect_ident()
            if word not in ("on", "off"):
                p.fail("expected 'on' or 'off' after 'closure'")
            closure = word == "on"
            p.expect(";")
        elif p.peek().kind == "ident" and p.peek(1).text == "(":
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
        if t.text not in declared[kind]:
            p.fail(f"undeclared symbol {t.text!r} used in axioms", t)
    return dl.KnowledgeBase(signature, tuple(axioms), tuple(stubs), closure)


# ---------------------------------------------------------------------------
# Programs


_STMT_END = {"end", "else", "fi", "od"}


def _parse_statements(p: _Parser) -> lang.Statement:
    stmts: list[lang.Statement] = []
    while not (p.peek().kind == "eof" or p.peek().text in _STMT_END):
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
    t = p.peek()
    name = p.expect_ident()
    st: lang.Statement
    if p.accept(":="):
        p.names.append((t, "variable"))
        st = lang.Assign(name, _parse_term(p))
    else:
        p.expect("(")
        p.names.append((t, "procedure"))
        st = lang.Call(name, _parse_term(p))
        p.expect(")")
    p.expect(";")
    return st


def parse_program(text: str, kb: dl.KnowledgeBase) -> lang.Program:
    p = _Parser(text)
    sig = kb.symbols
    globals_: list[tuple[str, lang.Expr]] = []
    procedures: list[lang.Procedure] = []
    while p.accept("var"):
        if any(v == p.peek().text for v, _ in globals_):
            p.fail(f"duplicate variable {p.peek().text!r}")
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
        body = _parse_statements(p)
        p.expect("end")
        p.expect(";")
        procedures.append(
            lang.Procedure(pname, param, lang.Contract(pre, post), body)
        )
    p.expect_eof()
    program = lang.Program(tuple(globals_), tuple(procedures))
    # a contract names the kb's individuals and the lifting's stubs
    lifting = SpecLifting.direct(kb, program.variables)
    declared = {
        "variable": set(program.variables),
        "procedure": {proc.name for proc in procedures},
        "individual": lifting.kernel_signature.nominals,
    }
    for t, kind in p.names:
        if t.text not in declared[kind]:
            p.fail(f"undeclared {kind} {t.text!r}", t)
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
