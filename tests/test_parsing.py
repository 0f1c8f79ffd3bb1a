import re
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from twotier import parsing
from twotier.errors import ParseError
from twotier.domainlogic import (
    AndC,
    Atomic,
    ConceptAssertion,
    DataAssertion,
    ExistsData,
    ExistsRole,
    NotC,
    RoleAssertion,
    Subsumption,
)
from twotier.lang import Assign, Call, If, Seq, Skip, While
from twotier.parsing import (
    kb_to_text,
    parse_assertion,
    parse_concept,
    parse_domain_formula,
    parse_kb,
    parse_program,
    parse_state_formula,
    parse_statement,
    parse_term,
    program_to_text,
    statement_to_line,
    statement_to_text,
)
from twotier.statelogic import And, Eq, Lit, Not, TRUE, Var

from tests.conftest import corpus_text


def test_parse_terms_and_state_formulas():
    assert parse_term("42") == Lit(42)
    assert parse_term("-3") == Lit(-3)
    assert parse_term("wheels") == Var("wheels")
    phi = parse_state_formula("wheels == 4 && bodyId != 0")
    assert phi == And(Eq(Var("wheels"), Lit(4)), Not(Eq(Var("bodyId"), Lit(0))))
    assert parse_state_formula("true") == TRUE
    assert parse_state_formula("!(a == b)") == Not(Eq(Var("a"), Var("b")))


def test_state_formula_round_trip():
    for text in ("wheels == 4", "a != 0 && b == 2 && c == c", "true"):
        assert str(parse_state_formula(text)) == text


def test_parse_concepts():
    assert parse_concept("HasBody") == Atomic("HasBody")
    assert parse_concept("A & B") == AndC(Atomic("A"), Atomic("B"))
    assert parse_concept("some r . A") == ExistsRole("r", Atomic("A"))
    assert parse_concept("!(some hasValue . 0)") == NotC(ExistsData("hasValue", 0))
    assert parse_concept("some wheels . some hasValue . 4") == ExistsRole(
        "wheels", ExistsData("hasValue", 4)
    )
    assert parse_concept("some r . (A & B)") == ExistsRole(
        "r", AndC(Atomic("A"), Atomic("B"))
    )


def test_concept_round_trip():
    for text in (
        "!(some hasValue . 0)",
        "HasTwoDoors & HasFourWheels & Car",
        "some wheels . some hasValue . 4",
        "all body . NonZero",
    ):
        assert str(parse_concept(text)) == text


def test_parse_domain_formula(corrected):
    sig = corrected[1].signature
    assert parse_domain_formula("HasBody(c)", sig) == ConceptAssertion(
        Atomic("HasBody"), "c"
    )
    assert parse_domain_formula("hasValue(wheelsVar, 4)", sig) == DataAssertion(
        "hasValue", "wheelsVar", 4
    )
    assert Subsumption(Atomic("HasChassis"), Atomic("HasBody")) in corrected[1].axioms
    with pytest.raises(ParseError, match="undeclared symbol"):
        parse_domain_formula("Mystery(c)", sig)


def test_parse_two_tier_assertion(corrected):
    sig = corrected[1].signature
    a = parse_assertion("[ HasFourWheels(c) | nrDoors == 2 ]", sig)
    assert a.domain == (ConceptAssertion(Atomic("HasFourWheels"), "c"),)
    assert a.state == Eq(Var("nrDoors"), Lit(2))
    trivial = parse_assertion("[ - | - ]", sig)
    assert trivial.domain == () and trivial.state == TRUE
    assert str(a) == "[ HasFourWheels(c) | nrDoors == 2 ]"


def test_kb_round_trip_is_byte_identical():
    for name in ("addwheels", "assembly_corrected", "assembly_verbatim"):
        text = corpus_text(f"{name}.kb")
        kb = parse_kb(text)
        assert kb_to_text(kb) == text
        assert parse_kb(kb_to_text(kb)) == kb


def test_program_round_trip_is_byte_identical():
    for name in ("addwheels", "assembly_corrected", "assembly_verbatim"):
        kb = parse_kb(corpus_text(f"{name}.kb"))
        text = corpus_text(f"{name}.prog")
        program = parse_program(text, kb)
        assert program_to_text(program) == text
        assert parse_program(program_to_text(program), kb) == program


def test_duplicate_procedure_is_a_parse_error(corrected):
    # calls resolve a name to one procedure, and verdicts are keyed by it
    text = corpus_text("assembly_corrected.prog")
    with pytest.raises(ParseError, match="duplicate procedure 'addWheels'") as exc:
        parse_program(text + text[text.index("proc addWheels"):], corrected[1])
    assert exc.value.line == text.count("\n") + 1


def test_duplicate_variable_is_a_parse_error(corrected):
    # each variable is one slot of a state
    text = corpus_text("assembly_corrected.prog")
    with pytest.raises(ParseError, match="duplicate variable 'wheels'") as exc:
        parse_program("var wheels = 1;\n" + text, corrected[1])
    # the corpus's own declaration, one line further down, is the second
    line = text[: text.index("var wheels")].count("\n") + 2
    assert (exc.value.line, exc.value.column) == (line, 5)


def test_parse_statements(corrected):
    kb = corrected[1]
    assert parse_statement("skip;", kb) == Skip()
    assert parse_statement("wheels := 4;", kb) == Assign("wheels", Lit(4))
    s = parse_statement("wheels := 4; addWheels(4);", kb)
    assert s == Seq(Assign("wheels", Lit(4)), Call("addWheels", Lit(4)))
    branchy = parse_statement(
        "if (bodyId) then skip; else bodyId := 1; fi", kb
    )
    assert branchy == If(Var("bodyId"), Skip(), Assign("bodyId", Lit(1)))
    loopy = parse_statement("while (wheels) do wheels := 0; od", kb)
    assert loopy == While(Var("wheels"), Assign("wheels", Lit(0)))


def test_statement_rendering_round_trip(corrected):
    kb = corrected[1]
    for text in (
        "skip;",
        "wheels := nrWheels;",
        "if (bodyId) then skip; else bodyId := 1; fi",
        "while (wheels) do wheels := 0; od",
        "addWheels(4);",
    ):
        s = parse_statement(text, kb)
        assert parse_statement(statement_to_line(s), kb) == s
        assert parse_statement(statement_to_text(s), kb) == s


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_state_formula("wheels == ")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_kb("concept ;")
    with pytest.raises(ParseError) as exc:
        parse_kb("concept A;\n???")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text, column",
    [("f(w) == 1", 2), ("p(a)", 2), ("a == g(1)", 7)],
    ids=["function-lhs", "predicate", "function-rhs"],
)
def test_function_and_predicate_symbols_are_parse_errors(text, column):
    # the state tier is the equality fragment: nothing can interpret a
    # function or predicate symbol, so the parser rejects one
    with pytest.raises(ParseError) as exc:
        parse_state_formula(text)
    assert (exc.value.line, exc.value.column) == (1, column)


CONTRACT = "var x = 0;\nproc p(a)\n  requires [ - | - ]\n  ensures [ - | - ]\n"
STUBS = "role r; individual c; individual s1; individual s2;\n"
CLASH = Path(__file__).parent / "data" / "default_stub_clash"
CLASH_KB = CLASH.with_suffix(".kb").read_text(encoding="utf-8")
CLASH_PROG = CLASH.with_suffix(".prog").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "entry, text, expected",
    [
        (
            "kb",
            "concept A;\n// note\n\tconcept B; #",
            ("3:13: unexpected character '#'", 3, 13),
        ),
        (
            "kb",
            "concept A;\nrole r;\nconcept",
            ("3:8: expected identifier, found ''", 3, 8),
        ),
        (
            "kb",
            "data-role v;\nindividual a;\nv(a, x);",
            ("3:6: expected integer, found 'x'", 3, 6),
        ),
        (
            "program",
            "var x = 0;\nproc p(a)\n  requires [ Foo(c) | - ]\n",
            ("3:14: undeclared symbol 'Foo'", 3, 14),
        ),
        (
            "program",
            CONTRACT + "begin\nend;",
            ("6:1: expected at least one statement", 6, 1),
        ),
        (
            "assertion",
            "[ - | - ]\n  extra",
            ("2:3: trailing input starting at 'extra'", 2, 3),
        ),
        (
            "statement",
            "wheels := 1;\n  wheels(;",
            ("2:10: expected identifier, found ';'", 2, 10),
        ),
        (
            "state",
            "  (a == 1 || b != 2) && ",
            ("1:22: expected identifier, found ''", 1, 22),
        ),
        (
            "kb",
            "concept A; A <= B;",
            ("1:17: undeclared symbol 'B' used in axioms", 1, 17),
        ),
        (
            "kb",
            "concept A;\nA <= some r . {x};\nrole r;",
            ("2:16: undeclared symbol 'x' used in axioms", 2, 16),
        ),
        (
            "program",
            CONTRACT + "begin\n  x := 1;\n  if (x) then y := a; else skip; fi\nend;",
            ("7:15: undeclared variable 'y'", 7, 15),
        ),
        (
            "program",
            CONTRACT + "begin\n  while (x) do\n    q(1);\n  od\nend;",
            ("7:5: undeclared procedure 'q'", 7, 5),
        ),
        (
            "kb",
            "concept x; x <= {x};",
            ("1:18: undeclared symbol 'x' used in axioms", 1, 18),
        ),
        (
            "program",
            CONTRACT + "begin\n  x := zz;\nend;",
            ("6:8: undeclared variable 'zz'", 6, 8),
        ),
        (
            "program",
            CONTRACT + "begin\n  if (zz) then skip; else skip; fi\nend;",
            ("6:7: undeclared variable 'zz'", 6, 7),
        ),
        (
            "program",
            CONTRACT + "begin\n  while (zz) do skip; od\nend;",
            ("6:10: undeclared variable 'zz'", 6, 10),
        ),
        (
            "program",
            CONTRACT + "begin\n  p(zz);\nend;",
            ("6:5: undeclared variable 'zz'", 6, 5),
        ),
        (
            "program",
            "var x = 0;\nproc p(a)\n  requires [ - | q == 3 ]\n"
            "  ensures [ - | - ]\nbegin\n  skip;\nend;",
            ("3:18: undeclared variable 'q'", 3, 18),
        ),
        (
            "program",
            "var x = 0;\nproc p(a)\n  requires [ hasValue(var_q, 3) | - ]\n"
            "  ensures [ - | - ]\nbegin\n  skip;\nend;",
            ("3:23: undeclared individual 'var_q'", 3, 23),
        ),
        (
            "program",
            "var x = 0;\nproc p(a)\n  requires [ - | - ]\n"
            "  ensures [ wheels(c, d) | - ]\nbegin\n  skip;\nend;",
            ("4:23: undeclared individual 'd'", 4, 23),
        ),
        # a call's contract reads the callee's parameter as the argument
        (
            "program",
            CONTRACT + "begin\n  a := 1;\nend;",
            ("6:3: parameter 'a' cannot be assigned", 6, 3),
        ),
        (
            "program",
            CONTRACT + "begin\n  b := x;\nend;\n"
            "proc q(b) requires [ - | - ] ensures [ - | - ] begin skip; end;",
            ("6:3: parameter 'b' cannot be assigned", 6, 3),
        ),
        # the lifting maps each variable to one stub individual and back
        (
            "kb",
            STUBS + "stub r(c, s1) for var x;\nstub r(c, s2) for var x;",
            ("3:23: second stub for variable 'x'", 3, 23),
        ),
        (
            "kb",
            STUBS + "stub r(c, s1) for var x;\nstub r(c, s1) for var y;",
            ("3:11: stub 's1' already stands for variable 'x'", 3, 11),
        ),
        # a kb stub that takes a variable's default stub name
        (
            "program-over-clash-kb",
            CLASH_PROG,
            (
                "1:16: default stub 'var_y' of variable 'y' is the stub of variable 'x'",
                1,
                16,
            ),
        ),
        (
            "program-over-clash-kb",
            "var x = 0;\nproc p(y) requires [ - | - ] ensures [ - | - ] begin skip; end;",
            (
                "2:8: default stub 'var_y' of variable 'y' is the stub of variable 'x'",
                2,
                8,
            ),
        ),
        # an undeclared name in a stub is pointed at, as in an axiom
        (
            "kb",
            "role r; individual c;\nstub r(c, s) for var x;\nclosure on;\n",
            ("2:11: stub references undeclared individual 's'", 2, 11),
        ),
        (
            "kb",
            "individual c; individual s;\nstub r(c, s) for var x;\nclosure on;\n",
            ("2:6: stub references undeclared role 'r'", 2, 6),
        ),
    ],
    ids=[
        "character-after-comment-and-tab",
        "end-of-input",
        "expected-integer",
        "undeclared-concept-in-contract",
        "empty-body",
        "trailing-after-assertion",
        "statement-line-2",
        "state-formula-is-stripped",
        "undeclared-concept-in-axiom",
        "undeclared-individual-role-declared-after",
        "undeclared-variable",
        "undeclared-procedure",
        "undeclared-individual-named-like-a-declared-concept",
        "undeclared-variable-in-assigned-term",
        "undeclared-variable-in-if-condition",
        "undeclared-variable-in-while-condition",
        "undeclared-variable-in-call-argument",
        "undeclared-variable-in-contract",
        "stub-of-no-program-variable",
        "undeclared-individual-in-contract",
        "assigned-parameter",
        "assigned-parameter-of-another-procedure",
        "second-stub-for-a-variable",
        "stub-individual-for-two-variables",
        "default-stub-of-a-global-is-a-kb-stub",
        "default-stub-of-a-parameter-is-a-kb-stub",
        "stub-of-an-undeclared-individual",
        "stub-of-an-undeclared-role",
    ],
)
def test_parse_errors_point_at_line_and_column(addwheels, entry, text, expected):
    kb = addwheels[1]
    parse = {
        "kb": parse_kb,
        "program": lambda t: parse_program(t, kb),
        "program-over-clash-kb": lambda t: parse_program(t, parse_kb(CLASH_KB)),
        "assertion": lambda t: parse_assertion(t, kb.symbols),
        "statement": lambda t: parse_statement(t, kb),
        "state": parse_state_formula,
    }[entry]
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == expected


@pytest.mark.parametrize(
    "text, axiom",
    [
        ("individual c; A(c); concept A;", ConceptAssertion(Atomic("A"), "c")),
        ("individual c; r(c, c); role r;", RoleAssertion("r", "c", "c")),
        ("v(c, 2); individual c; data-role v;", DataAssertion("v", "c", 2)),
    ],
)
def test_a_kb_assertion_may_name_a_symbol_declared_later(text, axiom):
    assert parse_kb(text).axioms == (axiom,)


def test_a_stub_may_name_symbols_declared_later():
    kb = parse_kb("stub r(c, s) for var x; role r; individual c; individual s;")
    assert [(s.role, s.subject, s.stub) for s in kb.stubs] == [("r", "c", "s")]


CLASH = (
    "var x = 0;\n"
    "proc p(x) requires [ - | - ] ensures [ - | x == 1 ] begin x := 1; end;\n"
    "proc q(n) requires [ - | - ] ensures [ - | x == 5 ] begin p(0); end;\n"
)


def test_a_parameter_named_like_a_global_is_a_parse_error():
    # both would be one slot, and p's contract would rename the global to
    # the argument: q's call assumes 0 == 1, and q would be Closed
    with pytest.raises(ParseError) as exc:
        parse_program(CLASH, parse_kb("closure off;"))
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        "2:8: parameter names the global variable 'x'", 2, 8
    )


KEYWORDS = (
    "var", "proc", "requires", "ensures", "begin", "end", "skip", "if", "then",
    "else", "fi", "while", "do", "od", "true", "false",
)


@pytest.mark.parametrize("keyword", KEYWORDS)
@pytest.mark.parametrize(
    "kind, template, column",
    [
        ("variable", "var {} = 0;\nproc p(n) {}", 5),
        ("procedure", "var x = 0;\nproc {}(n) {}", 6),
        ("parameter", "var x = 0;\nproc p({}) {}", 8),
    ],
    ids=["variable", "procedure", "parameter"],
)
def test_a_keyword_cannot_name_a_declaration(keyword, kind, template, column):
    # the statement and contract parsers read a keyword as the keyword
    rest = "requires [ - | - ] ensures [ - | - ] begin skip; end;"
    text = template.format(keyword, rest)
    with pytest.raises(ParseError) as exc:
        parse_program(text, parse_kb("closure off;"))
    line = 1 if kind == "variable" else 2
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        f"{line}:{column}: keyword {keyword!r} cannot name a {kind}", line, column
    )
    # any other name parses
    parse_program(template.format("ok", rest), parse_kb("closure off;"))


@pytest.mark.parametrize(
    "text, message",
    [
        # Bot(c) would read as the built-in bottom concept
        (
            "concept Bot; concept Car; individual c; Bot(c);",
            "1:9: keyword 'Bot' cannot name a concept",
        ),
        # the rest were accepted here and failed at their first use
        (
            "concept all; concept Car; all <= Car;",
            "1:9: keyword 'all' cannot name a concept",
        ),
        (
            "concept Car; concept concept; concept <= Car;",
            "1:22: keyword 'concept' cannot name a concept",
        ),
        (
            "individual a; role closure; closure(a, a);",
            "1:20: keyword 'closure' cannot name a role",
        ),
        (
            "individual a; data-role stub; stub(a, 1);",
            "1:25: keyword 'stub' cannot name a data-role",
        ),
    ],
    ids=[
        "concept-Bot", "concept-all", "concept-concept", "role-closure", "data-role-stub"
    ],
)
def test_a_kb_keyword_cannot_name_a_symbol(text, message):
    with pytest.raises(ParseError) as exc:
        parse_kb(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "name", ["individual", "role", "data-role", "concept", "stub", "closure"]
)
def test_each_kb_statement_keyword_is_refused_for_every_kind_but_individuals(name):
    for kind in ("concept", "role", "data-role"):
        with pytest.raises(ParseError, match=f"keyword {name!r} cannot name a {kind}$"):
            parse_kb(f"{kind} {name};")
    # an individual stands only where no keyword does
    kb = parse_kb(f"concept A; individual {name}; A({name});")
    assert kb.symbols.nominals == {name}


@pytest.mark.parametrize("name", ["some", "all", "Top", "Bot"])
def test_a_concept_keyword_may_name_a_role_or_an_individual(name):
    with pytest.raises(ParseError, match=f"keyword {name!r} cannot name a concept$"):
        parse_kb(f"concept {name};")
    kb = parse_kb(f"concept A; role {name}; individual c; A <= some {name} . A;")
    assert kb.symbols.abstract_roles == {name}
    assert parse_kb(f"individual {name};").symbols.nominals == {name}


def test_a_term_may_name_the_parameter_of_a_later_procedure(addwheels):
    # every parameter is a program variable, wherever it is declared
    text = (
        "var x = 0;\n"
        "proc p(a) requires [ - | b == 3 ] ensures [ - | - ] begin x := b; end;\n"
        "proc q(b) requires [ - | - ] ensures [ - | a == 1 ] begin p(b); end;\n"
    )
    program = parse_program(text, addwheels[1])
    assert program.variables == ("x", "a", "b")


def test_a_contract_may_name_the_stub_of_any_program_variable(addwheels):
    # the lifting declares var_v for each program variable v that no kb
    # stub binds; wheelsVar is the kb's stub of wheels
    text = (
        "var x = 0;\nvar wheels = 0;\n"
        "proc p(a) requires [ hasValue(var_b, 3), hasValue(var_x, 1) | - ]"
        " ensures [ hasValue(wheelsVar, 4) | - ] begin skip; end;\n"
        "proc q(b) requires [ - | - ] ensures [ - | - ] begin skip; end;\n"
    )
    kb = addwheels[1]
    assert parse_program(text, kb).procedure("p").contract.pre.domain == (
        parse_domain_formula("hasValue(var_b, 3)", kb.symbols),
        parse_domain_formula("hasValue(var_x, 1)", kb.symbols),
    )
    with pytest.raises(ParseError, match="undeclared individual 'var_wheels'"):
        parse_program(text.replace("wheelsVar", "var_wheels"), kb)


names = st.sampled_from(("a", "b", "wheels"))
values = st.integers(-9, 9)


@st.composite
def state_texts(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        lhs = draw(names)
        rhs = draw(values)
        op = draw(st.sampled_from(("==", "!=")))
        return f"{lhs} {op} {rhs}"
    return f"{draw(state_texts(depth=depth - 1))} && {draw(state_texts(depth=depth - 1))}"


@given(state_texts())
@settings(max_examples=150)
def test_state_formula_parse_render_fixpoint(text):
    phi = parse_state_formula(text)
    assert parse_state_formula(str(phi)) == phi


# the tokenizer before the one-scan `_Parser`, as the oracle of its tokens,
# kinds, offsets and errors
_ORACLE_RE = re.compile(
    r"""
    \s+ | //[^\n]*
  | (?P<ident>data-role\b|[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<sym>:=|==|!=|&&|\|\||<=|[()\[\]{}|&!.,;=-])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class OracleToken(NamedTuple):
    kind: str
    text: str
    offset: int


def oracle_tokenize(text: str) -> list[OracleToken]:
    tokens = []
    for m in _ORACLE_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            offset = m.start()
            line = text.count("\n", 0, offset) + 1
            raise ParseError(
                f"unexpected character {m.group()!r}",
                line,
                offset - text.rfind("\n", 0, offset),
            )
        if kind is not None:
            tokens.append(OracleToken(kind, m.group(), m.start()))
    tokens.append(OracleToken("eof", "", len(text)))
    return tokens


PIECES = (
    "a", "x_1", "wheels", "Top", "data-role", "data", "role", "0", "42", "٣",
    ":=", "==", "!=", "&&", "||", "<=", "(", ")", "[", "]", "{", "}", "|", "&",
    "!", ".", ",", ";", "=", "-",
    " ", "\t", "\n", "\r\n", "\u00a0", "// note", "//", "// # @ é\n",
    "#", "/", "@", "é", "_", ":", "<", "²",
)


@given(
    st.lists(st.sampled_from(PIECES), max_size=30),
    st.sampled_from(("", "// last", "\n", "\n\n", " \n")),
)
@example([], "")
@example(["a"], "\n")
@example(["a", " "], "// last")
@example([" "], "")
@settings(max_examples=400)
def test_the_scan_gives_the_oracle_tokens(pieces, end):
    text = "".join(pieces) + end
    try:
        expected = oracle_tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parsing._Parser(text)
        assert (str(got.value), got.value.line, got.value.column) == (
            str(exc), exc.line, exc.column
        )
        return
    p = parsing._Parser(text)
    first_eof = p.tokens.index("")
    # past the first eof token at most one more: the parser stops at it
    assert p.tokens[first_eof:] in ([""], ["", ""])
    got = [
        OracleToken(parsing._kind(t), t, p.offset(i))
        for i, t in enumerate(p.tokens[: first_eof + 1])
    ]
    assert got == expected
