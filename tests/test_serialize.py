import json

import pytest

from twotier.calculus import check_proof
from twotier.errors import ParseError
from twotier.serialize import (
    FORMAT,
    dumps_procedures,
    loads,
    tree_from_dict,
    tree_to_dict,
)
from twotier.strategy import verify_program


def shape(tree):
    """Everything a checker consumes: rules, rendered judgements, args,
    obligations.  Reparsing may re-associate conjunctions, so trees are
    compared through their rendered form."""
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def round_trip(name, tree, kb, program):
    """`tree` written as procedure `name`'s proof and read back."""
    return loads(dumps_procedures([(name, tree)]), kb, program)[name]


def test_round_trip_preserves_trees(corrected, corrected_ctx):
    program, kb = corrected
    trees = verify_program(corrected_ctx)
    text = dumps_procedures(trees.items())
    back = loads(text, kb, program)
    assert list(back) == sorted(trees)
    for name, tree in trees.items():
        assert shape(back[name]) == shape(tree), name
    # serialization is a fixpoint after one round trip
    assert dumps_procedures(back.items()) == text


def test_round_trip_preserves_open_trees(verbatim, verbatim_ctx):
    program, kb = verbatim
    tree = verify_program(verbatim_ctx)["assembly"]
    assert not tree.closed
    back = round_trip("assembly", tree, kb, program)
    assert shape(back) == shape(tree)
    assert not back.closed


def test_dumps_is_deterministic(corrected_ctx):
    trees = verify_program(corrected_ctx)
    text = dumps_procedures(trees.items())
    assert dumps_procedures(trees.items()) == text
    # the keys are sorted, whatever the order of the trees
    assert dumps_procedures(reversed(trees.items())) == text
    doc = json.loads(text)
    assert doc["format"] == FORMAT
    assert doc["version"] == 1
    assert sorted(doc["procedures"]) == ["addWheels", "assembly"]


def test_loaded_tree_replays_through_checker(corrected, corrected_ctx):
    program, kb = corrected
    tree = verify_program(corrected_ctx)["assembly"]
    back = round_trip("assembly", tree, kb, program)
    assert check_proof(corrected_ctx, back).closed


def test_unknown_format_rejected(corrected):
    program, kb = corrected
    with pytest.raises(ParseError, match="unrecognized proof format"):
        loads('{"format": "something-else", "tree": {}}', kb, program)


@pytest.mark.parametrize("version", [True, 1.0])
def test_a_version_that_only_compares_equal_to_1_is_refused(corrected, version):
    # the CLI tests cover version 2 and a missing version
    program, kb = corrected
    doc = {"format": FORMAT, "version": version, "procedures": {}}
    with pytest.raises(ParseError) as info:
        loads(json.dumps(doc), kb, program)
    assert str(info.value) == f"unsupported proof version: {version}"


def test_a_document_without_procedures_is_malformed(corrected, corrected_ctx):
    # the one-tree form `{format, version, tree}` is not a proof file
    program, kb = corrected
    tree = tree_to_dict(verify_program(corrected_ctx)["addWheels"])
    doc = {"format": FORMAT, "version": 1, "tree": tree}
    with pytest.raises(ParseError) as info:
        loads(json.dumps(doc), kb, program)
    assert str(info.value) == "malformed proof: KeyError: 'procedures'"


def test_dict_form_tolerates_missing_optionals(corrected, corrected_ctx):
    program, kb = corrected
    tree = verify_program(corrected_ctx)["addWheels"]
    data = tree_to_dict(tree)

    def strip(d):
        for o in d["obligations"]:
            o.pop("note", None)
        if not d["args"]:
            d.pop("args")
        for p in d["premises"]:
            strip(p)

    strip(data)
    back = tree_from_dict(data, kb, program)
    assert back.rule == tree.rule
    assert back.conclusion == tree.conclusion


def texts(data):
    """Each stored text of a tree's nodes, with the kind of its parser."""
    kinds = {"pre": "assertion", "post": "assertion", "stmt": "statement"}
    kinds.update(mid="assertion", inner_pre="assertion", inner_post="assertion")
    kinds.update(kernel="atoms", delta_prime="atoms")
    found = [(kinds[k], t) for k, t in data["conclusion"].items()]
    found += [(kinds[k], t) for k, t in data.get("args", {}).items()]
    for p in data["premises"]:
        found += texts(p)
    return found


def test_a_load_parses_each_text_once(corrected, corrected_ctx, monkeypatch):
    """A tree's nodes repeat their assertions and statements; loading it
    parses each distinct text once, and gives the tree back."""
    from twotier import serialize

    program, kb = corrected
    tree = verify_program(corrected_ctx)["assembly"]
    data = tree_to_dict(tree)
    calls = []

    def counting(kind, parse):
        def counted(text, context):
            calls.append((kind, text))
            return parse(text, context)

        return counted

    assertion = counting("assertion", serialize.parse_assertion)
    monkeypatch.setattr(serialize, "parse_assertion", assertion)
    monkeypatch.setattr(
        serialize, "parse_statement", counting("statement", serialize.parse_statement)
    )
    atoms = counting("atoms", serialize._parse_atoms)
    parsers = {"kernel": atoms, "delta_prime": atoms}
    parsers.update(mid=assertion, inner_pre=assertion, inner_post=assertion)
    monkeypatch.setattr(serialize, "_ARG_PARSERS", parsers)
    back = tree_from_dict(data, kb, program)
    assert shape(back) == shape(tree)
    stored = texts(data)
    assert sorted(calls) == sorted(set(stored))
    assert len(calls) < len(stored)


def test_a_repeated_bad_text_is_reported_at_its_first_node(corrected, corrected_ctx):
    program, kb = corrected
    data = tree_to_dict(verify_program(corrected_ctx)["assembly"])
    assert len(data["premises"]) >= 2
    bad = "[ Nonsense( | - ]"
    data["premises"][1]["conclusion"]["pre"] = bad
    data["premises"][0]["conclusion"]["post"] = bad
    with pytest.raises(ParseError, match=r"^root\.0 post: "):
        tree_from_dict(data, kb, program)
    doc = json.dumps({"format": FORMAT, "version": 1, "procedures": {"assembly": data}})
    with pytest.raises(ParseError, match=r"^assembly root\.0 post: "):
        loads(doc, kb, program)
