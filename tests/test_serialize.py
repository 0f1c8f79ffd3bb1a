import json
from pathlib import Path

import pytest

from twotier.calculus import check_program, check_proof
from twotier.errors import ParseError
from twotier.serialize import FORMAT, dumps, loads, tree_from_dict, tree_to_dict
from twotier.strategy import verify_program


def shape(tree):
    """Everything a checker consumes: rules, rendered judgements, args,
    obligations.  Reparsing may re-associate conjunctions, so trees are
    compared through their rendered form."""
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def test_round_trip_preserves_trees(corrected, corrected_ctx):
    program, kb = corrected
    for name, tree in verify_program(corrected_ctx).items():
        text = dumps(tree)
        back = loads(text, kb, program)
        assert shape(back) == shape(tree), name
        # serialization is a fixpoint after one round trip
        assert dumps(back) == text


def test_round_trip_preserves_open_trees(verbatim, verbatim_ctx):
    program, kb = verbatim
    tree = verify_program(verbatim_ctx)["assembly"]
    assert not tree.closed
    back = loads(dumps(tree), kb, program)
    assert shape(back) == shape(tree)
    assert not back.closed


def test_dumps_is_deterministic(corrected_ctx):
    tree = verify_program(corrected_ctx)["addWheels"]
    assert dumps(tree) == dumps(tree)
    doc = json.loads(dumps(tree))
    assert doc["format"] == FORMAT
    assert doc["version"] == 1


def test_loaded_tree_replays_through_checker(corrected, corrected_ctx):
    program, kb = corrected
    tree = verify_program(corrected_ctx)["assembly"]
    back = loads(dumps(tree), kb, program)
    assert check_proof(corrected_ctx, back).closed


def test_unknown_format_rejected(corrected):
    program, kb = corrected
    with pytest.raises(ParseError, match="unrecognized proof format"):
        loads('{"format": "something-else", "tree": {}}', kb, program)


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


def test_a_stored_proof_may_use_the_rule_aliases(addwheels, addwheels_ctx):
    # calculus.RULE_ALIASES: post-abd is post-core and new-var is var
    golden = Path(__file__).parent / "golden" / "addwheels.proof.json"
    text = golden.read_text(encoding="utf-8")
    for rule, alias in (("post-core", "post-abd"), ("var", "new-var")):
        assert text.count(f'"rule": "{rule}"') == 1
        text = text.replace(f'"rule": "{rule}"', f'"rule": "{alias}"')
    program, kb = addwheels
    trees = loads(text, kb, program)
    assert [node.rule for _, node in trees["addWheels"].walk()] == [
        "post-abd",
        "post-inv",
        "new-var",
    ]
    assert [r.closed for r in check_program(addwheels_ctx, trees).values()] == [True]
