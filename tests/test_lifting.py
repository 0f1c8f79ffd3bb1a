import itertools

import pytest
from hypothesis import given, settings, strategies as st

from twotier import reasoning
from twotier.errors import (
    EmptyState,
    OutsideLiftableFragment,
    UnboundVariable,
)
from twotier.statelogic import (
    And,
    Eq,
    Lit,
    Not,
    TRUE,
    Var,
    conj,
    holds,
)
from twotier.domainlogic import (
    Atomic,
    ConceptAssertion,
    DataAssertion,
    DomainSignature,
    KnowledgeBase,
    Stub,
    signature_of,
)
from twotier.lifting import LiftingClash, SpecLifting, default_stub_name

from tests.compatibility import (
    characteristic_formula,
    check_compatibility,
    liftable_formula_pool,
)


def test_default_stub_names():
    assert default_stub_name("nrWheels") == "var_nrWheels"


def test_stub_declarations_override_defaults(corrected):
    lift = SpecLifting.direct(corrected[1], ("wheels", "nrWheels"))
    assert lift.stub_for("wheels") == "wheelsVar"
    assert lift.stub_for("nrWheels") == "var_nrWheels"
    assert lift.variable_for("wheelsVar") == "wheels"
    assert lift.variable_for("var_nrWheels") == "nrWheels"
    # a stub-shaped name that no program variable is bound to names none
    assert lift.variable_for("var_q") is None
    # a variable outside the table has no stub
    with pytest.raises(UnboundVariable):
        lift.stub_for("q")


STUB_VARIABLES = ("x", "y", "z")
# stub individuals, some named like a variable or its default stub
STUB_NAMES = ("s", "x", "var_x", "var_y", "var_z")


@settings(max_examples=200, deadline=None)
@given(
    kb_stubs=st.lists(
        st.tuples(st.sampled_from(STUB_VARIABLES), st.sampled_from(STUB_NAMES)), max_size=4
    ),
    variables=st.lists(st.sampled_from(STUB_VARIABLES), unique=True),
)
def test_the_lifting_table_is_one_to_one_or_refused(kb_stubs, variables):
    """The table is kb's stubs plus a default stub for each other
    variable.  It is refused exactly when kb gives a variable two stubs
    or a stub two variables, or a kb stub takes the default name of a
    variable with no stub of its own."""
    kb = KnowledgeBase(
        DomainSignature(
            nominals=frozenset(STUB_NAMES) | {"c"}, abstract_roles=frozenset({"r"})
        ),
        (),
        tuple(Stub("r", "c", s, v) for v, s in kb_stubs),
    )
    kb_variables = [v for v, _ in kb_stubs]
    kb_names = [s for _, s in kb_stubs]
    defaults = {v: default_stub_name(v) for v in variables if v not in kb_variables}
    refused = (
        len(set(kb_variables)) < len(kb_variables)
        or len(set(kb_names)) < len(kb_names)
        or any(d in kb_names for d in defaults.values())
    )
    try:
        lift = SpecLifting.direct(kb, variables)
    except LiftingClash:
        assert refused
        return
    assert not refused
    assert lift.table == dict(kb_stubs) | defaults
    stubs = [lift.stub_for(v) for v in lift.table]
    assert len(set(stubs)) == len(stubs)
    assert all(lift.variable_for(lift.stub_for(v)) == v for v in lift.table)


def test_lift_atoms(corrected):
    lift = SpecLifting.direct(corrected[1], ("wheels",))
    assert lift.lift_atom(Eq(Var("wheels"), Lit(4))) == DataAssertion(
        "hasValue", "wheelsVar", 4
    )
    assert lift.lift_atom(Not(Eq(Var("bodyId"), Lit(0)))) == ConceptAssertion(
        Atomic("NonZero"), "bodyVar"
    )
    assert lift.lift_atom(Eq(Var("a"), Var("b"))) is None
    assert lift.lift_atom(Not(Eq(Var("a"), Lit(3)))) is None


def test_lift_spec_and_partial(corrected):
    lift = SpecLifting.direct(corrected[1], ("wheels",))
    phi = And(Eq(Var("wheels"), Lit(4)), Not(Eq(Var("bodyId"), Lit(0))))
    assert lift.lift_spec(phi) == {
        DataAssertion("hasValue", "wheelsVar", 4),
        ConceptAssertion(Atomic("NonZero"), "bodyVar"),
    }
    with pytest.raises(OutsideLiftableFragment):
        lift.lift_spec(And(phi, Eq(Var("a"), Var("b"))))
    lifted, residue = lift.lift_partial(And(phi, Eq(Var("a"), Var("b"))))
    assert lifted == lift.lift_spec(phi)
    assert residue == (Eq(Var("a"), Var("b")),)


def test_lift_state(corrected):
    lift = SpecLifting.direct(corrected[1])
    lifted = lift.lift_state({"bodyId": 1, "doors": 2, "wheels": 4})
    assert lifted == {
        DataAssertion("hasValue", "bodyVar", 1),
        DataAssertion("hasValue", "doorsVar", 2),
        DataAssertion("hasValue", "wheelsVar", 4),
    }
    with pytest.raises(EmptyState):
        lift.lift_state({})


@settings(max_examples=60, deadline=None)
@given(
    sigma=st.dictionaries(
        st.sampled_from(("wheels", "doors", "bodyId", "x", "y")),
        st.integers(-3, 5),
        min_size=1,
    )
)
def test_lift_state_lifts_the_characteristic_formula(corrected, sigma):
    lift = SpecLifting.direct(corrected[1], ("x", "y"))
    assert lift.lift_state(sigma) == lift.lift_spec(characteristic_formula(sigma))


VARIABLES = ("wheels", "doors", "bodyId", "x", "y")
TERMS = st.one_of(st.sampled_from(VARIABLES).map(Var), st.integers(-1, 4).map(Lit))
STATE_FORMULAS = st.recursive(
    st.builds(Eq, TERMS, TERMS),
    lambda inner: st.one_of(st.builds(Not, inner), st.builds(And, inner, inner)),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(
    phi=STATE_FORMULAS,
    sigma=st.dictionaries(st.sampled_from(VARIABLES), st.integers(-1, 4), min_size=1),
)
def test_every_lifted_premise_is_about_one_individual(corrected, phi, sigma):
    """`assertions._Split` decides an assertion by detaching the stubs
    that K and the domain tier do not name, which is sound only while
    every premise it lifts is about one individual alone."""
    lift = SpecLifting.direct(corrected[1], ("x", "y"))
    lifted = lift.lift_partial(phi)[0] | lift.lift_state(sigma)
    assert all(reasoning._about_one(p) is not None for p in lifted)


def test_kernel_signature_contains_lift_images(corrected):
    lift = SpecLifting.direct(corrected[1], ("wheels", "nrWheels"))
    pool = liftable_formula_pool(("wheels", "nrWheels"), (0, 2, 4))
    for phi in pool:
        assert not signature_of(lift.lift_spec(phi)).missing_from(
            lift.kernel_signature
        )


def test_delift_examples(corrected):
    lift = SpecLifting.direct(corrected[1])
    assert lift.delift((DataAssertion("hasValue", "wheelsVar", 4),)) == Eq(
        Var("wheels"), Lit(4)
    )
    assert lift.delift(()) == TRUE
    # non-invertible kernel formulas drop to true
    assert lift.delift(
        (
            DataAssertion("hasValue", "wheelsVar", 4),
            ConceptAssertion(Atomic("HasChassis"), "c"),
        )
    ) == Eq(Var("wheels"), Lit(4))
    # so do formulas outside the kernel signature: the inv rule's
    # signature check is what refuses them
    assert lift.delift((ConceptAssertion(Atomic("Mystery"), "c"),)) == TRUE


@given(
    st.lists(
        st.tuples(st.sampled_from(("wheels", "doors", "bodyId")), st.sampled_from((0, 2, 4))),
        min_size=1,
        max_size=3,
        unique_by=lambda p: p[0],
    )
)
@settings(max_examples=60)
def test_delift_round_trip_on_invertible_fragment(pairs):
    from tests.conftest import load_corpus

    _, kb = load_corpus("assembly_corrected")
    lift = SpecLifting.direct(kb)
    atoms = []
    for v, n in pairs:
        atoms.append(Eq(Var(v), Lit(n)) if n else Not(Eq(Var(v), Lit(0))))
    phi = conj(atoms)
    back = lift.delift(sorted(lift.lift_spec(phi), key=str))
    # logical equivalence over enumerated states
    names = ("wheels", "doors", "bodyId")
    for combo in itertools.product((0, 2, 4), repeat=3):
        sigma = dict(zip(names, combo))
        assert holds(phi, sigma) == holds(back, sigma)


def test_compatibility_zero_violations(corrected):
    kb = corrected[1]
    lift = SpecLifting.direct(kb, ("wheels", "doors", "bodyId"))
    report = check_compatibility(lift, kb, (0, 1, 2, 4), ("wheels", "doors", "bodyId"))
    assert report.ok
    assert report.states_checked == 4 ** 3


def test_compatibility_vacuous_over_empty_variables(corrected):
    kb = corrected[1]
    lift = SpecLifting.direct(kb, ())
    report = check_compatibility(lift, kb, (0, 2), (), formulas=())
    assert report.ok


class _CorruptedLifting:
    """Formula lifting shifted by one (v == n becomes hasValue(s, n+1))
    while the state lifting stays honest."""

    def __init__(self, base):
        self._base = base

    def lift_state(self, sigma):
        return self._base.lift_state(sigma)

    def lift_spec(self, phi):
        out = set()
        for d in self._base.lift_spec(phi):
            if isinstance(d, DataAssertion):
                d = DataAssertion(d.role, d.subject, d.value + 1)
            out.add(d)
        return frozenset(out)


def test_compatibility_catches_corrupted_lifting(corrected):
    kb = corrected[1]
    base = SpecLifting.direct(kb, ("wheels",))
    bad = _CorruptedLifting(base)
    atoms = [Eq(Var("wheels"), Lit(n)) for n in (0, 2, 4)]
    report = check_compatibility(bad, kb, (0, 2, 4), ("wheels",), formulas=atoms)
    # every satisfied equality atom is flagged
    assert len(report.violations) == 3
