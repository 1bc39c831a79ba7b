"""One contract for every value type of the package: a value is immutable,
has no instance dict, copies, deep-copies and pickles to an equal value,
and a hashable value keeps its hash, so it stays findable in a set."""

import copy
import pickle

import pytest

from motivecalc import (
    Atom,
    NormalForm,
    Sum,
    TatePolynomial,
    TensorTwist,
    ladder,
    perturbed,
    solve_tensor_factor,
    verify_identity,
)
from motivecalc.atlas import k3, projective_space
from motivecalc.gm import GMScenario
from motivecalc.tatepoly import ONE, L

# (build, hashable): NormalForm is unhashable, and so is a value holding one
VALUES = [
    pytest.param(lambda: ladder(0, 3) + L**7, True, id="TatePolynomial"),
    # the memo's one shared value: its clones are fresh, equal values
    pytest.param(lambda: ladder(0, 3), True, id="ladder-shared"),
    pytest.param(lambda: NormalForm({"K3": ladder(0, 2), "B": ONE}), False, id="NormalForm"),
    pytest.param(lambda: k3().diamond, True, id="HodgeDiamond"),
    pytest.param(lambda: projective_space(4), True, id="AtlasEntry-cellular"),
    pytest.param(k3, True, id="AtlasEntry-non-cellular"),
    pytest.param(lambda: verify_identity(GMScenario()), False, id="Derivation"),
    # failed derivations: a construction failure keeps its exception, which
    # equality skips; a failed comparison keeps both normal forms
    pytest.param(
        lambda: verify_identity(perturbed(GMScenario(), rank_e=4)),
        True,
        id="Derivation-construction-failed",
    ),
    pytest.param(
        lambda: verify_identity(perturbed(GMScenario(), px_fiber=2, ux_fiber=2)),
        False,
        id="Derivation-forms-differ",
    ),
    pytest.param(lambda: Atom("K3", 2), True, id="Atom"),
    pytest.param(lambda: Sum((Atom("K3", 2), Sum((Atom("B", 6),)))), True, id="Sum"),
    pytest.param(lambda: TensorTwist(Atom("B", 6), ladder(0, 2)), True, id="TensorTwist"),
    # solve_tensor_factor's result: (1 + L)^2 * K3*(1 + L + L^2) + B, less B
    pytest.param(
        lambda: solve_tensor_factor(
            "X",
            ladder(0, 1) ** 2,
            NormalForm({"B": ONE}),
            NormalForm({"K3": ladder(0, 1) ** 2 * ladder(0, 2), "B": ONE}),
        ),
        False,
        id="Solved",
    ),
]


@pytest.mark.parametrize("build, hashable", VALUES)
def test_copies_and_pickles_are_equal(build, hashable):
    value = build()
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value


@pytest.mark.parametrize("build, hashable", VALUES)
def test_fields_are_read_only(build, hashable):
    value, before = build(), build()
    assert not hasattr(value, "__dict__")
    if hashable:
        h, found = hash(value), {value}
    for field in (*type(value).__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == before
    if hashable:
        assert hash(value) == h and value in found
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_the_public_constructor_copies_its_input():
    terms = {0: 1, 2: 3}
    p = TatePolynomial(terms)
    terms[0], terms[7] = 5, 1
    del terms[2]
    assert p == TatePolynomial({0: 1, 2: 3})
