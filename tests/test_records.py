"""The value records (verdicts, cells, cone unions and fields): equal values
give equal objects with equal hashes, reprs name every field, fields refuse
assignment, and each field has one FieldSpec."""
import copy
import json
import pickle

import pytest

from srdepth import homology
from srdepth.cones import ConeUnion, generate_cone_union
from srdepth.criteria import (
    DepthEqualsRadicalVerdict,
    LocalCohomologyCell,
    depth_equals_radical,
    local_cohomology_table,
)
from srdepth.homology import CMResult, FieldSpec, RATIONALS, is_cohen_macaulay, prime_field
from srdepth.ideals import Decomposition, MonomialIdeal
from srdepth.rigid import RigidVerdict, is_rigid_by_intersections
from srdepth.simplicial import Complex
from tests.conftest import FIXTURES, FOURCYCLE

BOWTIE = Complex(5, [(1, 2, 3), (3, 4, 5)])


def decomposition_b() -> Decomposition:
    text = (FIXTURES / "fourcycle_decomposition_b.json").read_text()
    return Decomposition.from_json_dict(json.loads(text))


#: (build a record afresh, its pinned repr)
RECORDS = [
    (lambda: is_cohen_macaulay(BOWTIE), "CMResult(cm=False, face=(3,), index=0)"),
    (lambda: CMResult(True), "CMResult(cm=True, face=None, index=None)"),
    (
        lambda: is_rigid_by_intersections(FOURCYCLE, 2),
        "RigidVerdict(rigid=False, t=2, facet_indices=(0, 3), intersection_size=0)",
    ),
    (
        lambda: RigidVerdict(True, 2),
        "RigidVerdict(rigid=True, t=2, facet_indices=None, intersection_size=None)",
    ),
    (
        lambda: local_cohomology_table(MonomialIdeal(2, [(1, 1)]))[1],
        "LocalCohomologyCell(degree=(0, -1), upper=(1, 0), degrees=1, index=1, dimension=1)",
    ),
    (
        lambda: depth_equals_radical(decomposition_b()),
        "DepthEqualsRadicalVerdict(equal=False, t=2, witness_degree=(0, 4, 9, 0), "
        "witness_subcomplex=Complex(n=4, facets=[(2, 3), (1, 4)]))",
    ),
    (
        lambda: generate_cone_union(Complex(2, [(1,), (2,)])),
        "ConeUnion(n=2, facets=((1,), (2,)), symbols=((0, 2), (1, 1)), "
        "disjuncts=(frozenset(),))",
    ),
    (
        lambda: ConeUnion(2, ((1,), (2,)), ((0, 2), (1, 1)), (frozenset({(0, 1)}),)),
        "ConeUnion(n=2, facets=((1,), (2,)), symbols=((0, 2), (1, 1)), "
        "disjuncts=(frozenset({(0, 1)}),))",
    ),
    (lambda: FieldSpec(), "FieldSpec(p=None)"),
    (lambda: prime_field(3), "FieldSpec(p=3)"),
]


@pytest.mark.parametrize("make, text", RECORDS, ids=[text.split("(")[0] for _, text in RECORDS])
def test_records_compare_hash_and_print_by_value(make, text):
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == text
    assert a != tuple(getattr(a, s) for s in a.__slots__)
    for other, _ in RECORDS:
        c = other()
        assert (a == c) == (repr(a) == repr(c))
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.copy(a) == a and copy.deepcopy(a) == a


@pytest.mark.parametrize("make, text", RECORDS, ids=[text.split("(")[0] for _, text in RECORDS])
def test_record_fields_refuse_assignment(make, text):
    record = make()
    for name in record.__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.other = 0
    assert repr(record) == text


def test_records_keep_their_field_order():
    verdict = DepthEqualsRadicalVerdict(False, 2, witness_degree=(1,))
    assert verdict == DepthEqualsRadicalVerdict(False, 2, (1,), None)
    assert not verdict and CMResult(True) and not CMResult(False, (1,), 0)
    cell = LocalCohomologyCell(degree=(0,), upper=(1,), degrees=1, index=0, dimension=1)
    assert cell == LocalCohomologyCell((0,), (1,), 1, 0, 1)
    assert cell != LocalCohomologyCell((0,), (1,), 1, 0, 2)
    with pytest.raises(TypeError):
        RigidVerdict(True)


def test_one_field_spec_per_field():
    assert FieldSpec() is RATIONALS and FieldSpec(None) is RATIONALS
    assert FieldSpec(2) is prime_field(2) is homology._F2
    assert FieldSpec(7) is FieldSpec(7) is prime_field(7)
    assert FieldSpec(7) != FieldSpec(5) != RATIONALS
    assert copy.deepcopy(FieldSpec(7)) is FieldSpec(7)
    assert pickle.loads(pickle.dumps(RATIONALS)) is RATIONALS


@pytest.mark.parametrize("p, message", [
    (4, "4 is not prime"),
    (1, "1 is not prime"),
    (True, "characteristic must be an integer, got True"),
    (2.0, "characteristic must be an integer, got 2.0"),
])
def test_refused_fields_are_refused_every_time_and_never_stored(p, message):
    FieldSpec(2)  # a stored field equal to 2.0 and hashing like it
    stored = dict(homology._FIELDS)
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            FieldSpec(p)
        assert str(err.value) == message
    assert homology._FIELDS == stored
