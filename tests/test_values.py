"""The immutable value types: equality, hashing, repr, immutability, checks, ``replace``."""

import copy
import pickle

import pytest

from legipower import ChamberSpec, Dominance, MulticamSpec, UsSpec, supermajority_scan
from legipower.combinat import CertBasis, CertOutcome, CertVerdict, FrozenValue
from legipower.semivalues import Relation, WeightingVector, weak_desirability

A = ChamberSpec("a", 3, 2)
B = ChamberSpec("b", 4, 3)

# (class, constructor arguments, repr) for one value of each frozen type.
VALUES = [
    (ChamberSpec, ("a", 3, 2), "ChamberSpec(name='a', size=3, quota=2)"),
    (MulticamSpec, ((A, B),),
     "MulticamSpec(chambers=(ChamberSpec(name='a', size=3, quota=2), "
     "ChamberSpec(name='b', size=4, quota=3)))"),
    (UsSpec, (),
     "UsSpec(senate_size=100, house_size=435, senate_quota=51, house_quota=218, "
     "senate_override=67, house_override=290, has_president=True, has_vp=True, "
     "senate_name='senate', house_name='house')"),
    (WeightingVector, ((2, 1, 2), 6), "WeightingVector(numerators=(2, 1, 2), denominator=6)"),
    (Relation, (Dominance.INCOMPARABLE, (3, 2)),
     "Relation(kind=<Dominance.INCOMPARABLE: 'incomparable'>, witness=(3, 2))"),
    (CertVerdict, (CertOutcome.CERTIFIED_GREATER, CertBasis.SEED_PAIR),
     "CertVerdict(outcome=<CertOutcome.CERTIFIED_GREATER: 'certified-greater'>, "
     "basis=<CertBasis.SEED_PAIR: 'seed-pair'>)"),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
class TestValueType:
    def test_equal_values_are_equal_and_hash_equal(self, cls, args, text):
        x, y = cls(*args), cls(*args)
        assert x is not y
        assert x == y and not x != y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_never_equal_to_another_class_with_the_same_values(self, cls, args, text):
        twin = type(cls.__name__, (FrozenValue,), {"__slots__": cls.__slots__})
        x = cls(*args)
        values = tuple(getattr(x, name) for name in cls.__slots__)
        y = twin(*values)
        assert repr(x) == repr(y)
        assert x != y and y != x
        assert x != values

    def test_fields_refuse_assignment_and_deletion(self, cls, args, text):
        x = cls(*args)
        for name in (*cls.__slots__, "extra"):
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(x, name, 1)
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(x, name)
        assert x == cls(*args)

    def test_repr_names_every_field(self, cls, args, text):
        assert repr(cls(*args)) == text

    def test_replace_with_every_field_unchanged_is_equal(self, cls, args, text):
        x = cls(*args)
        assert x.replace() == x
        assert x.replace(**{name: getattr(x, name) for name in cls.__slots__}) == x
        with pytest.raises(TypeError, match="has no field 'extra'"):
            x.replace(extra=1)

    def test_pickle_and_copy_round_trip(self, cls, args, text):
        x = cls(*args)
        assert pickle.loads(pickle.dumps(x)) == x
        assert copy.copy(x) == x and copy.deepcopy(x) == x


@pytest.mark.parametrize("make, message", [
    (lambda: ChamberSpec("", 3, 2), "chamber name must be nonempty"),
    (lambda: ChamberSpec("a", 0, 1), "chamber 'a': size must be >= 1, got 0"),
    (lambda: ChamberSpec("a", 3, 4), "chamber 'a': need 1 <= quota <= size, got quota=4, size=3"),
    (lambda: MulticamSpec(()), "a legislature needs at least one chamber"),
    (lambda: MulticamSpec([A, A]), "chamber names must be unique, got ['a', 'a']"),
    (lambda: UsSpec(house_size=0), "chamber sizes must be >= 1"),
    (lambda: UsSpec(house_name="senate"),
     "chamber names must be nonempty and unique, got ['senate', 'senate']"),
    (lambda: UsSpec(senate_name=""), "chamber names must be nonempty and unique, got ['', 'house']"),
    (lambda: UsSpec(senate_quota=101), "senate_quota must be in [1, 100], got 101"),
    (lambda: UsSpec(house_quota=0), "house_quota must be in [1, 435], got 0"),
    (lambda: UsSpec(senate_override=0), "senate_override must be in [1, 100], got 0"),
    (lambda: UsSpec(house_override=436), "house_override must be in [1, 435], got 436"),
    (lambda: WeightingVector((), 1), "a weighting vector needs at least one entry"),
    (lambda: WeightingVector((1,), 0), "the denominator must be positive, got 0"),
    (lambda: WeightingVector((-1, 1), 1), "weights must be nonnegative"),
    (lambda: WeightingVector((1, 1), 1), "weights do not normalise: sum is 2, expected 1"),
    (lambda: Relation(Dominance.EQUAL, (1, 2)),
     "witness is present exactly for INCOMPARABLE relations"),
    (lambda: Relation(Dominance.INCOMPARABLE), "witness is present exactly for INCOMPARABLE relations"),
    (lambda: A.replace(quota=4), "chamber 'a': need 1 <= quota <= size, got quota=4, size=3"),
    (lambda: UsSpec().replace(senate_quota=101), "senate_quota must be in [1, 100], got 101"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message


def test_constructors_normalise_before_comparing():
    assert MulticamSpec([A, B]) == MulticamSpec((A, B))
    assert isinstance(MulticamSpec([A, B]).chambers, tuple)
    w = WeightingVector([4, 2, 4], 12)
    assert w == WeightingVector((2, 1, 2), 6) and hash(w) == hash(WeightingVector((2, 1, 2), 6))
    assert w.numerators == (2, 1, 2) and w.denominator == 6


def test_us_defaults_give_the_537_player_system():
    spec = UsSpec()
    assert spec == UsSpec(100, 435, 51, 218, 67, 290, True, True, "senate", "house")
    assert spec.total_players == 537
    assert spec.class_ids() == ("president", "vice_president", "senator", "representative")


def test_replace_equals_building_fresh():
    spec = UsSpec()
    for quota in range(51, 101):
        assert spec.replace(senate_quota=quota) == UsSpec(senate_quota=quota)
    assert UsSpec(has_vp=False) == spec.replace(has_vp=False)
    assert A.replace(name="b", quota=3) == B.replace(size=3)
    assert MulticamSpec((A,)).replace(chambers=[B]) == MulticamSpec((B,))


def test_supermajority_scan_matches_fresh_specs():
    expected = []
    for quota in range(51, 101):
        fresh = UsSpec(senate_quota=quota)
        cp, cs, cr = (fresh.critical_vector(c) for c in ("president", "senator", "representative"))
        expected.append((quota, weak_desirability(cs, cr), weak_desirability(cp, cs)))
    assert supermajority_scan(UsSpec(), range(51, 101)) == expected
