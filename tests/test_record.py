"""The frozen value records: binding, checks, immutability, value semantics and `replace`."""

import math
import re
from functools import cached_property

import pytest

from hgmorse.errors import InvalidParameter, NoBoundState
from hgmorse.potential import PotentialParams, q_of
from hgmorse.record import Record, replace
from hgmorse.relativistic import QuantumNumbers
from hgmorse.units import HBAR_C_EV_ANGSTROM, UnitConstants
from hgmorse.wavefun import SWaveform


class Pair(Record):
    """Two fields, the second with a default, and a cached derived value."""

    left: float
    right: float = 2.0

    @cached_property
    def total(self) -> float:
        return self.left + self.right


def test_fields_are_the_annotations_in_order():
    assert Pair._fields == ("left", "right")
    assert PotentialParams._fields == ("a", "b", "D_e", "r_e", "alpha")
    assert UnitConstants._fields == ("hbar_c", "cm_inv_to_ev", "amu_to_ev")


def test_binds_by_position_keyword_and_default():
    assert (Pair(1.0, 3.0).left, Pair(1.0, 3.0).right) == (1.0, 3.0)
    assert Pair(right=3.0, left=1.0) == Pair(1.0, 3.0)
    assert Pair(1.0).right == 2.0
    assert QuantumNumbers(4) == QuantumNumbers(n=4, l=0, D=3)
    assert UnitConstants().hbar_c == HBAR_C_EV_ANGSTROM
    assert UnitConstants(hbar_c=2.0) == UnitConstants(2.0)


@pytest.mark.parametrize("args,kwargs,message", [
    ((), {}, "missing fields ['left']"),
    ((), {"right": 1.0}, "missing fields ['left']"),
    ((1.0,), {"middle": 1.0}, "unexpected field 'middle'"),
    ((1.0,), {"left": 1.0}, "repeated field 'left'"),
    ((1.0, 2.0, 3.0), {}, "takes 2 fields but 3 were given"),
])
def test_rejects_a_missing_unexpected_repeated_or_extra_argument(args, kwargs, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        Pair(*args, **kwargs)


def test_post_init_checks_run_on_construction():
    with pytest.raises(InvalidParameter, match="a must be finite"):
        PotentialParams(math.inf, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameter, match="n and l must be >= 0"):
        QuantumNumbers(n=-1)
    with pytest.raises(NoBoundState, match="leading exponent"):
        SWaveform(0.0, 1.0, 0, 1.0)


def test_assignment_and_deletion_raise_attribute_error():
    p = PotentialParams(1.0, 2.0, 3.0, 1.1, 0.5)
    with pytest.raises(AttributeError, match="frozen PotentialParams"):
        p.a = 0.0
    with pytest.raises(AttributeError):
        p.q = 0.0
    with pytest.raises(AttributeError):
        p.extra = 0.0
    with pytest.raises(AttributeError):
        del p.a
    assert p.a == 1.0


def test_equality_hash_and_repr_follow_class_and_field_values():
    p = PotentialParams(1.0, 2.0, 3.0, 1.1, 0.5)
    same = PotentialParams(a=1.0, b=2.0, D_e=3.0, r_e=1.1, alpha=0.5)
    assert p == same and hash(p) == hash(same) and p is not same
    assert p != PotentialParams(1.0, 2.0, 3.0, 1.1, 0.6)
    assert len({p, same, QuantumNumbers(0)}) == 2
    # a record of another class with equal field values is not equal
    assert Pair(1.0, 2.0) != SWaveform(1.0, 2.0, 0, 1.0) and Pair(1.0, 2.0) != (1.0, 2.0)
    assert repr(p) == "PotentialParams(a=1.0, b=2.0, D_e=3.0, r_e=1.1, alpha=0.5)"
    assert repr(QuantumNumbers(2, 1)) == "QuantumNumbers(n=2, l=1, D=3)"
    assert repr(Pair(1.0)) == "Pair(left=1.0, right=2.0)"


def test_cached_property_caches_on_a_frozen_record():
    w = SWaveform(1.5, 2.0, 3, 0.5)
    jacobi = w.jacobi
    assert w.jacobi is jacobi
    assert (jacobi.theta, jacobi.vartheta, jacobi.n) == (3.0, 3.0, 3)
    pair = Pair(1.0)
    assert pair.total == 3.0 and "total" in vars(pair)
    # a cached value is not a field: it changes neither equality nor hash
    assert pair == Pair(1.0) and hash(pair) == hash(Pair(1.0))


def test_replace_builds_and_checks_the_copy_anew():
    p = PotentialParams(1.0, 2.0, 3.0, 1.1, 0.5)
    with pytest.raises(InvalidParameter, match="alpha must be > 0"):
        replace(p, alpha=0.0)
    copy = replace(p, alpha=0.7)
    assert copy == PotentialParams(1.0, 2.0, 3.0, 1.1, 0.7)
    assert copy.q == q_of(0.7, 1.1) != p.q
    assert replace(p) == p and replace(p) is not p
    assert replace(Pair(1.0), right=5.0) == Pair(1.0, 5.0)
    with pytest.raises(TypeError, match="unexpected field 'q'"):
        replace(p, q=1.0)
