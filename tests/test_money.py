import pytest
from hypothesis import given, strategies as st

from thresholdgame.money import Money


def test_parse_and_format():
    assert Money.parse("5") == Money(500)
    assert Money.parse("5.0") == Money(500)
    assert Money.parse("2.50") == Money(250)
    assert Money.parse("0.01") == Money(1)
    assert str(Money(500)) == "5.00"
    assert Money(500).compact() == "5"
    assert Money(250).compact() == "2.50"


def test_parse_rejects_garbage():
    for bad in ("", "abc", "1.234", "--1", "1,5"):
        with pytest.raises(ValueError):
            Money.parse(bad)


@given(st.integers(min_value=0, max_value=10_000_00))
def test_string_roundtrip(cents):
    m = Money(cents)
    assert Money.parse(str(m)) == m


def test_arithmetic():
    a, b = Money.from_euros(5), Money.from_euros(2)
    assert a + b == Money.from_euros(7)
    assert a - b == Money.from_euros(3)
    assert 3 * b == Money.from_euros(6)
    assert a // Money.from_euros(1) == 5
    assert a.euros == 5.0


def test_ordering_and_multiples():
    assert Money(100) < Money(150) < Money(200)
    assert Money(500).is_multiple_of(Money(100))
    assert not Money(250).is_multiple_of(Money(100))


def test_cents_must_be_int():
    with pytest.raises(TypeError):
        Money(1.5)
