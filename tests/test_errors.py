"""Package errors: every class survives a pickle round trip, as a worker
process's error must to reach the caller with its type."""

import inspect
import pickle

import pytest

from cropguard import errors

_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.CropguardError)
]


def test_every_package_error_is_listed():
    assert {c.__name__ for c in _CLASSES} >= {
        "CropguardError", "DomainError", "NonFiniteError", "DegenerateParameterError",
        "GridMismatchError", "BlowUpError",
    }


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_round_trip_keeps_type_message_and_time(cls):
    exc = cls(3.5) if cls is errors.BlowUpError else cls("out of range")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert getattr(back, "t", None) == getattr(exc, "t", None)


def test_blow_up_with_its_own_message_round_trips():
    back = pickle.loads(pickle.dumps(errors.BlowUpError(2.0, "integration failed at t = 2")))
    assert (str(back), back.t) == ("integration failed at t = 2", 2.0)
