"""Package errors: every class survives a pickle round trip, as a worker
process's error must to reach the caller with its type, and every
rejected input is a ``DomainError``."""

import inspect
import pickle

import pytest

from cropguard import errors
from cropguard.cli import ConfigError

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


def test_every_rejected_input_is_a_domain_error():
    # one type to catch, and the one type the CLI maps to exit 2
    for cls in (errors.NonFiniteError, errors.DegenerateParameterError, ConfigError):
        assert issubclass(cls, errors.DomainError)
    assert not issubclass(errors.BlowUpError, errors.DomainError)
