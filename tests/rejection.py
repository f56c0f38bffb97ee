"""The one check of the library's rejection contract."""

import re

import pytest

from sodkit import ParseError, SodkitError


def whole(message):
    """A needle that matches message and nothing else."""
    return f"^{re.escape(message)}$"


def assert_rejected(call, error, needle):
    """call() raises exactly error, a SodkitError subclass, with a one-line
    message in which re.search finds needle. A ParseError's index is the
    entry its message starts with, or None."""
    assert issubclass(error, SodkitError)
    with pytest.raises(SodkitError) as info:
        call()
    message = str(info.value)
    assert type(info.value) is error
    assert message.splitlines() == [message] and re.search(needle, message), message
    if error is ParseError:
        entry = re.match(r"entry (\d+): ", message)
        assert info.value.index == (entry and int(entry[1]))
