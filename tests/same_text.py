"""Test helper: compare two whole file texts without pytest's assertion diff."""

from itertools import zip_longest

import pytest


def assert_same_text(actual: str, expected: str) -> None:
    """Fail at the first line where actual and expected differ, quoting both.

    The texts are compared as a bool, so a mismatch on thousands of lines
    fails at once; pytest's line diff of two such texts can take minutes.
    """
    if actual == expected:
        return
    lines = zip_longest(actual.splitlines(keepends=True), expected.splitlines(keepends=True))
    lineno, (got, want) = next((i, pair) for i, pair in enumerate(lines, 1) if pair[0] != pair[1])
    pytest.fail(f"texts differ first at line {lineno}: got {got!r}, expected {want!r}")
