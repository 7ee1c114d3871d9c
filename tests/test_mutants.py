"""The mutation catalogue (tests/mutants.py) still fits the source: each
snippet occurs exactly once in its file, and each entry names tests."""

from pathlib import Path

import pytest

import obsnode
from mutants import CATALOGUE

SRC = Path(obsnode.__file__).parent


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    assert (SRC / mutant.file).read_text().count(mutant.snippet) == 1
    assert mutant.snippet != mutant.replacement and mutant.tests


def test_names_are_unique():
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)
