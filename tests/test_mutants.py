"""The mutation gate's list keeps up with the code: a snippet that no
longer occurs exactly once fails here, not only when tests/mutants.py runs."""

from mutants import check_snippets


def test_every_mutant_snippet_occurs_exactly_once():
    assert check_snippets() == []
