"""The mutant table in ``mutants.py`` still fits the code it mutates."""

import re

from mutants import MUTANTS, ROOT, SRC


def test_every_anchor_occurs_exactly_once():
    for mutant in MUTANTS:
        text = (SRC / "iotsim" / mutant.file).read_text()
        assert text.count(mutant.anchor) == 1, (mutant.name, mutant.anchor)
        assert mutant.replacement != mutant.anchor, mutant.name


def test_every_named_test_exists():
    for mutant in MUTANTS:
        assert mutant.tests, mutant.name
        for node in mutant.tests:
            path, _, name = node.partition("::")
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), (mutant.name, node)
