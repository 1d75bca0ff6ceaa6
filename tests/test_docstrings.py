"""The ``>>>`` examples in the API docstrings run and pass."""

import doctest

import pytest

import repro.api.session
import repro.api.spec
import repro.apps.runtime


@pytest.mark.parametrize("module", (repro.api.spec, repro.api.session,
                                    repro.apps.runtime),
                         ids=lambda module: module.__name__)
def test_docstring_examples_pass(module):
    failed, attempted = doctest.testmod(module)
    assert attempted > 0
    assert failed == 0
