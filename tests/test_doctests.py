"""Execute the library's docstring examples.

Every ``>>>`` example in a public docstring is part of the documented
contract; this module runs them all so the docs cannot drift from the
code.
"""

import doctest

import pytest

import repro.analysis.tables
import repro.core.amdahl
import repro.core.area
import repro.core.combos
import repro.core.heterogeneous
import repro.core.powerlaw
import repro.core.scaling
import repro.optimize.space
import repro.workloads.address_stream
import repro.workloads.commercial

_MODULES = [
    repro.core.area,
    repro.core.powerlaw,
    repro.core.scaling,
    repro.core.combos,
    repro.core.amdahl,
    repro.core.heterogeneous,
    repro.optimize.space,
    repro.analysis.tables,
    repro.workloads.address_stream,
    repro.workloads.commercial,
]


@pytest.mark.parametrize(
    "module", _MODULES, ids=[m.__name__ for m in _MODULES]
)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} failed"
    assert results.attempted > 0, f"{module.__name__} has no examples"
