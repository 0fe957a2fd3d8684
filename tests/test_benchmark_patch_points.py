"""The names the benchmark harness patches must exist in the package.

`benchmarks/tracing.py` wraps package functions by (owner, attribute) and
`benchmarks/selftest.py` injects faults the same way; a rename in the
package would break every traced run without failing any other test.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402

import thermoga  # noqa: E402

SELFTEST_TARGETS = [(thermoga.ga, "init_population"), (thermoga.mcmc, "estimate_internal_energy")]


@pytest.mark.parametrize("owner, attr",
                         [(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
                         + SELFTEST_TARGETS)
def test_patch_point_resolves_to_a_callable(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
