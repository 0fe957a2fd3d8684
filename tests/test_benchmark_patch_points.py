"""The names the benchmark harness patches must exist in the package.

`benchmarks/tracing.py` wraps package functions by (owner, attribute) and
`benchmarks/selftest.py` injects faults the same way; a rename in the
package would break every traced run without failing any other test.
`benchmarks/setup_probe.py` calls public names directly, and each of its
runs is one `setup_s` sample, so it must run clean on every workload.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import common  # noqa: E402
import tracing  # noqa: E402

import thermoga  # noqa: E402

SELFTEST_TARGETS = [(thermoga.ga, "init_population"), (thermoga.mcmc, "estimate_internal_energy")]


@pytest.mark.parametrize("owner, attr",
                         [(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
                         + SELFTEST_TARGETS)
def test_patch_point_resolves_to_a_callable(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("workload", [w["name"] for w in common.load_spec()["workloads"]])
def test_setup_probe_runs(workload):
    proc = subprocess.run([sys.executable, "benchmarks/setup_probe.py", workload, "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
