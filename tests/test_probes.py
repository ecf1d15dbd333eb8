"""Every name that the benchmark's tracer rebinds still exists.

`bench/tracing.py` skips a probe whose function was renamed or removed,
and that probe's metrics then read 0 in a benchmark run; this test names
such a probe instead.
"""

import importlib.util
import sys
from pathlib import Path

# Probed names that the program no longer has, waiting for the probe's
# removal from the benchmark.
EXPECTED_MISSING = {"entityqa.pipeline.score_candidates"}


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_probe_resolves():
    probes = _tracing().probes()
    missing = {f"{probe.owner.__name__}.{probe.attr}" for probe in probes
               if vars(probe.owner).get(probe.attr) is None}
    assert sorted(missing - EXPECTED_MISSING) == []
