"""The benchmark's tracer looks the package's functions up by name, so a
rename breaks the benchmark run.  This loads the tracer as it stands and
installs it, so such a rename fails here first."""
import importlib.util
from pathlib import Path

from mdmart import mixing

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    real = mixing.simulate_block_sums
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer._patches
        assert mixing.simulate_block_sums is not real
    finally:
        tracer.uninstall()
    assert mixing.simulate_block_sums is real
