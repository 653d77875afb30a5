"""The benchmark's tracer looks the package's functions up by name, so a
rename breaks the benchmark run.  This loads the tracer as it stands and
installs it, so such a rename fails here first."""
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from mdmart import mixing
from mdmart.models import MartingaleModel, make_heavy_left, make_regime_switch

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs():
    real = mixing.simulate_block_sums
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert tracer._patches
        assert mixing.simulate_block_sums is not real
    finally:
        tracer.uninstall()
    assert mixing.simulate_block_sums is real


def test_block_sum_counter_reads_its_arguments():
    # the tracer's block-sum counter reads n and alpha from the call, by
    # position or keyword, and counts one entry of the result per path
    assert list(inspect.signature(mixing.simulate_block_sums).parameters) == [
        "chain", "n", "alpha", "budget", "seed"]
    tracer = load_tracer().Tracer()
    chain = mixing.two_state_chain(0.3, 0.3)
    try:
        tracer.install()
        sums = mixing.simulate_block_sums(chain, 200, 0.3, 100, 1)
        assert sums.shape == (100,)
        mixing.simulate_block_sums(chain, n=200, alpha=0.3, budget=50, seed=1)
    finally:
        tracer.uninstall()
    # n = 200, alpha = 0.3: m = 4 and k = 25, so m·k = 100 indices per path
    assert tracer.counts["mixing.block_sum_steps"] == 150 * 4 * 25


def test_sampler_counter_reads_its_arguments():
    # the tracer wraps MartingaleModel.simulate_terminal by name and counts
    # size * n steps per call, size read from the call by position or
    # keyword; the tilted estimator's integrated last draw goes through the
    # same method, with `past`
    assert list(inspect.signature(MartingaleModel.simulate_terminal).parameters)[:4] == [
        "self", "size", "rng", "lam"]
    tracer = load_tracer().Tracer()
    rs, hl = make_regime_switch(40, 0.3), make_heavy_left(30)
    try:
        tracer.install()
        rs.simulate_terminal(10, np.random.default_rng(0), 0.5)
        rs.simulate_terminal(size=20, rng=np.random.default_rng(0), lam=0.5, past=1.0)
        hl.simulate_terminal(5, np.random.default_rng(0), 0.5, past=1.0)
    finally:
        tracer.uninstall()
    assert tracer.calls("models.simulate_terminal") == 3
    assert tracer.counts["models.sample_steps"] == (10 + 20) * 40 + 5 * 30
