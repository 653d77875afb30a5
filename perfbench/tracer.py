"""Spans at the layer boundaries of mdmart, recorded from outside the package.

The tracer wraps the public functions of each mdmart module where another
module (or the benchmark) reaches them: ``from .x import f`` bindings and
``from . import x`` module references are swapped for wrappers, and the
benchmark calls the library through the proxies in ``Tracer.api``.  Calls a
module makes to its own helpers are not wrapped, except for the few stage
functions in ``STAGES`` that a per-layer metric needs to see.  Nor are the
module references in ``UNWRAPPED``: verify's remainder suite calls a scalar
``bounds`` check once per sample, a million times a run, and wrapping those
calls would time the wrapper rather than the check.  Their time counts in
the verify suite that makes them.

The per-step samplers (``simulate_terminal`` of every model class but
``RademacherModel``) and the Rademacher binomial shortcut, which draws each
terminal value at once, are timed apart.

Spans are aggregated as they close (calls, inclusive time and self time per
function, plus which span called the sampler), so memory stays flat however
many calls a pass makes.  Self time is a span's duration minus the spans it
directly encloses.
"""
from __future__ import annotations

import importlib
import inspect
import time
import types
from collections import Counter

LAYERS = ("cli", "models", "tilt", "bounds", "montecarlo", "coupling",
          "mixing", "verify")

# functions also wrapped inside their own module, because a per-layer metric
# is defined on them and their callers live in the same module
STAGES = {
    "montecarlo": ("estimate_tail_plain", "estimate_tail_tilted"),
    "mixing": ("simulate_block_sums", "berbee_mismatch_probability",
               "exact_block_sum_variance", "psi_bar_coefficient",
               "beta_coefficient", "certify_chain"),
    "verify": ("suite_remainder_inequalities", "suite_gaussian_sandwich",
               "suite_second_moment_vs_eps", "suite_drift_bound",
               "suite_cumulant_bound"),
}

# (module, the layer it references) pairs left unwrapped
UNWRAPPED = {("verify", "bounds")}

SAMPLER = "models.simulate_terminal"
SHORTCUT = "models.binomial_shortcut"
SHORTCUT_CLASS = "RademacherModel"
ESTIMATORS = ("montecarlo.estimate_tail_plain", "montecarlo.estimate_tail_tilted")
ORACLES = ("montecarlo.rademacher_exact_tail",
           "montecarlo.exact_tail_by_enumeration",
           "montecarlo.is_expectation_by_enumeration",
           "montecarlo.enumerate_terminal")
MIXING_EXACT = ("mixing.exact_block_sum_variance", "mixing.psi_bar_coefficient",
                "mixing.beta_coefficient", "mixing.certify_chain")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class _Proxy(types.ModuleType):
    """A stand-in module: wrapped public functions, everything else from the
    real module."""

    def __init__(self, real, wrapped):
        super().__init__(real.__name__)
        self._real = real
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"mdmart.{layer}")
                        for layer in LAYERS}
        self._wrappers = {}
        self._patches = []
        self.stats = {}
        self.reset()
        self.api = types.SimpleNamespace(**{
            layer: _Proxy(mod, {name: self._wrap(f"{layer}.{name}", fn)
                                for name, fn in _public_functions(mod)})
            for layer, mod in self.modules.items()})

    def reset(self):
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.sampler_callers = Counter()        # caller key -> sampler calls
        self.counts = Counter()
        self._stack = []                        # child time of each open span
        self._current = None                    # key of the innermost open span

    # -- wrapping --------------------------------------------------------

    def _wrap(self, key, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        st = self.stats.setdefault(key, [0, 0.0, 0.0])   # calls, incl, self
        hook = _HOOKS.get(key)
        is_sampler = key in (SAMPLER, SHORTCUT)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack
            caller = self._current
            self._current = key
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                self._current = caller
                if stack:
                    stack[-1] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
                if is_sampler:
                    self.sampler_callers[caller] += 1
            if hook is not None:
                hook(self.counts, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Swap every cross-module binding, stage function and sampler method
        for its wrapper.  Undo with ``uninstall``."""
        layer_of = {mod.__name__: layer for layer, mod in self.modules.items()}
        for layer, mod in self.modules.items():
            for name in STAGES.get(layer, ()):
                self._patch(mod, name, self._wrap(f"{layer}.{name}",
                                                  vars(mod)[name]))
            for name, obj in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if isinstance(obj, types.ModuleType) and obj.__name__ in layer_of:
                    if (obj is not mod and
                            (layer, layer_of[obj.__name__]) not in UNWRAPPED):
                        self._patch(mod, name, getattr(self.api,
                                                       layer_of[obj.__name__]))
                elif (inspect.isfunction(obj) and obj.__module__ in layer_of
                      and obj.__module__ != mod.__name__
                      and not obj.__name__.startswith("_")):
                    src = layer_of[obj.__module__]
                    self._patch(mod, name, self._wrap(f"{src}.{obj.__name__}", obj))
        models = self.modules["models"]
        for cls in vars(models).values():
            if (inspect.isclass(cls) and cls.__module__ == models.__name__
                    and "simulate_terminal" in vars(cls)):
                key = SHORTCUT if cls.__name__ == SHORTCUT_CLASS else SAMPLER
                self._patch(cls, "simulate_terminal",
                            self._wrap(key, vars(cls)["simulate_terminal"]))

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- reading ---------------------------------------------------------

    def incl(self, *keys):
        return sum(self.stats[k][1] for k in keys if k in self.stats)

    def self_time(self, keys):
        return sum(self.stats[k][2] for k in keys if k in self.stats)

    def calls(self, *keys):
        return sum(self.stats[k][0] for k in keys if k in self.stats)

    def layer_keys(self, layer):
        return [k for k in self.stats if k.startswith(layer + ".")]

    def layer_metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        c = self.counts
        sample_s = self.incl(SAMPLER)
        tilt_calls = self.calls("tilt.choose_tilt")
        paths = c["montecarlo.paths"]
        block_s = self.incl("mixing.simulate_block_sums")
        berbee_s = self.incl("mixing.berbee_mismatch_probability")
        coupling_s = self.self_time(self.layer_keys("coupling"))
        return {
            "models.sample_s": sample_s,
            "models.sample_steps": c["models.sample_steps"],
            "models.sample_ns_per_step": _per(sample_s * 1e9, c["models.sample_steps"]),
            "models.shortcut_s": self.incl(SHORTCUT),
            "models.shortcut_draws": c["models.shortcut_draws"],
            "models.certify_s": self.incl("models.certify", "models.verify_certificate"),
            "tilt.choose_tilt_s": self.incl("tilt.choose_tilt"),
            "tilt.fallback_frac": _per(c["tilt.fallbacks"], tilt_calls),
            "tilt.saddle_s": self.incl("tilt.solve_saddle_upper", "tilt.solve_saddle_lower"),
            "tilt.saddle_calls": self.calls("tilt.solve_saddle_upper", "tilt.solve_saddle_lower"),
            # the estimators' own time: montecarlo spans minus the sampler
            # and other layers they call; the exact oracles are reported apart
            "montecarlo.self_s": self.self_time(
                [k for k in self.layer_keys("montecarlo") if k not in ORACLES]),
            "montecarlo.paths": paths,
            "montecarlo.chunks": sum(self.sampler_callers[e] for e in ESTIMATORS),
            "montecarlo.ess_per_path": _per(c["montecarlo.ess"], paths),
            "montecarlo.oracle_s": self.self_time(ORACLES),
            "bounds.s": self.self_time(self.layer_keys("bounds")),
            "bounds.calls": self.calls(*self.layer_keys("bounds")),
            "coupling.s": coupling_s,
            "coupling.draws": c["coupling.draws"],
            "coupling.ns_per_draw": _per(coupling_s * 1e9, c["coupling.draws"]),
            "mixing.block_sum_s": block_s,
            "mixing.block_sum_steps": c["mixing.block_sum_steps"],
            "mixing.block_sum_ns_per_step": _per(block_s * 1e9, c["mixing.block_sum_steps"]),
            "mixing.berbee_s": berbee_s,
            "mixing.berbee_reps": c["mixing.berbee_reps"],
            "mixing.berbee_us_per_rep": _per(berbee_s * 1e6, c["mixing.berbee_reps"]),
            "mixing.exact_s": self.self_time(MIXING_EXACT),
            "verify.s": self.incl("verify.run_all"),
            "verify.remainder_s": self.incl("verify.suite_remainder_inequalities"),
            "verify.checks": c["verify.checks"],
            "cli.self_s": self.self_time(["cli.main"]),
        }


def _per(num, den):
    return num / den if den else 0.0


# -- count hooks: (counts, result, args, kwargs) ---------------------------

def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_sampler(c, result, args, kwargs):
    model, size = args[0], _arg(args, kwargs, 1, "size")
    c["models.sample_steps"] += size * model.n


def _count_shortcut(c, result, args, kwargs):
    c["models.shortcut_draws"] += _arg(args, kwargs, 1, "size")


def _count_estimate(c, result, args, kwargs):
    c["montecarlo.paths"] += result.n_samples
    c["montecarlo.ess"] += result.ess


def _count_tilt(c, result, args, kwargs):
    c["tilt.fallbacks"] += result.method == "fallback"


def _count_block_sums(c, result, args, kwargs):
    from mdmart.mixing import block_indices
    m, k, _ = block_indices(_arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "alpha"))
    c["mixing.block_sum_steps"] += len(result) * m * k


def _count_berbee(c, result, args, kwargs):
    c["mixing.berbee_reps"] += _arg(args, kwargs, 3, "reps")


def _count_coupling(c, result, args, kwargs):
    c["coupling.draws"] += result.budget


def _count_verify(c, result, args, kwargs):
    c["verify.checks"] += len(result)


_HOOKS = {
    SAMPLER: _count_sampler,
    SHORTCUT: _count_shortcut,
    "montecarlo.estimate_tail_plain": _count_estimate,
    "montecarlo.estimate_tail_tilted": _count_estimate,
    "tilt.choose_tilt": _count_tilt,
    "mixing.simulate_block_sums": _count_block_sums,
    "mixing.berbee_mismatch_probability": _count_berbee,
    "coupling.coupling_tail_report": _count_coupling,
    "verify.run_all": _count_verify,
}
