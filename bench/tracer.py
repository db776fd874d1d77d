"""Outside-in layer tracing for opinionshape.

Spans are recorded by wrapping module-level functions and methods at the
attribute the caller looks up (``from .dynamics import sample_poll_targets``
binds a name in the importing module, so each importing module is hooked
separately).  Nothing in the package is edited; ``Tracer.install`` swaps the
attributes and ``Tracer.uninstall`` puts the originals back.

A span's self time is its duration minus the time covered by the spans it
directly caused, which needs a stack of running spans.  Stats are kept in
memory per (scheme, span name) and summarised when the run ends.  Hooks bind
by name: a target that no longer exists is listed in ``missing`` instead of
failing, so renamed private boundaries show up as gaps in the report.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "opinionshape"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] | None = None


def _poll_draws(tracer, args, kwargs, result):
    cdf, pollers = args[0], args[1]
    tracer.count("dynamics.poll_draws", len(pollers))
    tracer.count("dynamics.compare_ops", len(pollers) * cdf.shape[1])


def _table_cells(tracer, args, kwargs, result):
    tracer.peak("sas.table_cells", args[0].size)


def _walks(tracer, args, kwargs, result):
    tracer.count("sgd.walks", len(result))
    tracer.count("sgd.useful_walks", int(np.count_nonzero(result.any(axis=1))))


def _hops(tracer, args, kwargs, result):
    tracer.count("partial_obs.hops", result.hops)
    tracer.count("partial_obs.tokens", 1)


def _p_bytes(tracer, args, kwargs, result):
    tracer.peak("network.P_bytes", args[0].P.nbytes)


def _csv_run(tracer, args, kwargs, result):
    tracer.count("harness.csv_rows", len(args[1].ks))
    tracer.count("harness.csv_bytes", Path(args[0]).stat().st_size)


def _csv_summary(tracer, args, kwargs, result):
    tracer.count("harness.csv_rows", len(args[1]))
    tracer.count("harness.csv_bytes", Path(args[0]).stat().st_size)


@dataclass(frozen=True)
class Hook:
    """One wrapped boundary: ``target`` is ``module:Attr.path`` in the package."""

    target: str
    name: str
    quantiles: bool = False
    on_return: object = None
    wraps_result: str | None = None


COARSE_HOOKS = (
    Hook("harness:build_instance", "harness.build_instance"),
    Hook("harness:run_scheme", "harness.run_scheme", quantiles=True),
    Hook("harness:write_run_csv", "harness.write_run_csv", on_return=_csv_run),
    Hook("harness:write_summary_csv", "harness.write_summary_csv", on_return=_csv_summary),
)

FINE_HOOKS = (
    Hook("harness:load_edge_list", "network.load_edge_list"),
    Hook("harness:random_partition", "network.random_partition"),
    Hook("network:InteractionGraph.poll_cdf", "network.poll_cdf", on_return=_p_bytes),
    Hook("network:AgentPartition.w_values", "network.w_values"),
    Hook("network:AgentPartition.w_derivs", "network.w_derivs"),
    Hook("sas:sample_poll_targets", "dynamics.sample_poll_targets", quantiles=True, on_return=_poll_draws),
    Hook("general:sample_poll_targets", "dynamics.sample_poll_targets", quantiles=True, on_return=_poll_draws),
    Hook("dynamics:payoff_coefficients", "dynamics.payoff_coefficients"),
    Hook("optim:payoff_coefficients", "dynamics.payoff_coefficients"),
    Hook("optim:payoff_fn", "dynamics.payoff_fn", wraps_result="dynamics.payoff"),
    Hook("sas:payoff_fn", "dynamics.payoff_fn", wraps_result="dynamics.payoff"),
    Hook("sgd:payoff_fn", "dynamics.payoff_fn", wraps_result="dynamics.payoff"),
    Hook("partial_obs:payoff_fn", "dynamics.payoff_fn", wraps_result="dynamics.payoff"),
    Hook("optim:project_budget_simplex", "optim.project_budget_simplex.optim"),
    Hook("sas:project_budget_simplex", "optim.project_budget_simplex.sas"),
    Hook("sgd:project_budget_simplex", "optim.project_budget_simplex.sgd"),
    Hook("partial_obs:project_budget_simplex", "optim.project_budget_simplex.partial_obs"),
    Hook("general:project_budget_simplex", "optim.project_budget_simplex.general"),
    Hook("harness:exact_optimum", "optim.exact_optimum"),
    Hook("sas:_tick_fast_updates", "sas._tick_fast_updates", quantiles=True, on_return=_table_cells),
    Hook("general:_tick_fast_updates", "sas._tick_fast_updates", quantiles=True, on_return=_table_cells),
    Hook("sgd:_walk_batch", "sgd._walk_batch", on_return=_walks),
    Hook("sgd:sgd_step", "sgd.sgd_step"),
    Hook("partial_obs:relay_token", "partial_obs.relay_token", on_return=_hops),
    Hook("partial_obs:partial_slow_update", "partial_obs.partial_slow_update"),
    Hook("general:general_payoff", "general.general_payoff"),
    Hook("general:general_reference_optimum", "general.general_reference_optimum"),
    Hook("general:known_p_updates", "general.known_p_updates"),
    Hook("general:annealed_slow_update", "general.annealed_slow_update"),
    Hook("general:GeneralModel.tables", "general.tables"),
)


class Tracer:
    """Span stack plus per-(scheme, span) stats and named counters."""

    def __init__(self):
        self.scheme = "-"
        self.stats: dict[str, dict[str, SpanStats]] = {}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def _record(self, name: str, duration: float, child: float, keep: bool) -> None:
        per_scheme = self.stats.setdefault(self.scheme, {})
        st = per_scheme.get(name)
        if st is None:
            st = per_scheme[name] = SpanStats(durations=[] if keep else None)
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child
        if keep:
            st.durations.append(duration)

    def traced(self, fn, name: str, keep: bool = False, on_return=None, wraps_result=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                self._record(name, duration, child, keep)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            if wraps_result is not None:
                result = self.traced(result, wraps_result)
            return result

        return wrapper

    def install(self, hooks) -> None:
        for hook in hooks:
            module_name, _, path = hook.target.partition(":")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{PACKAGE}.{module_name}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.traced(
                original, hook.name, hook.quantiles, hook.on_return, hook.wraps_result
            ))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def merged(self) -> dict[str, SpanStats]:
        """Stats per span name, summed over schemes."""
        out: dict[str, SpanStats] = {}
        for per_scheme in self.stats.values():
            for name, st in per_scheme.items():
                agg = out.setdefault(name, SpanStats(durations=[] if st.durations is not None else None))
                agg.calls += st.calls
                agg.total_s += st.total_s
                agg.self_s += st.self_s
                if st.durations is not None:
                    agg.durations.extend(st.durations)
        return out

    def total(self, names, schemes=None) -> float:
        """Inclusive time of the named spans, over the given schemes or all."""
        chosen = self.stats if schemes is None else schemes
        return sum(
            self.stats[s][n].total_s for s in chosen if s in self.stats for n in names if n in self.stats[s]
        )
