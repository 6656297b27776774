"""Contact traces: model, parsers, synthetic generators, mobility models.

Re-exports load lazily (PEP 562): the trace *model* and parsers are pure
python, but analysis/synthesis/mobility are numpy-backed.  Importing this
package -- which :mod:`repro.dtn.simulator` does for ``ContactTrace`` --
touches only the submodules a caller actually names, which keeps
``import repro.dtn`` and the service's start-up light.
"""

import importlib

#: re-exported name -> defining submodule
_EXPORTS = {
    "ExponentialFit": "analysis",
    "exponential_fit_report": "analysis",
    "fit_pair_exponential": "analysis",
    "intercontact_ccdf": "analysis",
    "rate_heterogeneity": "analysis",
    "ChurnModel": "churn",
    "apply_churn": "churn",
    "GATEWAY_STRATEGIES": "graph",
    "contact_graph": "graph",
    "graph_summary": "graph",
    "select_gateways_betweenness": "graph",
    "select_gateways_degree": "graph",
    "select_gateways_random": "graph",
    "ContactRecord": "model",
    "ContactTrace": "model",
    "bootstrap_trace": "transforms",
    "subsample_nodes": "transforms",
    "time_scale": "transforms",
    "TraceParseError": "parser",
    "load_trace": "parser",
    "parse_csv": "parser",
    "parse_imote": "parser",
    "parse_one_events": "parser",
    "write_csv": "parser",
    "SyntheticTraceSpec": "synthetic",
    "cambridge06_like": "synthetic",
    "gateway_uplink_contacts": "synthetic",
    "generate_trace": "synthetic",
    "mit_reality_like": "synthetic",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value  # cache: subsequent access skips this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
