"""Networks of nonsignaling boxes wired by per-party decision trees.

Exact rational probability tables, executable consistency checks, the
induced joint distribution of a wired network, extremal decompositions,
and tripartite nonlocality inequalities with a machine-checked derivation
chain.

``import boxnet`` loads no submodule (and so not numpy): each read of a
public name below is served from its module (PEP 562), which is imported
on first use, as is each submodule read as an attribute, e.g.
``boxnet.decompose``.  Nothing is cached here, so a name always reads as
its module's current object.
"""

import importlib

_HOMES = {
    "decompose": "Infeasible LocalityResult Mixture VertexSet decompose_extremal "
                 "excise_local_deterministic expand_to_extremal_mixture "
                 "factor_out_shared_randomness is_local local_deterministic_vertices "
                 "ns_vertices_222",
    "ghz": "FloatBehavior MeasurementSetting QuantumStrategy SearchResult ghz_behavior "
           "search_max_violation",
    "inequality": "ChainReport ChainStep CorrelatorTerm Evaluation InequalityError "
                  "LinearInequality cao_inequality cao_s14_linearized "
                  "chao_reichardt_correlator chao_reichardt_probability_form correlator "
                  "deterministic_behaviors evaluate evaluate_cao_s14 mao_inequality "
                  "verify_derivation_chain",
    "network": "JointDistribution Network NetworkError check_disjoint_factorization "
               "induced_behavior joint_distribution joint_probability "
               "marginal_without_party relabel_network union_network",
    "resource": "Alphabet NonsignalingResource SignalingError SignalingWitness TableError "
                "ValidationReport ZeroConditioningError check_subset_nonsignaling condition "
                "frac make_local_deterministic make_pr_box make_shared_randomness marginal "
                "validate_nonsignaling",
    "wiring": "DecisionTree Internal PathTrace Terminal trace_path validate_tree",
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names.split()}
_SUBMODULES = {*_HOMES, "linprog"}

__version__ = "0.1.0"
__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
