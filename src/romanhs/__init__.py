"""Roman hitting structures on hypergraphs: minimality checks, extension
solvers, polynomial-delay enumeration of minimal Roman hitting sets, exact
and greedy optimization, and the web of reductions between the graph and
hypergraph variants.

Importing the package imports none of its modules: each public name is
imported from its module on first use (PEP 562), so a program pays only for
the modules it uses."""

from importlib import import_module

# the public names, by the module that defines them
_MODULES = {
    "characterize": (
        "brute_minimal_po_rdf", "brute_minimal_rdf", "brute_minimal_rhf",
        "brute_minimal_rhs", "is_minimal_rdf_theorem", "is_minimal_rhf_theorem",
        "is_minimal_rhs_theorem", "is_po_minimal_rdf_theorem",
        "minimal_rdf_violation", "minimal_rhf_violation",
        "minimal_rhs_violation", "po_minimal_rdf_violation",
    ),
    "core": (
        "BoundedRdInstance", "Correspondence", "Graph", "GraphFile",
        "Hypergraph", "HypergraphFile", "RhsPair", "RomanAssignment",
        "closed_neighborhood_hypergraph", "edge_hypergraph", "incidence",
        "is_rdf", "is_rhf", "is_rhs", "parse_graph_text",
        "parse_hypergraph_text", "serialize_graph_file",
        "serialize_hypergraph_file", "weight_assignment", "weight_pair",
    ),
    "enumeration": (
        "EnumerationStats", "brute_enumerate_minimal_rhf",
        "brute_enumerate_minimal_rhs", "enumerate_minimal_rhs", "gen_random",
        "gen_tight", "iter_minimal_rhs", "minimal_pair_for_r2",
    ),
    "errors": ("GuardRefused", "InputError"),
    "extend": (
        "ExtAnswer", "bounded_ext_rd", "ext_ds_split", "ext_rhf_general",
        "ext_rhf_surjective", "ext_rhs", "is_minimal_dominating_set",
        "promote_closure",
    ),
    "optimize": (
        "OptResult", "exact_min_rhf", "exact_min_rhs", "greedy_rhf",
        "greedy_rhs", "incidence_hypergraph", "rec_min", "rvc_decide",
        "rvc_enumerate",
    ),
    "reduce": (
        "ReductionOutput", "ds_split_to_rhs", "hrd_to_rd_two_section",
        "is_hypergraph_rdf", "rd_to_rhf", "rhf_to_rd_gadget", "rhf_to_rhs",
        "rhs_to_rhf", "split_hypergraph", "two_section", "vc_to_rvc",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _MODULES:
        # a module of the package, reachable as an attribute, as when the
        # package imported them all
        return import_module(f"{__name__}.{name}")
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
