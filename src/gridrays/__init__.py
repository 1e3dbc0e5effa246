"""Exact geometry of the grid: word metrics, geodesic-ray digit codes,
boundary-value maps, splice constructions, and quasi-isometry certificates.

Public names resolve on first use (PEP 562), so ``import gridrays`` loads
no submodule and ``from gridrays import X`` loads only X's home module.
"""

from importlib import import_module

__version__ = "1.0.0"

#: home module -> the public names it defines
_HOMES = {
    "exactnum": "Surd sqrt_exact exact_sign",
    "lattice": "GeneratingSet GenerationError BallExceeded word_metric "
               "bfs_metric geodesic_count enumerate_geodesics is_geodesic_word "
               "generating_set_lipschitz standard_generators",
    "rays": "RayCode InvalidRay QuadrantMismatch BallQuery Enclosure "
            "Asymptotic Divergent parse_ray periodic_ray east_ray axis_ray "
            "validate b_map n_map digitize direction_of are_asymptotic "
            "divergence_time splice ball_contains trivial_topology_demo",
    "quasi": "QIParams QIReport FloorMap InclusionMap GensetMap floor_map "
             "check_embedding find_violation roundtrip_displacement "
             "quasi_surjectivity_bound floor_chain_holds",
    "ell1": "Polyline parse_polyline ell1_distance is_geodesic_polyline "
            "check_monotone_commitment splice_plane project_to_lattice",
    "demos": "cone_lengths demo_cone demo_cardinality demo_trivial_topology",
}
_HOME = {name: module for module, names in _HOMES.items()
         for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
