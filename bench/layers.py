"""Per-layer metrics, all derived from the spans of a traced run.

Each row: metric name, the workload whose ops produce it (its home), the
span it reads, how it is derived, its unit, and the end-to-end metrics it
should move (see RATIONALE.md). Names are
``<module>.<function>[.<case>].<stat>``; the layer is the module.
"""

from __future__ import annotations

from cli_oneshot import SUBCOMMANDS

QI, RQ, CLI, ALL = "qi-certify", "ray-queries", "cli-oneshot", "all"

# stat: us / ms = self time per unit of n; rate = n per second of self
# time; ratio = k / n; mean_n / mean_k = per call; per_pass = n per pass
# of the home workload; ms_total = mean whole-span time per call
LAYERS = [
    ("quasi.sample_plane_pairs.us_per_pair", QI, "quasi.sample_plane_pairs", "us", "us", "ops_per_s"),
    ("quasi.check_embedding.floor.us_per_pair", QI, "quasi.check_embedding.floor", "us", "us", "ops_per_s, op_p50_ms"),
    ("quasi.check_embedding.floor.violations_per_pair", QI, "quasi.check_embedding.floor", "ratio", "ratio", "none; stays exactly equal"),
    ("quasi.check_embedding.inclusion_small_k2.us_per_pair", QI, "quasi.check_embedding.inclusion_small_k2", "us", "us", "ops_per_s"),
    ("quasi.check_embedding.inclusion_large_k2.us_per_pair", QI, "quasi.check_embedding.inclusion_large_k2", "us", "us", "op_p90_ms"),
    ("quasi.check_embedding.genset.us_per_pair", QI, "quasi.check_embedding.genset", "us", "us", "op_p90_ms"),
    ("quasi.floor_chain_holds.us_per_pair", QI, "quasi.floor_chain_holds", "us", "us", "ops_per_s"),
    ("quasi.roundtrip_displacement.us_per_point", QI, "quasi.roundtrip_displacement", "us", "us", "ops_per_s"),
    ("quasi.quasi_surjectivity_bound.us_per_target", QI, "quasi.quasi_surjectivity_bound", "us", "us", "ops_per_s"),
    ("quasi.find_violation.pairs_scanned", QI, "quasi.find_violation", "mean_n", "count", "op_p50_ms"),
    ("quasi.find_violation.us_per_pair", QI, "quasi.find_violation", "us", "us", "op_p50_ms"),
    ("quasi.pairs_checked", QI, "quasi.check_embedding.", "per_pass", "count", "none; stays exactly equal"),
    ("lattice.GeneratingSet.us_per_call", QI, "lattice.GeneratingSet", "us", "us", "op_p90_ms, peak_rss_mb"),
    ("lattice.bfs_metric.us_per_call", QI, "lattice.bfs_metric", "us", "us", "op_p90_ms, peak_rss_mb"),
    ("lattice.bfs_distances.nodes_per_s", QI, "lattice.bfs_distances", "rate", "1/s", "op_p90_ms, peak_rss_mb"),
    ("lattice.generating_set_lipschitz.us_per_call", QI, "lattice.generating_set_lipschitz", "us", "us", "op_p90_ms, peak_rss_mb"),
    ("rays.parse_ray.us_per_call", RQ, "rays.parse_ray", "us", "us", "op_p50_ms"),
    ("rays.validate.us_per_call", RQ, "rays.validate", "us", "us", "op_p50_ms"),
    ("rays.n_map.us_per_call", RQ, "rays.n_map", "us", "us", "op_p50_ms"),
    ("rays.digitize.rational.us_per_call", RQ, "rays.digitize.rational", "us", "us", "op_p50_ms"),
    ("rays.point_at.sturmian_far.us_per_step", RQ, "rays.point_at.sturmian_far", "us", "us", "ops_per_s, op_p90_ms, peak_rss_mb"),
    ("rays.point_at.periodic_far.us_per_step", RQ, "rays.point_at.periodic_far", "us", "us", "ops_per_s, op_p90_ms, peak_rss_mb"),
    ("rays.points.prefix_reuse.us_per_step", RQ, "rays.points.prefix_reuse", "us", "us", "ops_per_s, op_p90_ms, peak_rss_mb"),
    ("rays.are_asymptotic.periodic.us_per_call", RQ, "rays.are_asymptotic.periodic", "us", "us", "op_p90_ms, peak_rss_mb"),
    ("rays.are_asymptotic.sturmian.ms_per_call", RQ, "rays.are_asymptotic.sturmian", "ms", "ms", "op_p90_ms, peak_rss_mb"),
    ("rays.are_asymptotic.divergent.ms_per_call", RQ, "rays.are_asymptotic.divergent", "ms", "ms", "op_p90_ms, peak_rss_mb"),
    ("rays.are_asymptotic.divergent.witness_t", RQ, "rays.are_asymptotic.divergent", "mean_k", "count", "op_p90_ms, peak_rss_mb"),
    ("rays.divergence_time.us_per_step", RQ, "rays.divergence_time", "us", "us", "op_p50_ms"),
    ("rays.splice.us_per_call", RQ, "rays.splice", "us", "us", "op_p50_ms"),
    ("rays.ball_contains.us_per_call", RQ, "rays.ball_contains", "us", "us", "op_p50_ms"),
    ("rays.trivial_topology_demo.ms_per_call", RQ, "rays.trivial_topology_demo", "ms", "ms", "op_p50_ms"),
    ("exactnum.sqrt_exact.us_per_call", RQ, "exactnum.sqrt_exact", "us", "us", "setup_s, op_p50_ms"),
    ("ell1.parse_polyline.us_per_call", RQ, "ell1.parse_polyline", "us", "us", "op_p50_ms"),
    ("ell1.project_to_lattice.us_per_call", RQ, "ell1.project_to_lattice", "us", "us", "op_p50_ms"),
    ("ell1.splice_plane.us_per_call", RQ, "ell1.splice_plane", "us", "us", "op_p50_ms"),
    ("ell1.check_monotone_commitment.us_per_call", RQ, "ell1.check_monotone_commitment", "us", "us", "op_p50_ms"),
    ("demos.demo_cardinality.us_per_call", CLI, "demos.demo_cardinality", "us", "us", "op_p50_ms"),
    ("demos.demo_cone.us_per_call", CLI, "demos.demo_cone", "us", "us", "op_p50_ms"),
    ("svgfig.Scene.write.us_per_call", CLI, "svgfig.Scene.write", "us", "us", "op_p50_ms"),
    ("svgfig.bytes", CLI, "svgfig.Scene.write", "mean_k", "bytes", "op_p50_ms"),
    ("cli.import_ms", ALL, "cli.import", "ms_total", "ms", "op_p50_ms on cli-oneshot; setup_s everywhere"),
] + [
    (f"cli.main.{sub.replace(' ', '-')}.ms", CLI, f"cli.main.{sub.replace(' ', '-')}", "ms", "ms",
     "op_p50_ms, op_p90_ms")
    for sub in SUBCOMMANDS
] + [
    ("cli.process_overhead_ms", CLI, "cli.", "overhead", "ms", "op_p50_ms, op_p90_ms"),
    ("cli.output_bytes", CLI, "cli.process.", "mean_n", "bytes", "op_p50_ms, op_p90_ms"),
]


def _sum_rows(totals: dict, key: str) -> list:
    """Totals of one span name, or of every name under a prefix ending in '.'."""
    rows = [v for name, v in totals.items()
            if name == key or (key.endswith(".") and name.startswith(key))]
    return [sum(col) for col in zip(*rows)] if rows else [0.0, 0.0, 0, 0, 0]


def derive(totals: dict, passes: dict) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every layer metric the spans support."""
    out = {}
    for name, home, key, stat, unit, _ in LAYERS:
        self_s, total_s, n, k, calls = _sum_rows(totals, key)
        if stat == "overhead":
            proc, main = _sum_rows(totals, "cli.process."), _sum_rows(totals, "cli.main.")
            if proc[4] and main[4]:
                out[name] = ((proc[1] / proc[4] - main[1] / main[4]) * 1e3, unit)
            continue
        if not calls:
            continue
        value = {
            "us": lambda: self_s / n * 1e6,
            "ms": lambda: self_s / n * 1e3,
            "rate": lambda: n / self_s,
            "ratio": lambda: k / n,
            "mean_n": lambda: n / calls,
            "mean_k": lambda: k / calls,
            "per_pass": lambda: n / passes[home],
            "ms_total": lambda: total_s / calls * 1e3,
        }[stat]()
        out[name] = (value, unit)
    return out
