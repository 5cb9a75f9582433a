"""Per-layer metrics of the traced run, and what each should move.

BENCHMARK.json lists these metrics; its schema has no room for the
predictions, so they live here and the self-tests keep the two in step.
Times and counts are per operation (one cli.main call); ratios have
their base named in the comment beside them.
"""

# name -> (unit, better, [(end-to-end metric, workload), ...])
PER_LAYER = {
    "cli.self_ms": ("ms/op", "lower", [
        ("latency_p50_ms", "check-small"), ("ops_per_s", "check-small")]),
    "syntax.load_ms": ("ms/op", "lower", [
        ("latency_p50_ms", "check-small"), ("ops_per_s", "check-small")]),
    "syntax.eval_calls": ("count/op", "lower", [
        ("ops_per_s", "gfp-wide"), ("latency_p90_ms", "gfp-wide"),
        ("ops_per_s", "extended-deep"), ("latency_p90_ms", "extended-deep")]),
    "onetypes.enum_calls": ("count/op", "lower", [("ops_per_s", "gfp-wide")]),
    "onetypes.enum_ms": ("ms/op", "lower", [("ops_per_s", "gfp-wide")]),
    "witness.find_calls": ("count/op", "lower", [
        ("ops_per_s", "gfp-wide"), ("latency_p90_ms", "gfp-wide")]),
    "witness.find_ms": ("ms/op", "lower", [
        ("ops_per_s", "gfp-wide"), ("latency_p90_ms", "gfp-wide")]),
    # descriptors returned / find calls
    "witness.found_ratio": ("ratio", "higher", [
        ("ops_per_s", "gfp-wide"), ("latency_p90_ms", "gfp-wide")]),
    "witness.ext_find_calls": ("count/op", "lower", [
        ("ops_per_s", "extended-deep"), ("latency_p90_ms", "extended-deep")]),
    "witness.ext_find_ms": ("ms/op", "lower", [
        ("ops_per_s", "extended-deep"), ("latency_p90_ms", "extended-deep")]),
    # descriptors returned / extended find calls
    "witness.ext_found_ratio": ("ratio", "higher", [
        ("ops_per_s", "extended-deep"), ("latency_p90_ms", "extended-deep")]),
    # top-level matrix evaluations / (plain + extended find calls)
    "witness.evals_per_find": ("count", "lower", [
        ("ops_per_s", "gfp-wide"), ("ops_per_s", "extended-deep")]),
    "witness.check_calls": ("count/op", "lower", [
        ("latency_p50_ms", "check-small")]),
    "witness.check_ms": ("ms/op", "lower", [
        ("latency_p50_ms", "check-small")]),
    # find time / op time
    "witness.find_share": ("ratio", "lower", [("ops_per_s", "gfp-wide")]),
    # extended find time / op time
    "witness.ext_find_share": ("ratio", "lower", [
        ("ops_per_s", "extended-deep")]),
    "solver.solve_ms": ("ms/op", "lower", [("ops_per_s", "gfp-wide")]),
    "solver.self_ms": ("ms/op", "lower", [("ops_per_s", "gfp-wide")]),
    "solver.searches": ("count/op", "lower", [
        ("ops_per_s", "gfp-wide"), ("ops_per_s", "extended-deep"),
        ("peak_rss_mb", "gfp-wide")]),
    "solver.cache_hits": ("count/op", "higher", [
        ("ops_per_s", "gfp-wide"), ("ops_per_s", "extended-deep"),
        ("peak_rss_mb", "gfp-wide")]),
    # cache hits / (hits + searches)
    "solver.cache_hit_ratio": ("ratio", "higher", [
        ("ops_per_s", "gfp-wide"), ("ops_per_s", "extended-deep")]),
    "solver.rounds": ("count/op", "lower", [("latency_p90_ms", "gfp-wide")]),
    "solver.candidates": ("count/op", "lower", [
        ("latency_p90_ms", "gfp-wide")]),
    "solver.cert_check_ms": ("ms/op", "lower", [
        ("latency_p50_ms", "check-small")]),
    # SAT verdicts without a reference model / SAT verdicts
    "solver.unconfirmed_sat_ratio": ("ratio", "lower", [
        ("agree_ratio", "check-small"), ("agree_ratio", "verify")]),
    "structures.oracle_calls": ("count/op", "lower", [("ops_per_s", "verify")]),
    "structures.oracle_ms": ("ms/op", "lower", [
        ("ops_per_s", "verify"), ("latency_p50_ms", "verify"),
        ("latency_p90_ms", "verify")]),
    # models found / oracle calls
    "structures.oracle_model_ratio": ("ratio", "higher", [
        ("ops_per_s", "verify")]),
    # oracle time / op time
    "structures.oracle_share": ("ratio", "lower", [("ops_per_s", "verify")]),
    "structures.build_calls": ("count/op", "lower", [
        ("latency_p50_ms", "check-small")]),
    "structures.build_ms": ("ms/op", "lower", [
        ("latency_p50_ms", "check-small")]),
    # builds that ended in a gluing conflict / builds
    "structures.conflict_ratio": ("ratio", "lower", [
        ("latency_p50_ms", "check-small")]),
    "serialize.ms": ("ms/op", "lower", [("latency_p50_ms", "check-small")]),
    "serialize.bytes": ("B/op", "lower", [("latency_p50_ms", "check-small")]),
    # traced / untraced time of the same ops run side by side, minus one
    "trace.overhead_ratio": ("ratio", "lower", []),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced, checked):
    """Per-layer metrics from the traced worker result.

    `checked` holds the JSON-derived counters of the first pass.
    """
    t = traced["trace"]
    ops = traced["ops"]
    total, self_, calls, hits = t["total"], t["self"], t["calls"], t["hits"]

    def ms(seconds):
        return seconds * 1e3 / ops

    def per_op(name):
        return calls.get(name, 0) / ops

    finds = calls.get("witness.find", 0) + calls.get("witness.ext_find", 0)
    op_time = total["cli"]
    notes = checked["notes"]
    pool = len(notes)
    searches = sum(n.get("searches", 0) for n in notes)
    cache_hits = sum(n.get("cache_hits", 0) for n in notes)
    builds = calls.get("structures.build", 0)
    values = {
        "cli.self_ms": ms(self_["cli"]),
        "syntax.load_ms": ms(total.get("syntax.load", 0.0)),
        "syntax.eval_calls": per_op("syntax.eval"),
        "onetypes.enum_calls": per_op("onetypes.enum"),
        "onetypes.enum_ms": ms(total.get("onetypes.enum", 0.0)),
        "witness.find_calls": per_op("witness.find"),
        "witness.find_ms": ms(total.get("witness.find", 0.0)),
        "witness.found_ratio": _ratio(hits.get("witness.find", 0),
                                      calls.get("witness.find", 0)),
        "witness.ext_find_calls": per_op("witness.ext_find"),
        "witness.ext_find_ms": ms(total.get("witness.ext_find", 0.0)),
        "witness.ext_found_ratio": _ratio(hits.get("witness.ext_find", 0),
                                          calls.get("witness.ext_find", 0)),
        "witness.evals_per_find": _ratio(calls.get("syntax.eval", 0), finds),
        "witness.check_calls": per_op("witness.check"),
        "witness.check_ms": ms(total.get("witness.check", 0.0)),
        "witness.find_share": _ratio(total.get("witness.find", 0.0), op_time),
        "witness.ext_find_share": _ratio(total.get("witness.ext_find", 0.0),
                                         op_time),
        "solver.solve_ms": ms(total.get("solver.method", 0.0)),
        "solver.self_ms": ms(self_.get("solver.solve", 0.0)
                             + self_.get("solver.method", 0.0)),
        "solver.searches": searches / pool,
        "solver.cache_hits": cache_hits / pool,
        "solver.cache_hit_ratio": _ratio(cache_hits, cache_hits + searches),
        "solver.rounds": sum(n.get("rounds", 0) for n in notes) / pool,
        "solver.candidates": sum(n.get("candidates", 0) for n in notes) / pool,
        "solver.cert_check_ms": ms(total.get("solver.cert_check", 0.0)),
        "solver.unconfirmed_sat_ratio": _ratio(checked["unconfirmed"],
                                               checked["sat"]),
        "structures.oracle_calls": per_op("structures.oracle"),
        "structures.oracle_ms": ms(total.get("structures.oracle", 0.0)),
        "structures.oracle_model_ratio": _ratio(
            hits.get("structures.oracle", 0), calls.get("structures.oracle", 0)),
        "structures.oracle_share": _ratio(total.get("structures.oracle", 0.0),
                                          op_time),
        "structures.build_calls": per_op("structures.build"),
        "structures.build_ms": ms(total.get("structures.build", 0.0)),
        "structures.conflict_ratio": _ratio(
            builds - hits.get("structures.build", 0), builds),
        "serialize.ms": ms(self_.get("serialize", 0.0)),
        "serialize.bytes": checked["stdout_bytes"] / pool,
        "trace.overhead_ratio": sum(traced["latencies"])
        / sum(traced["untraced_latencies"]) - 1.0,
    }
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER}
