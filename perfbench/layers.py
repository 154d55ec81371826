"""Per-layer metrics of a traced pass, named ``<module>.<function>.<field>``.

``calls``, ``s`` (total time) and ``self_s`` come from the tracer's
aggregates; the other fields come from solver counters read off return
values.  A ratio over zero calls reads 0; its ``calls`` metric says why.
"""

from __future__ import annotations

from dataclasses import asdict

# (name, unit, better); every traced run reports all of them, 0 where a
# layer is not reached on the workload.
PER_LAYER = (
    ("power_opt.solve_power.calls", "count", "lower"),
    ("power_opt.solve_power.self_s", "s", "lower"),
    ("power_opt.solve_power.sca_iters", "count", "lower"),
    ("power_opt.solve_power.converged_ratio", "ratio", "higher"),
    ("power_opt.solve_power.inner_kkt_max", "1", "lower"),
    ("power_opt.project_power_budget.calls", "count", "lower"),
    ("power_opt.project_power_budget.s", "s", "lower"),
    ("assoc_opt.solve_association.calls", "count", "lower"),
    ("assoc_opt.solve_association.s", "s", "lower"),
    ("assoc_opt.solve_association.nodes", "count", "lower"),
    ("assoc_opt.solve_association.proven_ratio", "ratio", "higher"),
    ("assoc_opt.rate_table.s", "s", "lower"),
    ("sensing_opt.solve_sensing.calls", "count", "lower"),
    ("sensing_opt.solve_sensing.s", "s", "lower"),
    ("sensing_opt.solve_sensing.kkt_residual_max", "1", "lower"),
    ("model.interference_map.calls", "count", "lower"),
    ("model.interference_map.s", "s", "lower"),
    ("model.check_constraints.calls", "count", "lower"),
    ("model.check_constraints.s", "s", "lower"),
    ("model.total_approx_throughput.calls", "count", "lower"),
    ("model.total_approx_throughput.s", "s", "lower"),
    ("alternating.solve_joint.calls", "count", "lower"),
    ("alternating.solve_joint.self_s", "s", "lower"),
    ("alternating.outer_iters", "count", "lower"),
    ("alternating.converged_ratio", "ratio", "higher"),
    ("alternating.default_initialization.s", "s", "lower"),
    ("scenario.generate_instance.calls", "count", "lower"),
    ("scenario.generate_instance.s", "s", "lower"),
    ("scenario.optimal_sensing_time.calls", "count", "lower"),
    ("scenario.optimal_sensing_time.self_s", "s", "lower"),
    ("scenario.evaluate_fixed_tau_throughput.calls", "count", "lower"),
    ("scenario.evaluate_fixed_tau_throughput.self_s", "s", "lower"),
    ("sensing.detection_probability.calls", "count", "lower"),
    ("sensing.detection_probability.s", "s", "lower"),
    ("sensing.interruption_probability.s", "s", "lower"),
    ("gaussian.q_inv.calls", "count", "lower"),
    ("gaussian.q_inv.s", "s", "lower"),
    ("failed_ratio", "ratio", "lower"),
    ("unconverged_ratio", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
)

_STAT_FIELDS = {"calls": "calls", "s": "total_s", "self_s": "self_s"}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(tracer, checked: dict, overhead: float) -> dict:
    """Every PER_LAYER metric as {name: {"value", "unit"}}."""
    c, stats = tracer.counters, tracer.stats
    power_calls = stats["power_opt.solve_power"].calls
    assoc_calls = stats["assoc_opt.solve_association"].calls
    joint_calls = stats["alternating.solve_joint"].calls
    derived = {
        "power_opt.solve_power.sca_iters": c["power_opt.solve_power.sca_iters"],
        "power_opt.solve_power.converged_ratio":
            _ratio(c["power_opt.solve_power.converged"], power_calls),
        "power_opt.solve_power.inner_kkt_max": c["power_opt.solve_power.inner_kkt_max"],
        "assoc_opt.solve_association.nodes": c["assoc_opt.solve_association.nodes"],
        "assoc_opt.solve_association.proven_ratio":
            _ratio(c["assoc_opt.solve_association.proven"], assoc_calls),
        "sensing_opt.solve_sensing.kkt_residual_max":
            c["sensing_opt.solve_sensing.kkt_residual_max"],
        "alternating.outer_iters": c["alternating.outer_iters"],
        "alternating.converged_ratio": _ratio(c["alternating.converged"], joint_calls),
        "failed_ratio": _ratio(checked["failed"], checked["attempted"]),
        "unconverged_ratio": _ratio(checked["unconverged"], checked["attempted"]),
        "trace_overhead": overhead,
    }
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            function, field = name.rsplit(".", 1)
            value = getattr(stats[function], _STAT_FIELDS[field])
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def trace_dump(tracer) -> dict:
    """Spans, aggregates and counters of a traced pass, for writing out."""
    return {"spans": [asdict(s) for s in tracer.spans],
            "aggregates": {name: asdict(s) for name, s in tracer.stats.items()},
            "counters": dict(tracer.counters)}
