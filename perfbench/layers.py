"""Per-layer metrics, computed from the spans of the traced passes.

Every metric is per pass (totals divided by the number of traced passes)
or a ratio of totals.  Cell, pair and byte counts are computed from the
call arguments, not measured: pairs x (q+1) cells for `pp_mu`, pairs x q^2
for `pp_direct`, the output size for `vmul`/`vadd`.  A layer the workload
does not touch reads 0.
"""

from __future__ import annotations

from tracing import BIPOLY_FUNCS, DIAGNOSTIC_FUNCS, SWEEPS, SpanTable

MB = 1 << 20

PER_LAYER: list[tuple[str, str]] = (
    [("ff.make_field.s", "s")]
    + [
        (f"ff.{op}.{kind}.{path}", unit)
        for op in ("vmul", "vadd")
        for path in ("dense", "logexp")
        for kind, unit in (("cells", "count"), ("ns_per_cell", "ns"))
    ]
    + [
        ("ff.dense_table_mb", "MiB"),
        ("ff.llc_mb", "MiB"),
        ("ff.Elem.mul.calls", "count"),
        ("ff.Elem.add.calls", "count"),
        ("engine.init.s", "s"),
        ("engine.pp_mu.cells", "count"),
        ("engine.pp_mu.ns_per_cell", "ns"),
        ("engine.pp_mu.share", "ratio"),
        ("engine.pp_direct.cells", "count"),
        ("engine.pp_direct.ns_per_cell", "ns"),
        ("engine.gcd_deg.ns_per_pair", "ns"),
        ("engine.conditions.ns_per_pair", "ns"),
        ("engine.classify_bulk.self_s", "s"),
        ("scan.sweep.self_s", "s"),
        ("scan.diagnostics.s", "s"),
        ("scan.to_csv_text.s", "s"),
        ("scan.to_csv_text.mb_per_s", "MiB/s"),
        ("scan.to_json_text.s", "s"),
        ("scan.to_json_text.mb_per_s", "MiB/s"),
        ("scan.emit_report.write_s", "s"),
        ("scan.report_from_json.s", "s"),
        ("scan.rows.bytes_computed", "B"),
        ("scan.threads2_speedup", "x"),
    ]
    + [(f"bipoly.{f}.{kind}", unit) for f in BIPOLY_FUNCS for kind, unit in (("calls", "count"), ("ms_per_call", "ms"))]
    + [
        ("perm.is_pp_mu.ms_per_call", "ms"),
        ("perm.is_pp_direct.ms_per_call", "ms"),
        ("conds.condition_report.ms_per_call", "ms"),
        ("conds.check_prima_bis.calls", "count"),
        ("upoly.poly_gcd.calls", "count"),
        ("upoly.resultant.ms_per_call", "ms"),
    ]
    + [(f"acceptance.crit_{k:02d}.s", "s") for k in range(1, 12)]
    + [
        ("cli.main.self_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "ratio"),
        ("trace.spans", "count"),
    ]
)

# The layer each metric belongs to is its first dotted component; the
# design notes (DESIGN.md) map each one to the end-to-end metric it moves.


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans,
    elem_calls: dict[str, int],
    passes: int,
    *,
    dense_table_mb: float,
    llc_mb: float,
    threads2_speedup: float,
    overhead_s: float,
    overhead_share: float,
) -> dict[str, float]:
    t = SpanTable(spans)
    per = 1.0 / passes

    def time(name):
        return t.time.get(name, 0.0)

    def work(name):
        return t.work.get(name, 0)

    def calls(name):
        return t.calls.get(name, 0)

    m: dict[str, float] = {"ff.make_field.s": time("ff.make_field") * per}
    for op in ("vmul", "vadd"):
        for path in ("dense", "logexp"):
            name = f"ff.{op}.{path}"
            m[f"ff.{op}.cells.{path}"] = work(name) * per
            m[f"ff.{op}.ns_per_cell.{path}"] = 1e9 * _ratio(time(name), work(name))
    m["ff.dense_table_mb"] = dense_table_mb
    m["ff.llc_mb"] = llc_mb
    m["ff.Elem.mul.calls"] = elem_calls["mul"] * per
    m["ff.Elem.add.calls"] = elem_calls["add"] * per

    m["engine.init.s"] = time("engine.init") * per
    m["engine.pp_mu.cells"] = work("engine.pp_mu") * per
    m["engine.pp_mu.ns_per_cell"] = 1e9 * _ratio(time("engine.pp_mu"), work("engine.pp_mu"))
    m["engine.pp_mu.share"] = _ratio(
        t.time_under({"engine.pp_mu"}, {"engine.classify_bulk"}), time("engine.classify_bulk")
    )
    m["engine.pp_direct.cells"] = work("engine.pp_direct") * per
    m["engine.pp_direct.ns_per_cell"] = 1e9 * _ratio(time("engine.pp_direct"), work("engine.pp_direct"))
    m["engine.gcd_deg.ns_per_pair"] = 1e9 * _ratio(time("engine.gcd_deg"), work("engine.gcd_deg"))
    m["engine.conditions.ns_per_pair"] = 1e9 * _ratio(time("engine.conditions"), work("engine.conditions"))
    m["engine.classify_bulk.self_s"] = t.self_total.get("engine.classify_bulk", 0.0) * per

    m["scan.sweep.self_s"] = sum(t.self_total.get(s, 0.0) for s in SWEEPS) * per
    m["scan.diagnostics.s"] = t.time_under({f"bipoly.{f}" for f in DIAGNOSTIC_FUNCS}, set(SWEEPS)) * per
    for fmt in ("csv", "json"):
        name = f"scan.to_{fmt}_text"
        m[f"{name}.s"] = time(name) * per
        m[f"{name}.mb_per_s"] = _ratio(work(name) / MB, time(name))
    m["scan.emit_report.write_s"] = t.self_total.get("scan.emit_report", 0.0) * per
    m["scan.report_from_json.s"] = time("scan.report_from_json") * per
    m["scan.rows.bytes_computed"] = sum(work(s) for s in SWEEPS) * per
    m["scan.threads2_speedup"] = threads2_speedup

    for f in BIPOLY_FUNCS:
        name = f"bipoly.{f}"
        m[f"{name}.calls"] = calls(name) * per
        m[f"{name}.ms_per_call"] = 1e3 * _ratio(time(name), calls(name))
    for name in ("perm.is_pp_mu", "perm.is_pp_direct", "conds.condition_report", "upoly.resultant"):
        m[f"{name}.ms_per_call"] = 1e3 * _ratio(time(name), calls(name))
    m["conds.check_prima_bis.calls"] = calls("conds.check_prima_bis") * per
    m["upoly.poly_gcd.calls"] = calls("upoly.poly_gcd") * per
    for k in range(1, 12):
        m[f"acceptance.crit_{k:02d}.s"] = time(f"acceptance.crit_{k:02d}") * per

    m["cli.main.self_s"] = t.self_total.get("cli.main", 0.0) * per
    m["trace.overhead_s"] = overhead_s
    m["trace.overhead_share"] = overhead_share
    m["trace.spans"] = len(spans) * per

    missing = {name for name, _ in PER_LAYER} ^ set(m)
    if missing:  # pragma: no cover - PER_LAYER and this function drifted
        raise RuntimeError(f"per-layer metric set mismatch: {sorted(missing)}")
    return m
