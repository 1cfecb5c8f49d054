"""The program's layers: what the traced run wraps, and what each layer
metric should move.

``TARGETS`` lists ``(layer, "module:function")`` pairs in install order.
Each layer's self time is the time spent in its functions minus the
time spent in nested calls of other wrapped functions.  ``WIRE`` spans
(blocking HTTP exchanges) are waits on another process, not a row.

``METRICS`` is the per-layer metric table of the traced run, with the
end-to-end metric each should move and the workload it shows on, so a
claim can be named as ``(metric, workload)``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.tracing import WIRE

_TRANSFORMS = {
    "extraction": ["extract_hotspot"],
    "fpga_mem": ["zero_copy_data_transfer"],
    "gpu_mem": ["employ_pinned_memory", "introduce_shared_mem_buffer",
                "employ_specialised_math"],
    "openmp": ["insert_parallel_for", "set_num_threads"],
    "remove_array_dep": ["remove_array_plus_equals"],
    "sp_math": ["employ_sp_math", "employ_sp_literals",
                "cast_double_loads", "demote_local_doubles"],
    "unroll": ["set_unroll_pragma", "unroll_fixed_loops", "fully_unroll"],
}

_ANALYSIS = {
    "access_pattern": ["analyze_access_pattern"],
    "data_movement": ["analyze_data_movement"],
    "dependence": ["analyze_loop_dependences", "analyze_dependences"],
    "hotspot": ["identify_hotspot_loops"],
    "intensity": ["analyze_intensity"],
    "pointer_alias": ["analyze_pointer_aliasing"],
    "trip_count": ["analyze_trip_counts", "static_trip_count"],
    "profile": ["collect_profile"],
}


def _expand(layer: str, package: str,
            table: Dict[str, List[str]]) -> List[Tuple[str, str]]:
    return [(layer, f"{package}.{module}:{fn}")
            for module, fns in table.items() for fn in fns]


#: install order matters once: ``serialize.decode`` wraps
#: ``result_from_dict`` everywhere, then ``client.decode`` re-wraps the
#: client's own reference so client-side decoding is its own row
TARGETS: List[Tuple[str, str]] = [
    ("meta.parse", "repro.meta.parser:parse"),
    ("meta.parse", "repro.meta.parser:parse_stmt"),
    ("meta.parse", "repro.meta.parser:parse_expr"),
    ("meta.parse", "repro.meta.lexer:tokenize"),
    ("meta.unparse", "repro.meta.unparse:unparse"),
    ("meta.unparse", "repro.meta.unparse:count_loc"),
    ("lang.exec", "repro.lang.engine:execute_unit"),
    ("lang.exec", "repro.lang.compiler:compile_unit"),
    ("lang.batch", "repro.lang.batch:BatchPlan.evaluate"),
    *_expand("analysis", "repro.analysis", _ANALYSIS),
    *_expand("transforms", "repro.transforms", _TRANSFORMS),
    ("flow.psa", "repro.flow.engine:FlowEngine.run"),
    ("flow.psa", "repro.flow.engine:FinalizeDesign.run"),
    ("flow.psa", "repro.flow.psa:InformedTargetSelection.select"),
    ("flow.psa", "repro.flow.psa:SelectAll.select"),
    ("flow.psa", "repro.flow.psa:SelectNamed.select"),
    ("flow.dse", "repro.flow.dse:UnrollUntilOvermapDSE.run"),
    ("flow.dse", "repro.flow.dse:BlocksizeDSE.run"),
    ("flow.dse", "repro.flow.dse:OmpThreadsDSE.run"),
    ("flow.dse", "repro.flow.sweep:unroll_sweep"),
    ("flow.dse", "repro.flow.sweep:blocksize_sweep"),
    ("flow.dse", "repro.flow.sweep:omp_sweep"),
    ("codegen", "repro.codegen.hip:generate_hip_design"),
    ("codegen", "repro.codegen.hip:render_hip_design"),
    ("codegen", "repro.codegen.oneapi:generate_oneapi_design"),
    ("codegen", "repro.codegen.oneapi:render_oneapi_design"),
    ("codegen", "repro.codegen.openmp:generate_openmp_design"),
    ("codegen", "repro.codegen.openmp:render_openmp_design"),
    ("toolchains", "repro.toolchains.dpcpp:DpcppToolchain.partial_compile"),
    ("toolchains",
     "repro.toolchains.dpcpp:DpcppToolchain.sweep_coefficients"),
    ("toolchains", "repro.toolchains.dpcpp:DpcppToolchain.full_compile"),
    ("toolchains", "repro.toolchains.gcc:GccToolchain.compile"),
    ("toolchains", "repro.toolchains.hipcc:HipccToolchain.compile"),
    ("platforms", "repro.platforms.gpu:GPUModel.occupancy"),
    ("platforms", "repro.platforms.gpu:GPUModel.occupancy_batch"),
    ("platforms", "repro.platforms.gpu:GPUModel.design_time"),
    ("platforms", "repro.platforms.gpu:GPUModel.design_time_batch"),
    ("platforms", "repro.platforms.cpu:CPUModel.reference_time"),
    ("platforms", "repro.platforms.cpu:CPUModel.omp_time"),
    ("platforms", "repro.platforms.cpu:CPUModel.omp_time_batch"),
    ("platforms", "repro.platforms.fpga:FPGAModel.design_time"),
    ("serialize.encode", "repro.flow.serialize:result_to_dict"),
    ("serialize.decode", "repro.flow.serialize:result_from_dict"),
    ("client.decode", "repro.client:result_from_dict"),
    ("cache.get", "repro.service.cache:ResultCache.get_entry"),
    ("cache.get", "repro.service.cache:ResultCache.get"),
    ("cache.get", "repro.fleet.peers:PeerFetchCache.get_entry"),
    ("cache.get", "repro.fleet.peers:PeerFetchCache.get"),
    ("cache.put", "repro.service.cache:ResultCache.put"),
    ("cache.put", "repro.service.cache:ResultCache.put_entry"),
    ("service", "repro.service.core:DesignService.submit"),
    ("service", "repro.service.core:DesignService.lookup"),
    ("server", "repro.server.core:ReproServer._handle_connection"),
    ("fleet", "repro.fleet.router:FleetRouter._handle_connection"),
    ("client", "repro.client:ReproClient._request"),
    (WIRE, "urllib.request:urlopen"),
]

#: classes whose ``_route`` result tags the request span
ROUTE_TAGS = ["repro.server.core:ReproServer",
              "repro.fleet.router:FleetRouter"]
#: routes that serve no workload request: probes and scrapes
BACKGROUND_ROUTES = ("healthz", "metrics", "obs_spans", "obs_summary",
                     "obs_profile", "obs_trace", "journal")

#: layer rows of the self-time table -> their ``*.self_ms`` metric
ROW_METRICS = {
    "meta.parse": "meta.parse.self_ms",
    "meta.unparse": "meta.unparse.self_ms",
    "lang.exec": "lang.exec.self_ms",
    "lang.batch": "lang.batch.self_ms",
    "analysis": "analysis.self_ms",
    "transforms": "transforms.self_ms",
    "flow.psa": "flow.psa.self_ms",
    "flow.dse": "flow.dse.self_ms",
    "codegen": "codegen.self_ms",
    "toolchains": "toolchains.self_ms",
    "platforms": "platforms.self_ms",
    "serialize.encode": "serialize.encode_ms",
    "serialize.decode": "serialize.decode_ms",
    "cache.get": "cache.get_ms",
    "cache.put": "cache.put_ms",
    "service": "service.self_ms",
    "server": "server.self_ms",
    "fleet": "fleet.self_ms",
    "client": "client.self_ms",
    "client.decode": "client.decode_ms",
    "other": "other.self_ms",
}

#: (metric, unit, better, moves end-to-end metric, on workload)
METRICS: List[Tuple[str, str, str, str, str]] = [
    ("startup.import_s", "s", "lower", "setup_s", "all"),
    ("startup.boot_s", "s", "lower", "setup_s", "all"),
    ("meta.parse.self_ms", "ms", "lower", "flow_p50_ms", "design_cold"),
    ("meta.unparse.self_ms", "ms", "lower", "flow_p50_ms", "design_cold"),
    ("meta.parse.calls", "count", "lower", "flow_p50_ms", "design_cold"),
    ("lang.exec.self_ms", "ms", "lower", "flow_p50_ms flows_per_s",
     "design_cold"),
    ("lang.exec.calls", "count", "lower", "flow_p50_ms", "design_cold"),
    ("lang.exec.fallbacks", "count", "lower", "flow_p50_ms", "design_cold"),
    ("lang.batch.self_ms", "ms", "lower", "flow_p50_ms flows_per_s",
     "design_cold"),
    ("analysis.self_ms", "ms", "lower", "flow_p50_ms", "design_cold"),
    ("analysis.profile.hit_ratio", "ratio", "higher", "flow_p50_ms",
     "design_cold"),
    ("transforms.self_ms", "ms", "lower", "flow_p50_ms", "design_cold"),
    ("transforms.calls", "count", "lower", "flow_p50_ms", "design_cold"),
    ("flow.psa.self_ms", "ms", "lower", "flow_p50_ms", "design_cold"),
    ("flow.dse.self_ms", "ms", "lower", "flow_p50_ms", "design_cold"),
    ("flow.dse.points", "count", "lower", "flow_p50_ms", "design_cold"),
    ("codegen.self_ms", "ms", "lower", "flow_p50_ms", "design_cold"),
    ("toolchains.self_ms", "ms", "lower", "flow_p50_ms", "design_cold"),
    ("platforms.self_ms", "ms", "lower", "flow_p50_ms", "design_cold"),
    ("serialize.encode_ms", "ms", "lower", "warm_p50_ms", "serve_warm"),
    ("serialize.decode_ms", "ms", "lower", "warm_p50_ms", "serve_warm"),
    ("serialize.result_bytes", "bytes", "lower", "warm_p50_ms",
     "serve_warm"),
    ("cache.get_ms", "ms", "lower", "warm_p50_ms", "serve_warm"),
    ("cache.put_ms", "ms", "lower", "flow_p50_ms", "design_cold"),
    ("cache.hit_ratio", "ratio", "higher", "warm_p50_ms", "serve_warm"),
    ("service.self_ms", "ms", "lower", "flow_p90_ms", "fleet_mixed"),
    ("service.queue_wait_ms", "ms", "lower", "flow_p90_ms", "fleet_mixed"),
    ("service.dedup_joins", "count", "higher", "flow_p90_ms",
     "fleet_mixed"),
    ("server.self_ms", "ms", "lower", "warm_p50_ms warm_rps",
     "serve_warm"),
    ("http.healthz_ms", "ms", "lower", "warm_p50_ms", "serve_warm"),
    ("http.server_ms", "ms", "lower", "warm_p50_ms warm_rps",
     "serve_warm"),
    ("http.requests_per_job", "count", "lower", "warm_rps", "serve_warm"),
    ("http.refused", "count", "lower", "warm_rps", "serve_warm"),
    ("client.self_ms", "ms", "lower", "warm_p50_ms", "serve_warm"),
    ("client.decode_ms", "ms", "lower", "warm_p50_ms", "serve_warm"),
    ("client.retries", "count", "lower", "warm_p90_ms", "serve_warm"),
    ("fleet.self_ms", "ms", "lower", "warm_p50_ms flow_p90_ms",
     "fleet_mixed"),
    ("fleet.hop_ms", "ms", "lower", "warm_p50_ms", "fleet_mixed"),
    ("fleet.steals", "count", "lower", "flow_p90_ms", "fleet_mixed"),
    ("fleet.reroutes", "count", "lower", "flow_p90_ms", "fleet_mixed"),
    ("fleet.peer_fetches", "count", "lower", "flow_p90_ms", "fleet_mixed"),
    ("fleet.journal_records", "count", "lower", "flow_p90_ms",
     "fleet_mixed"),
    ("fleet.journal_fsyncs", "count", "lower", "flow_p90_ms",
     "fleet_mixed"),
    ("loadgen.lateness_ms", "ms", "lower", "flow_p90_ms", "fleet_mixed"),
    ("obs.trace_overhead_ratio", "ratio", "lower", "none", "all"),
    ("other.self_ms", "ms", "lower", "none", "all"),
    ("trace.wall_ms", "ms", "lower", "none", "all"),
]
