#ifndef PDW_APPLIANCE_DMV_H_
#define PDW_APPLIANCE_DMV_H_

#include "appliance/workload_manager.h"
#include "common/status.h"
#include "engine/local_engine.h"
#include "obs/request_registry.h"
#include "pdw/plan_cache.h"
#include "pdw/result_cache.h"

namespace pdw {

/// Registers the PDW-style dynamic management views on `engine` as virtual
/// tables, mirroring the DMVs an operator queries on the real appliance's
/// control node:
///
///  * sys.dm_pdw_exec_requests — one row per request the appliance has run
///    (or is running right now), from the always-on request registry;
///  * sys.dm_pdw_exec_steps    — one row per DSQL step of those requests,
///    with live rows/bytes-moved counters while a DMS move is in flight;
///  * sys.dm_pdw_dms_workers   — one row per DMS component (reader,
///    network, writer, bulkcopy) of every DMS step;
///  * sys.dm_pdw_metrics       — the global metrics registry: counters,
///    gauges, and histograms with mean/p50/p95/p99;
///  * sys.dm_pdw_plan_cache    — the control node's compiled-plan cache,
///    MRU first, with per-entry hit counts;
///  * sys.dm_pdw_workload      — one row per workload-manager resource
///    class: slots, live active/queued occupancy, queue capacity, fan-out
///    cap, and admitted/rejected/cancelled totals with cumulative wait;
///  * sys.dm_pdw_result_cache  — the control node's keyed result cache,
///    MRU first, with per-entry hit counts and invalidation anchors.
///
/// Every SELECT touching a view materializes a fresh point-in-time snapshot
/// (see LocalEngine::RegisterVirtualTable), so a DMV query issued from a
/// second session thread observes requests mid-execution — including ones
/// still waiting in an admission queue. All registries must outlive
/// `engine`'s use of the views; all are owned by the same Appliance in
/// practice.
Status InstallSystemViews(LocalEngine* engine,
                          const obs::RequestRegistry* requests,
                          const PlanCache* plan_cache,
                          const WorkloadManager* workload,
                          const ResultCache* result_cache);

}  // namespace pdw

#endif  // PDW_APPLIANCE_DMV_H_
