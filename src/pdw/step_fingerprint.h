#ifndef PDW_PDW_STEP_FINGERPRINT_H_
#define PDW_PDW_STEP_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pdw/dsql.h"
#include "pdw/plan_cache.h"

namespace pdw {

/// Identity of one DSQL step for cross-query sub-plan sharing: two steps
/// with equal fingerprints materialize byte-identical temp tables, so a
/// concurrent query may consume the other's destination instead of
/// re-running the move (ROADMAP item 1; grounding: Multi Query
/// Optimization in GLADE).
///
/// The identity covers everything that determines the temp table's bytes:
///  * the step's SQL, canonicalized by stripping the per-execution
///    TEMP_ID_Q<qid>_ uniquifier (reusing the plan-cache idea that
///    normalized text is the key);
///  * input temp lineage — every temp-table reference inside the SQL is
///    substituted by the *fingerprint* of the step that produced it, so
///    matching chains through upstream steps regardless of how the two
///    plans numbered their temps (and cascades: if step 1 matches, step 2
///    reading its output can match too);
///  * the statistics versions of every base table the SQL scans (the same
///    TableVersionTracker anchoring plan- and result-cache invalidation),
///    so a load between two queries splits their fingerprints;
///  * the DMS movement kind, source/destination distribution properties,
///    hash-routing ordinals, and the destination schema;
///  * the local engine label plus the resolved PDW_WLM_SHARE knob,
///    fingerprinted like the other execution-affecting knobs — only
///    executions whose every byte-determining knob agrees may rendezvous.
struct StepFingerprint {
  /// Full canonical identity — the SharedStepRegistry key. The whole text
  /// (not a hash) is the key, so equal keys imply equal steps by
  /// construction; hash collisions cannot produce wrong sharing.
  std::string text;
  /// FNV-1a/64 digest of `text` in hex, for compact display in the
  /// sys.dm_pdw_shared_steps DMV and traces.
  std::string hex;

  /// False for Return steps (never shared — they assemble the client
  /// stream) and for steps whose lineage could not be resolved.
  bool shareable() const { return !text.empty(); }
};

/// FNV-1a/64 of `text`, rendered as 16 lowercase hex digits.
std::string FingerprintHex(const std::string& text);

/// Execution-context labels baked into every fingerprint.
struct StepFingerprintOptions {
  std::string engine_label;  ///< "row" | "batch" (per-node engine).
};

/// Computes one fingerprint per step of an already-uniquified DSQL plan
/// (temp names TEMP_ID_Q<query_id>_k, as ExecuteDsql sees them). Return
/// steps get a non-shareable placeholder. `versions` must be the
/// appliance's shared tracker so stats bumps split fingerprints exactly
/// when they invalidate cached plans.
std::vector<StepFingerprint> ComputeStepFingerprints(
    const DsqlPlan& plan, uint64_t query_id,
    const TableVersionTracker& versions, const StepFingerprintOptions& opts);

}  // namespace pdw

#endif  // PDW_PDW_STEP_FINGERPRINT_H_
