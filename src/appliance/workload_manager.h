#ifndef PDW_APPLIANCE_WORKLOAD_MANAGER_H_
#define PDW_APPLIANCE_WORKLOAD_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace pdw {

/// Workload-management resource class a query is admitted under. PDW maps
/// each session to a resource class that fixes its concurrency slot and
/// memory grant; here the class is derived per query from the optimizer's
/// modeled cost (kAuto) unless the session pins one explicitly.
enum class ResourceClass { kAuto, kSmall, kMedium, kLarge };

const char* ResourceClassName(ResourceClass rc);

/// Per-resource-class admission knobs.
struct WorkloadClassConfig {
  /// Queries of this class that may execute simultaneously.
  int concurrency_slots = 4;
  /// Bounded depth of the admission queue behind those slots. A query
  /// arriving when the queue is full fast-fails with kOverloaded instead
  /// of piling onto an already saturated appliance.
  int queue_depth = 16;
};

/// Full workload-manager configuration; WorkloadManager::SetConfig applies
/// a new one at runtime.
struct WorkloadManagerConfig {
  bool enabled = true;
  /// Modeled-cost (seconds) boundaries for kAuto classification:
  /// cost < medium_cost_threshold            -> small
  /// medium_cost_threshold <= cost < large.. -> medium
  /// cost >= large_cost_threshold            -> large
  double medium_cost_threshold = 0.05;
  double large_cost_threshold = 1.0;
  /// Defaults keep the appliance permissive: generous slots and queues,
  /// so single-user workloads behave exactly as without a workload
  /// manager. Deployments (and the storm bench) tighten these via
  /// SetConfig.
  WorkloadClassConfig small{/*concurrency_slots=*/16, /*queue_depth=*/64};
  WorkloadClassConfig medium{/*concurrency_slots=*/8, /*queue_depth=*/32};
  WorkloadClassConfig large{/*concurrency_slots=*/4, /*queue_depth=*/16};
};

/// Point-in-time view of one resource class for sys.dm_pdw_workload.
struct WorkloadClassSnapshot {
  ResourceClass resource_class = ResourceClass::kSmall;
  int concurrency_slots = 0;
  int active = 0;           ///< Slots currently held by executing queries.
  int queued = 0;           ///< Waiters in the admission queue right now.
  int queue_depth = 0;      ///< Configured queue capacity.
  uint64_t admitted_total = 0;
  uint64_t rejected_total = 0;   ///< Fast-failed with kOverloaded.
  uint64_t cancelled_total = 0;  ///< Cancelled while waiting in the queue.
  double queue_wait_seconds_total = 0;
  double cost_threshold = 0;  ///< Lower modeled-cost bound of this class.
};

/// The appliance's admission-control tier. Every query passes through
/// Admit() after compilation (classification needs the modeled cost);
/// admission grants a concurrency slot of the query's resource class or
/// queues the request FIFO-within-priority behind the slots. The returned
/// ticket releases the slot on destruction, promoting the next waiter.
///
/// Fairness: slot handoff is serialized through the waiter queue — a
/// releasing query hands its slot to exactly the front waiter (highest
/// priority, earliest arrival), and new arrivals go behind existing
/// waiters.
class WorkloadManager {
 public:
  /// RAII concurrency slot: releasing it (destruction or explicit
  /// Release()) returns the slot and promotes the next queued waiter.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept {
      Release();
      manager_ = other.manager_;
      resource_class_ = other.resource_class_;
      other.manager_ = nullptr;
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    void Release();
    bool held() const { return manager_ != nullptr; }
    ResourceClass resource_class() const { return resource_class_; }

   private:
    friend class WorkloadManager;
    Ticket(WorkloadManager* manager, ResourceClass rc)
        : manager_(manager), resource_class_(rc) {}

    WorkloadManager* manager_ = nullptr;
    ResourceClass resource_class_ = ResourceClass::kSmall;
  };

  explicit WorkloadManager(WorkloadManagerConfig config = {});

  /// Maps a modeled cost estimate (seconds) to a resource class using the
  /// configured thresholds. `requested` != kAuto pins the class directly.
  ResourceClass Classify(double modeled_cost, ResourceClass requested) const;

  /// Blocks until a concurrency slot of `rc` is granted (returning the
  /// RAII ticket), fails fast with kOverloaded when the class's queue is
  /// full, or fails with kCancelled when `cancel` flips while waiting.
  /// `queue_seconds`, if non-null, receives the time spent waiting.
  /// When the manager is disabled every call is an immediate pass-through
  /// ticket with no cap. The "wlm.admit" fault point fires before any slot
  /// or queue state is touched, so injected faults cannot leak either.
  Result<Ticket> Admit(ResourceClass rc, int priority,
                       const std::atomic<bool>* cancel = nullptr,
                       double* queue_seconds = nullptr);

  /// Wakes every queued waiter so it can re-check its cancellation token.
  void Poke();

  /// Per-class rows for sys.dm_pdw_workload (small, medium, large order).
  std::vector<WorkloadClassSnapshot> Snapshot() const;

  const WorkloadManagerConfig& config() const { return config_; }
  /// Swaps the configuration. Only safe while no queries are in flight
  /// (benches reconfigure between phases); slot counts reset, and a ticket
  /// still held across the swap releases into the new count, which never
  /// goes below zero.
  void SetConfig(WorkloadManagerConfig config);

 private:
  struct Waiter {
    int priority = 0;
    const std::atomic<bool>* cancel = nullptr;
    bool granted = false;
  };

  /// One resource class's held slots + FIFO-within-priority wait queue.
  /// Guarded by mu_.
  struct ClassState {
    /// Slots held by admitted queries; admission needs it below the
    /// class's concurrency_slots.
    int active = 0;
    /// Priority-desc, arrival order within equal priority.
    std::deque<std::shared_ptr<Waiter>> queue;
    uint64_t admitted_total = 0;
    uint64_t rejected_total = 0;
    uint64_t cancelled_total = 0;
    double queue_wait_seconds_total = 0;
  };

  ClassState& StateFor(ResourceClass rc);
  const ClassState& StateFor(ResourceClass rc) const;
  const WorkloadClassConfig& ConfigFor(ResourceClass rc) const;
  void ReleaseSlot(ResourceClass rc);

  WorkloadManagerConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unique_ptr<ClassState> small_;
  std::unique_ptr<ClassState> medium_;
  std::unique_ptr<ClassState> large_;
};

}  // namespace pdw

#endif  // PDW_APPLIANCE_WORKLOAD_MANAGER_H_
