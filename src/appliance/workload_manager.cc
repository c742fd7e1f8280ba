#include "appliance/workload_manager.h"

#include <algorithm>
#include <chrono>

#include "common/fault.h"
#include "obs/metrics.h"

namespace pdw {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* ResourceClassName(ResourceClass rc) {
  switch (rc) {
    case ResourceClass::kAuto:
      return "auto";
    case ResourceClass::kSmall:
      return "small";
    case ResourceClass::kMedium:
      return "medium";
    case ResourceClass::kLarge:
      return "large";
  }
  return "unknown";
}

void WorkloadManager::Ticket::Release() {
  if (manager_ == nullptr) return;
  manager_->ReleaseSlot(resource_class_);
  manager_ = nullptr;
}

WorkloadManager::WorkloadManager(WorkloadManagerConfig config)
    : config_(std::move(config)),
      small_(std::make_unique<ClassState>()),
      medium_(std::make_unique<ClassState>()),
      large_(std::make_unique<ClassState>()) {}

ResourceClass WorkloadManager::Classify(double modeled_cost,
                                        ResourceClass requested) const {
  if (requested != ResourceClass::kAuto) return requested;
  if (modeled_cost >= config_.large_cost_threshold) return ResourceClass::kLarge;
  if (modeled_cost >= config_.medium_cost_threshold)
    return ResourceClass::kMedium;
  return ResourceClass::kSmall;
}

WorkloadManager::ClassState& WorkloadManager::StateFor(ResourceClass rc) {
  switch (rc) {
    case ResourceClass::kMedium:
      return *medium_;
    case ResourceClass::kLarge:
      return *large_;
    default:
      return *small_;
  }
}

const WorkloadManager::ClassState& WorkloadManager::StateFor(
    ResourceClass rc) const {
  return const_cast<WorkloadManager*>(this)->StateFor(rc);
}

const WorkloadClassConfig& WorkloadManager::ConfigFor(ResourceClass rc) const {
  switch (rc) {
    case ResourceClass::kMedium:
      return config_.medium;
    case ResourceClass::kLarge:
      return config_.large;
    default:
      return config_.small;
  }
}

Result<WorkloadManager::Ticket> WorkloadManager::Admit(
    ResourceClass rc, int priority, const std::atomic<bool>* cancel,
    double* queue_seconds) {
  if (queue_seconds != nullptr) *queue_seconds = 0;
  // The fault point fires before any slot or queue state changes, so an
  // injected admission failure can never leak a slot or a queue entry.
  PDW_FAULT_POINT("wlm.admit");
  if (!config_.enabled) return Ticket();
  if (rc == ResourceClass::kAuto) rc = ResourceClass::kSmall;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const WorkloadClassConfig& cfg = ConfigFor(rc);
  double start = SteadySeconds();
  std::unique_lock<std::mutex> lock(mu_);
  ClassState& cls = StateFor(rc);

  // Fast path: no one is waiting and a slot is free. Skipping the queue is
  // only fair when the queue is empty — otherwise the newcomer would jump
  // ahead of earlier arrivals.
  if (cls.queue.empty() && cls.active < cfg.concurrency_slots) {
    ++cls.active;
    ++cls.admitted_total;
    reg.Count("wlm.admitted");
    reg.Observe("wlm.queue_wait.seconds", 0);
    return Ticket(this, rc);
  }

  if (static_cast<int>(cls.queue.size()) >= cfg.queue_depth) {
    ++cls.rejected_total;
    reg.Count("wlm.rejected");
    return Status::Overloaded(std::string("workload queue full for class ") +
                              ResourceClassName(rc));
  }

  // Queue FIFO-within-priority: behind every waiter of >= priority, ahead
  // of the first strictly lower one.
  auto waiter = std::make_shared<Waiter>();
  waiter->priority = priority;
  waiter->cancel = cancel;
  auto pos = std::find_if(cls.queue.begin(), cls.queue.end(),
                          [&](const std::shared_ptr<Waiter>& w) {
                            return w->priority < priority;
                          });
  cls.queue.insert(pos, waiter);

  cv_.wait(lock, [&] {
    return waiter->granted || (cancel != nullptr && cancel->load());
  });

  double waited = SteadySeconds() - start;
  if (queue_seconds != nullptr) *queue_seconds = waited;
  cls.queue_wait_seconds_total += waited;
  reg.Observe("wlm.queue_wait.seconds", waited);

  if (!waiter->granted) {
    // Cancelled while queued: remove the entry so it never blocks others.
    auto it = std::find(cls.queue.begin(), cls.queue.end(), waiter);
    if (it != cls.queue.end()) cls.queue.erase(it);
    ++cls.cancelled_total;
    reg.Count("wlm.cancelled");
    return Status::Cancelled("query cancelled while queued for admission");
  }
  // Granted: ReleaseSlot already took the slot on our behalf and removed
  // us from the queue.
  ++cls.admitted_total;
  reg.Count("wlm.admitted");
  return Ticket(this, rc);
}

void WorkloadManager::ReleaseSlot(ResourceClass rc) {
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ClassState& cls = StateFor(rc);
    // Saturates at zero: a ticket held across SetConfig releases into the
    // fresh class state.
    if (cls.active > 0) --cls.active;
    // Promote waiters in queue order while slots remain: each promoted
    // waiter gets the slot taken *for* it here, so a newcomer's fast path
    // can never steal it.
    const int slots = ConfigFor(rc).concurrency_slots;
    while (!cls.queue.empty() && cls.active < slots) {
      std::shared_ptr<Waiter> front = cls.queue.front();
      cls.queue.pop_front();
      if (front->cancel != nullptr && front->cancel->load()) {
        // Already cancelled: skip it and keep promoting.
        notify = true;  // Wake it so it can report kCancelled.
        continue;
      }
      ++cls.active;
      front->granted = true;
      notify = true;
      break;
    }
  }
  if (notify) cv_.notify_all();
}

void WorkloadManager::Poke() { cv_.notify_all(); }

std::vector<WorkloadClassSnapshot> WorkloadManager::Snapshot() const {
  std::vector<WorkloadClassSnapshot> out;
  std::lock_guard<std::mutex> lock(mu_);
  const ResourceClass classes[] = {ResourceClass::kSmall,
                                   ResourceClass::kMedium,
                                   ResourceClass::kLarge};
  const double thresholds[] = {0, config_.medium_cost_threshold,
                               config_.large_cost_threshold};
  for (int i = 0; i < 3; ++i) {
    const ClassState& cls = StateFor(classes[i]);
    const WorkloadClassConfig& cfg = ConfigFor(classes[i]);
    WorkloadClassSnapshot snap;
    snap.resource_class = classes[i];
    snap.concurrency_slots = cfg.concurrency_slots;
    snap.active = cls.active;
    snap.queued = static_cast<int>(cls.queue.size());
    snap.queue_depth = cfg.queue_depth;
    snap.admitted_total = cls.admitted_total;
    snap.rejected_total = cls.rejected_total;
    snap.cancelled_total = cls.cancelled_total;
    snap.queue_wait_seconds_total = cls.queue_wait_seconds_total;
    snap.cost_threshold = thresholds[i];
    out.push_back(snap);
  }
  return out;
}

void WorkloadManager::SetConfig(WorkloadManagerConfig config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = std::move(config);
  small_ = std::make_unique<ClassState>();
  medium_ = std::make_unique<ClassState>();
  large_ = std::make_unique<ClassState>();
}

}  // namespace pdw
