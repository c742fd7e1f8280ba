#include "obs/request_registry.h"

#include <algorithm>
#include <chrono>

namespace pdw::obs {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* RequestPhaseName(RequestPhase phase) {
  switch (phase) {
    case RequestPhase::kQueued:
      return "queued";
    case RequestPhase::kCompiling:
      return "compiling";
    case RequestPhase::kAdmitted:
      return "admitted";
    case RequestPhase::kExecuting:
      return "executing";
    case RequestPhase::kComplete:
      return "complete";
    case RequestPhase::kFailed:
      return "failed";
    case RequestPhase::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

bool IsTerminalPhase(RequestPhase phase) {
  return phase == RequestPhase::kComplete || phase == RequestPhase::kFailed ||
         phase == RequestPhase::kCancelled;
}

int RequestState::TotalRetries() const {
  int total = 0;
  for (const RequestStepState& s : steps) total += s.profile.retries;
  return total;
}

double RequestState::RowsMoved() const {
  double total = 0;
  for (const RequestStepState& s : steps) total += s.profile.actual_rows;
  return total;
}

double RequestState::BytesMoved() const {
  double total = 0;
  for (const RequestStepState& s : steps) total += s.profile.network.bytes;
  return total;
}

RequestRegistry::RequestRegistry(size_t ring_capacity)
    : epoch_(SteadySeconds()),
      ring_capacity_(std::max<size_t>(1, ring_capacity)) {}

double RequestRegistry::NowSeconds() const { return SteadySeconds() - epoch_; }

void RequestRegistry::Register(uint64_t query_id, uint64_t session_id,
                               std::string sql) {
  double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  RequestState& r = active_[query_id];
  r.query_id = query_id;
  r.session_id = session_id;
  r.sql = std::move(sql);
  r.phase = RequestPhase::kQueued;
  r.submit_seconds = now;
}

void RequestRegistry::BeginCompile(uint64_t query_id) {
  double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  it->second.phase = RequestPhase::kCompiling;
  it->second.compile_start_seconds = now;
}

void RequestRegistry::EndCompile(uint64_t query_id, bool cache_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  it->second.cache_hit = cache_hit;
}

void RequestRegistry::SetCompileInfo(uint64_t query_id,
                                     std::vector<PhaseProfile> phases,
                                     const OptimizerProfile& optimizer) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  it->second.compile_phases = std::move(phases);
  it->second.optimizer = optimizer;
}

void RequestRegistry::BeginQueue(uint64_t query_id,
                                 std::string resource_class) {
  double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  it->second.phase = RequestPhase::kQueued;
  it->second.resource_class = std::move(resource_class);
  it->second.queue_start_seconds = now;
}

void RequestRegistry::Admit(uint64_t query_id) {
  double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  it->second.phase = RequestPhase::kAdmitted;
  it->second.admit_seconds = now;
}

void RequestRegistry::MarkResultCacheHit(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  it->second.result_cache_hit = true;
}

void RequestRegistry::BeginExecute(uint64_t query_id,
                                   std::vector<StepProfile> steps) {
  double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  RequestState& r = it->second;
  r.phase = RequestPhase::kExecuting;
  r.exec_start_seconds = now;
  r.steps.clear();
  for (StepProfile& step : steps) r.steps.push_back({std::move(step)});
  r.total_steps = static_cast<int>(r.steps.size());
}

void RequestRegistry::BeginStep(uint64_t query_id,
                                const StepProfile& attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  RequestState& r = it->second;
  int index = attempt.index;
  if (index < 0 || index >= static_cast<int>(r.steps.size())) return;
  r.steps[static_cast<size_t>(index)] = {attempt, "running"};
  r.current_step = index;
}

void RequestRegistry::StepProgress(uint64_t query_id, int step_index,
                                   double rows_delta, double bytes_delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  RequestState& r = it->second;
  if (step_index < 0 || step_index >= static_cast<int>(r.steps.size())) return;
  StepProfile& p = r.steps[static_cast<size_t>(step_index)].profile;
  p.actual_rows += rows_delta;
  p.network.bytes += bytes_delta;
}

void RequestRegistry::EndStep(uint64_t query_id,
                              const StepProfile& final_profile) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  RequestState& r = it->second;
  int index = final_profile.index;
  if (index < 0 || index >= static_cast<int>(r.steps.size())) return;
  r.steps[static_cast<size_t>(index)] = {final_profile, "complete"};
}

void RequestRegistry::Retire(uint64_t query_id, RequestPhase phase,
                             std::string error) {
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  RequestState r = std::move(it->second);
  active_.erase(it);
  r.phase = phase;
  r.end_seconds = NowSeconds();
  r.error = std::move(error);
  if (phase == RequestPhase::kFailed || phase == RequestPhase::kCancelled) {
    // The step that was running when the request died is the failed one.
    for (RequestStepState& s : r.steps) {
      if (s.status == "running") s.status = "failed";
    }
  }
  finished_.push_back(std::move(r));
  EvictLocked();
}

void RequestRegistry::Complete(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Retire(query_id, RequestPhase::kComplete, "");
}

void RequestRegistry::Fail(uint64_t query_id, std::string error) {
  std::lock_guard<std::mutex> lock(mu_);
  Retire(query_id, RequestPhase::kFailed, std::move(error));
}

void RequestRegistry::Cancel(uint64_t query_id, std::string error) {
  std::lock_guard<std::mutex> lock(mu_);
  Retire(query_id, RequestPhase::kCancelled, std::move(error));
}

std::vector<RequestState> RequestRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RequestState> out;
  out.reserve(active_.size() + finished_.size());
  for (const auto& [id, r] : active_) out.push_back(r);
  std::vector<const RequestState*> done;
  done.reserve(finished_.size());
  for (const RequestState& r : finished_) done.push_back(&r);
  std::sort(done.begin(), done.end(),
            [](const RequestState* a, const RequestState* b) {
              return a->query_id < b->query_id;
            });
  for (const RequestState* r : done) out.push_back(*r);
  return out;
}

size_t RequestRegistry::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

size_t RequestRegistry::finished_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_.size();
}

size_t RequestRegistry::ring_capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_capacity_;
}

void RequestRegistry::set_ring_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_capacity_ = std::max<size_t>(1, capacity);
  EvictLocked();
}

void RequestRegistry::EvictLocked() {
  while (finished_.size() > ring_capacity_) finished_.pop_front();
}

void RequestRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  active_.clear();
  finished_.clear();
}

}  // namespace pdw::obs
