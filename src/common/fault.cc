#include "common/fault.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/string_util.h"

namespace pdw::fault {

namespace {

/// The canonical injection-point list — one name per distributed boundary.
/// Adding a FAULT_POINT site means adding its name here; the chaos
/// coverage test then requires the site to actually be reachable.
const char* const kFaultPointNames[] = {
    "appliance.step.dispatch",  ///< Per-node step SQL dispatch.
    "appliance.temp.create",    ///< Destination temp-table creation.
    "appliance.temp.drop",      ///< End-of-query temp-table drop.
    "dms.pack",                 ///< Reader: pack rows into wire bytes.
    "dms.queue_push",           ///< Hand a packed batch to its destination.
    "dms.network",              ///< Cross-node buffer transfer.
    "dms.unpack",               ///< Writer: decode wire bytes into rows.
    "dms.bulkcopy",             ///< Insert into destination temp storage.
    "plan_cache.fill",          ///< Control-node plan-cache insertion.
    "pool.task_start",          ///< Worker-pool task startup.
    "wlm.admit",                ///< Workload-manager admission decision.
};

std::vector<std::string> SplitSpecs(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == ',' || c == ';') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

std::atomic<bool> FaultRegistry::armed_flag_{false};

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransientError:
      return "transient";
    case FaultKind::kPermanentError:
      return "permanent";
    case FaultKind::kDelay:
      return "delay";
  }
  return "unknown";
}

std::string FaultSpec::ToString() const {
  std::string out = point + ":";
  out += query == 0 ? "*" : std::to_string(query);
  out += ":";
  out += count < 0 ? "*" : std::to_string(count);
  out += ":";
  out += FaultKindToString(kind);
  if (kind == FaultKind::kDelay) {
    out += "@" + StringFormat("%g", delay_seconds);
  }
  return out;
}

std::string FaultScheduleToString(const FaultSchedule& schedule) {
  std::string out;
  for (const FaultSpec& spec : schedule) {
    if (!out.empty()) out += ",";
    out += spec.ToString();
  }
  return out;
}

Result<FaultSchedule> ParseFaultSchedule(const std::string& text) {
  FaultSchedule schedule;
  for (const std::string& raw : SplitSpecs(text)) {
    std::vector<std::string> fields;
    std::string cur;
    for (char c : raw) {
      if (c == ':') {
        fields.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    fields.push_back(cur);
    if (fields.size() != 4) {
      return Status::InvalidArgument(
          "fault spec must be point:query#:count:kind, got '" + raw + "'");
    }
    FaultSpec spec;
    spec.point = fields[0];
    if (!FaultRegistry::IsKnownPoint(spec.point)) {
      return Status::InvalidArgument("unknown fault point '" + spec.point +
                                     "' in '" + raw + "'");
    }
    if (fields[1] == "*") {
      spec.query = 0;
    } else {
      char* end = nullptr;
      // strtoull silently wraps negative input, so reject any sign here.
      unsigned long long q =
          std::isdigit(static_cast<unsigned char>(fields[1][0]))
              ? std::strtoull(fields[1].c_str(), &end, 10)
              : 0;
      if (end == nullptr || end == fields[1].c_str() || *end != '\0' ||
          q == 0) {
        return Status::InvalidArgument(
            "fault query# must be a positive integer or '*', got '" +
            fields[1] + "'");
      }
      spec.query = static_cast<uint64_t>(q);
    }
    if (fields[2] == "*") {
      spec.count = -1;
    } else {
      char* end = nullptr;
      long c = std::strtol(fields[2].c_str(), &end, 10);
      if (end == fields[2].c_str() || *end != '\0' || c <= 0) {
        return Status::InvalidArgument(
            "fault count must be a positive integer or '*', got '" +
            fields[2] + "'");
      }
      spec.count = static_cast<int>(c);
    }
    const std::string& kind = fields[3];
    if (kind == "transient") {
      spec.kind = FaultKind::kTransientError;
    } else if (kind == "permanent") {
      spec.kind = FaultKind::kPermanentError;
    } else if (kind == "delay" || kind.rfind("delay@", 0) == 0) {
      spec.kind = FaultKind::kDelay;
      if (kind != "delay") {
        char* end = nullptr;
        double seconds = std::strtod(kind.c_str() + 6, &end);
        if (end == kind.c_str() + 6 || *end != '\0' || seconds < 0) {
          return Status::InvalidArgument("bad delay duration in '" + raw +
                                         "'");
        }
        spec.delay_seconds = seconds;
      }
    } else {
      return Status::InvalidArgument(
          "fault kind must be transient|permanent|delay[@seconds], got '" +
          kind + "'");
    }
    schedule.push_back(std::move(spec));
  }
  return schedule;
}

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = [] {
    auto* reg = new FaultRegistry();
    if (const char* env = std::getenv("PDW_FAULTS")) {
      auto parsed = ParseFaultSchedule(env);
      if (parsed.ok()) {
        reg->Arm(std::move(*parsed));
      } else {
        std::fprintf(stderr, "PDW_FAULTS ignored: %s\n",
                     parsed.status().ToString().c_str());
      }
    }
    return reg;
  }();
  return *registry;
}

const std::vector<std::string>& FaultRegistry::AllPoints() {
  static const auto* points = [] {
    auto* v = new std::vector<std::string>();
    for (const char* name : kFaultPointNames) v->emplace_back(name);
    return v;
  }();
  return *points;
}

bool FaultRegistry::IsKnownPoint(const std::string& point) {
  for (const std::string& name : AllPoints()) {
    if (name == point) return true;
  }
  return false;
}

uint64_t FaultRegistry::Arm(FaultSchedule schedule) {
  std::lock_guard<std::mutex> lock(mu_);
  ArmedSchedule armed;
  armed.token = next_token_++;
  armed.base_serial = query_serial_.load(std::memory_order_relaxed);
  armed.remaining.reserve(schedule.size());
  for (const FaultSpec& spec : schedule) armed.remaining.push_back(spec.count);
  armed.specs = std::move(schedule);
  armed_.push_back(std::move(armed));
  armed_flag_.store(true, std::memory_order_relaxed);
  return armed_.back().token;
}

void FaultRegistry::Disarm(uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < armed_.size(); ++i) {
    if (armed_[i].token == token) {
      armed_.erase(armed_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (armed_.empty()) armed_flag_.store(false, std::memory_order_relaxed);
}

uint64_t FaultRegistry::BeginQuery() {
  return query_serial_.fetch_add(1, std::memory_order_relaxed) + 1;
}

Status FaultRegistry::Check(const char* point) {
  FaultSpec fired;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++hits_[point];
    uint64_t serial = query_serial_.load(std::memory_order_relaxed);
    for (ArmedSchedule& schedule : armed_) {
      for (size_t i = 0; i < schedule.specs.size(); ++i) {
        const FaultSpec& spec = schedule.specs[i];
        if (spec.point != point) continue;
        if (spec.query != 0 && schedule.base_serial + spec.query != serial) {
          continue;
        }
        int& remaining = schedule.remaining[i];
        if (remaining == 0) continue;
        if (remaining > 0) --remaining;
        fired = spec;
        found = true;
        ++injected_[point];
        break;
      }
      if (found) break;
    }
  }
  if (!found) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    if (hook_) hook_(fired.point, fired.kind);
  }
  switch (fired.kind) {
    case FaultKind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(fired.delay_seconds));
      return Status::OK();
    case FaultKind::kTransientError:
      return Status::Transient(std::string("injected transient fault at ") +
                               point);
    case FaultKind::kPermanentError:
      return Status::ExecutionError(
          std::string("injected permanent fault at ") + point);
  }
  return Status::OK();
}

uint64_t FaultRegistry::HitCount(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(point);
  return it == hits_.end() ? 0 : it->second;
}

uint64_t FaultRegistry::InjectedCount(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = injected_.find(point);
  return it == injected_.end() ? 0 : it->second;
}

std::map<std::string, uint64_t> FaultRegistry::HitCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

void FaultRegistry::SetMetricsHook(
    std::function<void(const std::string&, FaultKind)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  hook_ = std::move(hook);
}

void FaultRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.clear();
  hits_.clear();
  injected_.clear();
  query_serial_.store(0, std::memory_order_relaxed);
  armed_flag_.store(false, std::memory_order_relaxed);
}

}  // namespace pdw::fault
