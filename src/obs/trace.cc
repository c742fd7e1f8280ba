#include "obs/trace.h"

#include <chrono>
#include <ctime>
#include <fstream>

#include "common/string_util.h"
#include "obs/format.h"

namespace pdw::obs {

namespace {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

}  // namespace

Tracer::Tracer() : epoch_(WallSeconds()) {}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cleared_ += static_cast<int>(records_.size());
  records_.clear();
  open_.clear();
  epoch_ = WallSeconds();
}

void Tracer::BeginCapture() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  if (captures_++ == 0 && !enabled()) {
    Clear();
    Enable();
    capture_enabled_ = true;
  }
}

void Tracer::EndCapture() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  if (--captures_ == 0 && capture_enabled_) {
    Disable();
    Clear();
    capture_enabled_ = false;
  }
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<TraceRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

int Tracer::BeginSpan(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int>& stack = open_[std::this_thread::get_id()];
  auto tid_it = thread_index_
                    .emplace(std::this_thread::get_id(),
                             static_cast<int>(thread_index_.size()))
                    .first;
  TraceRecord rec;
  rec.id = static_cast<int>(records_.size());
  rec.parent = stack.empty() ? -1 : stack.back();
  rec.depth = static_cast<int>(stack.size());
  rec.tid = tid_it->second;
  rec.name = std::move(name);
  rec.start_seconds = WallSeconds() - epoch_;
  stack.push_back(rec.id);
  records_.push_back(std::move(rec));
  return cleared_ + records_.back().id;
}

void Tracer::EndSpan(int id, double wall_seconds, double cpu_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  int index = id - cleared_;
  if (index < 0 || index >= static_cast<int>(records_.size())) return;
  records_[static_cast<size_t>(index)].wall_seconds = wall_seconds;
  records_[static_cast<size_t>(index)].cpu_seconds = cpu_seconds;
  std::vector<int>& stack = open_[std::this_thread::get_id()];
  while (!stack.empty() && stack.back() >= index) stack.pop_back();
}

void Tracer::Annotate(int id, const std::string& key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  int index = id - cleared_;
  if (index < 0 || index >= static_cast<int>(records_.size())) return;
  records_[static_cast<size_t>(index)].attrs.emplace_back(key,
                                                          std::move(value));
}

std::string Tracer::ToText() const {
  std::vector<TraceRecord> recs = Snapshot();
  std::string out;
  for (const TraceRecord& r : recs) {
    out.append(static_cast<size_t>(r.depth) * 2, ' ');
    out += r.name;
    out += StringFormat("  wall=%s cpu=%s", FormatSeconds(r.wall_seconds).c_str(),
                        FormatSeconds(r.cpu_seconds).c_str());
    for (const auto& [k, v] : r.attrs) {
      out += " " + k + "=" + v;
    }
    out += "\n";
  }
  return out;
}

namespace {

void SpanToJson(const std::vector<TraceRecord>& recs,
                const std::vector<std::vector<int>>& children, int id,
                std::string* out) {
  const TraceRecord& r = recs[static_cast<size_t>(id)];
  *out += "{\"name\":\"" + JsonEscape(r.name) + "\"";
  *out += ",\"start_seconds\":" + JsonNumber(r.start_seconds);
  *out += ",\"wall_seconds\":" + JsonNumber(r.wall_seconds);
  *out += ",\"cpu_seconds\":" + JsonNumber(r.cpu_seconds);
  if (!r.attrs.empty()) {
    *out += ",\"attrs\":{";
    for (size_t i = 0; i < r.attrs.size(); ++i) {
      if (i > 0) *out += ",";
      *out += "\"" + JsonEscape(r.attrs[i].first) + "\":\"" +
              JsonEscape(r.attrs[i].second) + "\"";
    }
    *out += "}";
  }
  const std::vector<int>& kids = children[static_cast<size_t>(id)];
  if (!kids.empty()) {
    *out += ",\"children\":[";
    for (size_t i = 0; i < kids.size(); ++i) {
      if (i > 0) *out += ",";
      SpanToJson(recs, children, kids[i], out);
    }
    *out += "]";
  }
  *out += "}";
}

}  // namespace

std::string Tracer::ToChromeJson() const {
  std::vector<TraceRecord> recs = Snapshot();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ",";
    first = false;
    out += event;
  };
  int next_flow_id = 1;
  for (const TraceRecord& r : recs) {
    double ts_us = r.start_seconds * 1e6;
    std::string ev = "{\"ph\":\"X\",\"pid\":1,\"tid\":" +
                     JsonNumber(static_cast<double>(r.tid)) +
                     ",\"name\":\"" + JsonEscape(r.name) + "\"" +
                     ",\"ts\":" + JsonNumber(ts_us) +
                     ",\"dur\":" + JsonNumber(r.wall_seconds * 1e6) +
                     ",\"args\":{\"cpu_seconds\":" + JsonNumber(r.cpu_seconds);
    for (const auto& [k, v] : r.attrs) {
      ev += ",\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
    }
    ev += "}}";
    emit(ev);
    // A parent on another thread isn't visible through the track's time
    // nesting; stitch the link with a flow arrow from the parent's start
    // to this span's start.
    if (r.parent >= 0 && r.parent < static_cast<int>(recs.size())) {
      const TraceRecord& p = recs[static_cast<size_t>(r.parent)];
      if (p.tid != r.tid) {
        int flow = next_flow_id++;
        emit("{\"ph\":\"s\",\"pid\":1,\"tid\":" +
             JsonNumber(static_cast<double>(p.tid)) +
             ",\"name\":\"span\",\"id\":" + JsonNumber(flow) +
             ",\"ts\":" + JsonNumber(p.start_seconds * 1e6) + "}");
        emit("{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":" +
             JsonNumber(static_cast<double>(r.tid)) +
             ",\"name\":\"span\",\"id\":" + JsonNumber(flow) +
             ",\"ts\":" + JsonNumber(ts_us) + "}");
      }
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file.is_open()) {
    return Status::InvalidArgument("cannot open trace file '" + path + "'");
  }
  file << ToChromeJson();
  file.close();
  if (!file) {
    return Status::Internal("failed writing trace file '" + path + "'");
  }
  return Status::OK();
}

std::string Tracer::ToJson() const {
  std::vector<TraceRecord> recs = Snapshot();
  std::vector<std::vector<int>> children(recs.size());
  std::vector<int> roots;
  for (const TraceRecord& r : recs) {
    if (r.parent >= 0) {
      children[static_cast<size_t>(r.parent)].push_back(r.id);
    } else {
      roots.push_back(r.id);
    }
  }
  std::string out = "[";
  for (size_t i = 0; i < roots.size(); ++i) {
    if (i > 0) out += ",";
    SpanToJson(recs, children, roots[i], &out);
  }
  out += "]";
  return out;
}

TraceSpan::TraceSpan(std::string name, Tracer* tracer) : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  wall_start_ = WallSeconds();
  cpu_start_ = ThreadCpuSeconds();
  id_ = tracer_->BeginSpan(std::move(name));
}

void TraceSpan::AddAttr(const std::string& key, std::string value) {
  if (id_ < 0) return;
  tracer_->Annotate(id_, key, std::move(value));
}

void TraceSpan::AddAttr(const std::string& key, double value) {
  if (id_ < 0) return;
  tracer_->Annotate(id_, key, FormatCount(value));
}

void TraceSpan::End() {
  if (id_ < 0) return;
  tracer_->EndSpan(id_, WallSeconds() - wall_start_,
                   ThreadCpuSeconds() - cpu_start_);
  id_ = -1;
}

}  // namespace pdw::obs
