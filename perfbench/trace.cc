#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

thread_local int Tracer::current_ = -1;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled()) return Scope(nullptr, -1, -1);
  double now = NowSeconds();
  int index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int>(spans_.size());
    spans_.push_back({name, now, 0, current_, request, 0});
  }
  int saved = current_;
  current_ = index;
  return Scope(this, index, saved);
}

void Tracer::Scope::set_value(double value) {
  if (tracer_ == nullptr) return;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[static_cast<size_t>(index_)].value = value;
}

void Tracer::Scope::End() {
  if (tracer_ == nullptr) return;
  double now = NowSeconds();
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    tracer_->spans_[static_cast<size_t>(index_)].end = now;
  }
  current_ = saved_parent_;
  tracer_ = nullptr;
}

std::map<std::string, std::map<uint64_t, double>> Tracer::SelfSeconds() const {
  std::vector<double> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::map<uint64_t, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name][s.request] += (s.end - s.start) - child[i];
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d, \"request\": %llu, "
                 "\"value\": %.17g}",
                 i == 0 ? "" : ",\n", i, s.name.c_str(), s.start * 1e6,
                 s.end * 1e6, s.parent, static_cast<unsigned long long>(s.request),
                 s.value);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
