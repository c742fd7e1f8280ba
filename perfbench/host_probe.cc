#include "host_probe.h"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr size_t kSortKeys = 4096;
constexpr size_t kTableSlots = size_t{1} << 17;  // 1 MB
constexpr int kTableKeys = 10000;
constexpr size_t kFreshBytes = size_t{1} << 20;  // 256 pages

volatile double g_sink;
volatile uint64_t g_sink_bits;

/// A few microseconds of arithmetic that stays in registers.
void Spin() {
  double x = 0;
  for (int k = 0; k < 4000; ++k) x += k * 0.5;
  g_sink = x;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

HostProbe::HostProbe()
    : keys_(kSortKeys), sorted_(kSortKeys), table_(kTableSlots) {
  std::mt19937_64 rng(20120520);
  for (uint64_t& k : keys_) k = rng();
  for (int i = 0; i < kWorkers; ++i) {
    workers_.emplace_back([this] {
      int seen = 0;
      std::unique_lock lock(mu_);
      for (;;) {
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        lock.unlock();
        Spin();
        lock.lock();
        if (++done_ == kWorkers) finished_.notify_one();
      }
    });
  }
}

HostProbe::~HostProbe() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

double HostProbe::Round() {
  const double t0 = NowSeconds();
  std::unique_lock lock(mu_);
  done_ = 0;
  ++generation_;
  wake_.notify_all();
  finished_.wait(lock, [&] { return done_ == kWorkers; });
  return NowSeconds() - t0;
}

double HostProbe::Compute() {
  const double t0 = NowSeconds();
  uint64_t acc = 0;
  void* fresh = mmap(nullptr, kFreshBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (fresh != MAP_FAILED) {
    auto* bytes = static_cast<unsigned char*>(fresh);
    for (size_t i = 0; i < kFreshBytes; i += 4096) bytes[i] = 1;
    acc += bytes[kFreshBytes / 2];
    munmap(fresh, kFreshBytes);
  }
  std::copy(keys_.begin(), keys_.end(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.end());
  acc += sorted_[kSortKeys / 2];
  std::memset(table_.data(), 0, table_.size() * sizeof(uint64_t));
  const size_t mask = kTableSlots - 1;
  for (int i = 1; i <= kTableKeys; ++i) {
    uint64_t key = Mix(static_cast<uint64_t>(i));
    size_t slot = key & mask;
    while (table_[slot] != 0) slot = (slot + 1) & mask;
    table_[slot] = key;
  }
  g_sink_bits = acc;
  return NowSeconds() - t0;
}

void HostProbe::Sample() {
  const double t0 = NowSeconds();
  const double compute = Compute();
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    // Idle long enough first that the host parks the idle vCPUs, so each
    // round pays the wake-up a fan-out after a pause pays.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    rounds.push_back(Round());
  }
  last_ = NowSeconds();
  samples_.push_back(
      {(t0 + last_) / 2, {Distribution(rounds).Median(), compute}});
}

void HostProbe::MaybeSample(double interval) {
  if (NowSeconds() - last_ >= interval) Sample();
}

double HostProbe::FactorOver(double from, double to, Kind kind) const {
  std::vector<double> inside;
  for (const Reading& r : samples_) {
    if (r.at >= from && r.at <= to) inside.push_back(r.seconds[kind]);
  }
  if (inside.empty()) {
    const Reading* best = nullptr;
    double gap = 0;
    for (const Reading& r : samples_) {
      double d = r.at < from ? from - r.at : r.at - to;
      if (best == nullptr || d < gap) {
        best = &r;
        gap = d;
      }
    }
    if (best == nullptr) return 1.0;
    inside.push_back(best->seconds[kind]);
  }
  return kReferenceSeconds[kind] / Distribution(std::move(inside)).Median();
}

double HostProbe::MedianSeconds(Kind kind) const {
  std::vector<double> v;
  for (const Reading& r : samples_) v.push_back(r.seconds[kind]);
  return v.empty() ? 0 : Distribution(std::move(v)).Median();
}

}  // namespace perfbench
