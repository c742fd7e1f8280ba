// Host probe of the benchmark: how fast the host runs right now.
//
// On a shared host, neighbouring tenants slow this VM for spells of
// seconds to minutes. Two things swing. The time a sleeping thread takes to
// run again after it is woken: the appliance fans every DSQL step out to a
// thread pool, so its short queries slow with it while single-threaded
// work barely moves. And the cost of single-threaded work that touches
// fresh memory, which is what setup does. A run cannot average out a spell
// longer than itself, so the benchmark samples both every ~0.1 s with its
// own code and scales its timings by them (see FactorOver).
//
// kWake: wake kWorkers sleeping threads after an idle pause, let each do a
// few microseconds of arithmetic, and time the round until all finish.
// kCompute: map, touch and unmap fresh pages, sort a fixed array and build
// a 1 MB hash table, on one thread. Neither shares code or data with the
// appliance.
#ifndef PERFBENCH_HOST_PROBE_H_
#define PERFBENCH_HOST_PROBE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  enum Kind { kWake = 0, kCompute = 1 };

  /// Median times on a quiet reference host (a 4-vCPU Intel Xeon KVM
  /// guest); factors are relative to them.
  static constexpr double kReferenceSeconds[2] = {100e-6, 1200e-6};

  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Times both kinds (kRounds wake rounds, their median; one compute
  /// kernel) and records them. Callers on different threads must not
  /// overlap.
  void Sample();
  /// Samples when `interval` seconds have passed since the last sample.
  void MaybeSample(double interval = 0.1);

  /// Reference over the median of `kind`'s samples taken in [from, to]
  /// (steady-clock seconds), or of the nearest sample when none was. A
  /// wall time of that interval times this is in reference-host seconds.
  double FactorOver(double from, double to, Kind kind) const;
  /// Median seconds of `kind` over every sample.
  double MedianSeconds(Kind kind) const;
  size_t samples() const { return samples_.size(); }

 private:
  static constexpr int kWorkers = 8;
  static constexpr int kRounds = 3;

  struct Reading {
    double at;
    double seconds[2];
  };

  double Round();
  double Compute();

  std::mutex mu_;
  std::condition_variable wake_, finished_;
  int generation_ = 0;
  int done_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  std::vector<Reading> samples_;
  double last_ = 0;
  std::vector<uint64_t> keys_;   ///< Sort input, fixed.
  std::vector<uint64_t> sorted_;
  std::vector<uint64_t> table_;  ///< Open-addressing hash table.
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_PROBE_H_
