// Unit tests of perfbench/stats.h. Exits non-zero when any check fails;
// run through `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)
#define CHECK_NEAR(a, b) Check(std::fabs((a) - (b)) < 1e-9, #a " ~ " #b, __LINE__)

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // reversed: must sort
  return v;
}

void NearestRankPercentiles() {
  Distribution d(Iota(100));  // 1..100
  CHECK_NEAR(d.Percentile(0.5), 50);
  CHECK_NEAR(d.Percentile(0.95), 95);
  CHECK_NEAR(d.Percentile(0.99), 99);
  CHECK_NEAR(d.Percentile(1.0), 100);
  CHECK_NEAR(d.Percentile(0.001), 1);
  // Nearest rank rounds the position up, never interpolates.
  Distribution five(std::vector<double>{10, 20, 30, 40, 50});
  CHECK_NEAR(five.Percentile(0.5), 30);
  CHECK_NEAR(five.Percentile(0.41), 30);
  CHECK_NEAR(five.Percentile(0.4), 20);
  CHECK_NEAR(five.Median(), 30);
}

void PercentileNeedsTenBeyond() {
  // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
  CHECK(Distribution(Iota(1000)).Supported(0.99).has_value());
  CHECK(!Distribution(Iota(999)).Supported(0.99).has_value());
  CHECK_NEAR(*Distribution(Iota(1000)).Supported(0.99), 990);
  // p95 needs 200 samples.
  CHECK(Distribution(Iota(200)).Supported(0.95).has_value());
  CHECK(!Distribution(Iota(199)).Supported(0.95).has_value());
  CHECK(Distribution(Iota(200)).Beyond(0.95) == 10);
  CHECK(!Distribution(std::vector<double>{}).Supported(0.5).has_value());
}

void GeometricMean() {
  CHECK_NEAR(GeoMean({2, 8}), 4);
  CHECK_NEAR(GeoMean({1, 10, 100}), 10);
  CHECK_NEAR(GeoMean({7}), 7);
  CHECK_NEAR(GeoMean({}), 0);
  // One slow template moves the geomean by its own factor's n-th root.
  CHECK_NEAR(GeoMean({1, 1, 1, 1000}), std::pow(1000.0, 0.25));
}

void OpenLoopTimesFromDue() {
  OpenLoopLedger ledger;
  // Due at 0 and 1; the first stalls until 3, so the second is sent late.
  ledger.Add(0.0, 0.0, 3.0);
  ledger.Add(1.0, 3.0, 3.5);
  auto lat = ledger.LatenciesFromDue();
  CHECK_NEAR(lat[0], 3.0);
  CHECK_NEAR(lat[1], 2.5);  // counts the wait behind the stall
  auto late = ledger.Lateness();
  CHECK_NEAR(late[0], 0.0);
  CHECK_NEAR(late[1], 2.0);
  auto backlog = ledger.BacklogAtDue();
  CHECK_NEAR(backlog[0], 1);  // itself
  CHECK_NEAR(backlog[1], 2);  // itself + the stalled first request
}

void BacklogGrowthFlagsOverload() {
  // Sustained: service 0.5 per request, one request due per second.
  OpenLoopLedger steady;
  for (int i = 0; i < 100; ++i) steady.Add(i, i, i + 0.5);
  CHECK(!steady.BacklogGrows());
  // Overloaded: service 2 per request, one due per second; each waits
  // behind all earlier ones, so the backlog climbs without bound.
  OpenLoopLedger overload;
  double free_at = 0;
  for (int i = 0; i < 100; ++i) {
    double sent = std::max<double>(i, free_at);
    free_at = sent + 2;
    overload.Add(i, sent, free_at);
  }
  CHECK(overload.BacklogGrows());
  // One stall in the middle that drains again is not growth.
  OpenLoopLedger blip;
  for (int i = 0; i < 100; ++i) blip.Add(i, i, i == 50 ? i + 4 : i + 0.5);
  CHECK(!blip.BacklogGrows());
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::NearestRankPercentiles();
  perfbench::PercentileNeedsTenBeyond();
  perfbench::GeometricMean();
  perfbench::OpenLoopTimesFromDue();
  perfbench::BacklogGrowthFlagsOverload();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "stats_test: %d check(s) failed\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
