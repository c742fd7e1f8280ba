// Statement catalogues and seeded request streams of the three workloads.
// The appliance only ever sees the generated SQL text.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// One distinct statement text and the template it instantiates.
struct Statement {
  std::string sql;
  int tmpl = 0;
};

/// Every distinct statement a workload can send (index = statement id)
/// and the names of the templates they come from.
struct StatementSet {
  std::vector<std::string> template_names;
  std::vector<Statement> statements;
};

/// The 12 suite templates (Q1 Q2 Q3 Q4 Q5 Q6 Q10 Q12 Q14 Q17 Q18 Q20)
/// instantiated over every combination of their substitution parameters,
/// drawn from the TPC-H spec's domains (dates, segments, regions, nations,
/// ship modes, discounts) adapted to the miniature schema.
StatementSet AdhocStatements();

/// The 12 suite templates with their fixed parameters, one statement each.
StatementSet ReportStatements();

/// About 600 parameterized dashboard statements over two shared join
/// shapes: customer-orders and lineitem-supplier-nation.
StatementSet DashboardStatements();

/// Deterministic 64-bit seed mixing (splitmix64), so every stream derived
/// from the workload seed is independent of the others.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Closed-loop request stream: each round sends one statement of every
/// template, in a seeded order. Each template walks a seeded permutation of
/// its own statements and wraps around, so a text recurs only after
/// (templates x statements of that template) requests.
class RoundStream {
 public:
  RoundStream(const StatementSet& set, uint64_t seed);
  std::vector<int> NextRound();

 private:
  std::vector<std::vector<int>> by_template_;
  std::vector<size_t> cursor_;
  std::mt19937_64 rng_;
};

/// Zipf(s) draw over ranks 0..n-1: P(rank k) is proportional to 1/(k+1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  int Draw(std::mt19937_64* rng) const;

 private:
  std::vector<double> cdf_;
};

/// One open-loop request of one session: when it is due (seconds from the
/// start of the run) and which statement it sends.
struct Arrival {
  double due = 0;
  int statement = 0;
};

/// A session's seeded open-loop schedule over [0, seconds): exactly
/// round(rate * seconds) arrivals at independent uniform times (a Poisson
/// process conditioned on its count, so the offered load is the same in
/// every run), statements drawn Zipf-skewed through `popularity`
/// (rank -> statement id).
std::vector<Arrival> UniformArrivals(uint64_t seed, double rate,
                                     double seconds, const Zipf& zipf,
                                     const std::vector<int>& popularity);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
