#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "tpch/tpch.h"

namespace perfbench {

namespace {

const char* kNations[] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                           "HOUSEHOLD", "MACHINERY"};
const char* kShipmodes[] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                            "TRUCK"};
// p_name is "<adjective> <noun>" from these lists (src/tpch/tpch.cc); the
// adjective doubles as Q20's COLOR parameter.
const char* kPartAdjectives[] = {"forest", "ghost", "misty", "frosted",
                                 "antique", "burnished", "dim", "lemon",
                                 "pale", "royal"};
const char* kPartNouns[] = {"green", "steel", "linen", "copper", "olive",
                            "tomato", "almond", "navy", "rose", "khaki"};

std::string Format(const char* fmt, ...) {
  char buf[2048];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// Civil-date arithmetic (proleptic Gregorian), for literal date parameters.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  int64_t era = (y >= 0 ? y : y - 399) / 400;
  int64_t yoe = y - era * 400;
  int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

std::string CivilFromDays(int64_t z) {
  z += 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  int64_t doe = z - era * 146097;
  int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  int64_t mp = (5 * doy + 2) / 153;
  int d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  int m = static_cast<int>(mp < 10 ? mp + 3 : mp - 9);
  int y = static_cast<int>(yoe + era * 400 + (m <= 2));
  return Format("%04d-%02d-%02d", y, m, d);
}

std::string Ymd(int y, int m, int d) { return Format("%04d-%02d-%02d", y, m, d); }

/// First day of the month `months` after (y, m).
std::string MonthStart(int y, int m, int months) {
  int index = y * 12 + (m - 1) + months;
  return Ymd(index / 12, index % 12 + 1, 1);
}

class Builder {
 public:
  explicit Builder(StatementSet* set) : set_(set) {}
  void Template(std::string name) {
    set_->template_names.push_back(std::move(name));
  }
  void Add(std::string sql) {
    set_->statements.push_back(
        {std::move(sql), static_cast<int>(set_->template_names.size()) - 1});
  }

 private:
  StatementSet* set_;
};

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

StatementSet AdhocStatements() {
  StatementSet set;
  Builder b(&set);

  b.Template("Q1");  // DELTA in [60, 120] days before 1998-12-01
  for (int delta = 60; delta <= 120; ++delta) {
    b.Add(Format(
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
        "SUM(l_extendedprice) AS sum_base_price, "
        "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
        "AVG(l_quantity) AS avg_qty, AVG(l_discount) AS avg_disc, "
        "COUNT(*) AS count_order "
        "FROM lineitem WHERE l_shipdate <= DATE '%s' "
        "GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus",
        CivilFromDays(DaysFromCivil(1998, 12, 1) - delta).c_str()));
  }

  b.Template("Q2");  // SIZE in [1, 50]
  for (int size = 1; size <= 50; ++size) {
    b.Add(Format(
        "SELECT s_name, p_partkey, ps_supplycost FROM part, supplier, "
        "partsupp WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey "
        "AND p_size = %d "
        "AND ps_supplycost = (SELECT MIN(ps2.ps_supplycost) FROM partsupp "
        "ps2 WHERE ps2.ps_partkey = p_partkey) "
        "ORDER BY s_name, p_partkey",
        size));
  }

  b.Template("Q3");  // SEGMENT x DATE in [1995-03-01, 1995-03-31]
  for (const char* segment : kSegments) {
    for (int day = 1; day <= 31; ++day) {
      std::string date = Ymd(1995, 3, day);
      b.Add(Format(
          "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS "
          "revenue, o_orderdate, o_shippriority "
          "FROM customer, orders, lineitem "
          "WHERE c_mktsegment = '%s' AND c_custkey = o_custkey "
          "AND l_orderkey = o_orderkey AND o_orderdate < DATE '%s' "
          "AND l_shipdate > DATE '%s' "
          "GROUP BY l_orderkey, o_orderdate, o_shippriority "
          "ORDER BY revenue DESC, o_orderdate LIMIT 10",
          segment, date.c_str(), date.c_str()));
    }
  }

  b.Template("Q4");  // DATE = first of a month in [1993-01, 1997-10]
  for (int month = 0; month < 58; ++month) {
    b.Add(Format(
        "SELECT o_orderpriority, COUNT(*) AS order_count FROM orders "
        "WHERE o_orderdate >= DATE '%s' AND o_orderdate < DATE '%s' "
        "AND EXISTS (SELECT l_orderkey FROM lineitem "
        "  WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate) "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority",
        MonthStart(1993, 1, month).c_str(),
        MonthStart(1993, 1, month + 3).c_str()));
  }

  b.Template("Q5");  // REGION x DATE = January 1st of [1993, 1997]
  for (const char* region : kRegions) {
    for (int year = 1993; year <= 1997; ++year) {
      b.Add(Format(
          "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
          "FROM customer, orders, lineitem, supplier, nation, region "
          "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
          "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
          "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
          "AND r_name = '%s' AND o_orderdate >= DATE '%d-01-01' "
          "AND o_orderdate < DATE '%d-01-01' "
          "GROUP BY n_name ORDER BY revenue DESC",
          region, year, year + 1));
    }
  }

  b.Template("Q6");  // DATE year x DISCOUNT in [0.02, 0.09] x QUANTITY 24|25
  for (int year = 1993; year <= 1997; ++year) {
    for (int discount = 2; discount <= 9; ++discount) {
      for (int quantity = 24; quantity <= 25; ++quantity) {
        b.Add(Format(
            "SELECT SUM(l_extendedprice * l_discount) AS revenue "
            "FROM lineitem WHERE l_shipdate >= DATE '%d-01-01' "
            "AND l_shipdate < DATE '%d-01-01' "
            "AND l_discount BETWEEN 0.%02d AND 0.%02d AND l_quantity < %d",
            year, year + 1, discount - 1, discount + 1, quantity));
      }
    }
  }

  b.Template("Q10");  // DATE = first of a month in [1993-02, 1995-01]
  for (int month = 0; month < 24; ++month) {
    b.Add(Format(
        "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) "
        "AS revenue, c_acctbal, n_name, c_address "
        "FROM customer, orders, lineitem, nation "
        "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
        "AND o_orderdate >= DATE '%s' AND o_orderdate < DATE '%s' "
        "AND l_returnflag = 'R' AND c_nationkey = n_nationkey "
        "GROUP BY c_custkey, c_name, c_acctbal, n_name, c_address "
        "ORDER BY revenue DESC LIMIT 20",
        MonthStart(1993, 2, month).c_str(),
        MonthStart(1993, 2, month + 3).c_str()));
  }

  b.Template("Q12");  // SHIPMODE pair x DATE year in [1993, 1997]
  for (size_t i = 0; i < std::size(kShipmodes); ++i) {
    for (size_t j = i + 1; j < std::size(kShipmodes); ++j) {
      for (int year = 1993; year <= 1997; ++year) {
        b.Add(Format(
            "SELECT l_shipmode, "
            "SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = "
            "'2-HIGH' THEN 1 ELSE 0 END) AS high_line_count, "
            "SUM(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority "
            "<> '2-HIGH' THEN 1 ELSE 0 END) AS low_line_count "
            "FROM orders, lineitem WHERE o_orderkey = l_orderkey "
            "AND l_shipmode IN ('%s', '%s') "
            "AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate "
            "AND l_receiptdate >= DATE '%d-01-01' "
            "AND l_receiptdate < DATE '%d-01-01' "
            "GROUP BY l_shipmode ORDER BY l_shipmode",
            kShipmodes[i], kShipmodes[j], year, year + 1));
      }
    }
  }

  b.Template("Q14");  // DATE = first of a month in [1993-01, 1997-12]
  for (int month = 0; month < 60; ++month) {
    b.Add(Format(
        "SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%%' THEN "
        "l_extendedprice * (1 - l_discount) ELSE 0 END) / "
        "SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue "
        "FROM lineitem, part WHERE l_partkey = p_partkey "
        "AND l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s'",
        MonthStart(1993, 1, month).c_str(),
        MonthStart(1993, 1, month + 1).c_str()));
  }

  b.Template("Q17");  // BRAND/CONTAINER stand-in: a p_name prefix
  for (const char* adjective : kPartAdjectives) {
    for (const char* noun : kPartNouns) {
      b.Add(Format(
          "SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly "
          "FROM lineitem, part WHERE p_partkey = l_partkey "
          "AND p_name LIKE '%s %s%%' "
          "AND l_quantity < (SELECT 0.2 * AVG(l2.l_quantity) FROM lineitem "
          "l2 WHERE l2.l_partkey = p_partkey)",
          adjective, noun));
    }
  }

  b.Template("Q18");  // QUANTITY threshold, scaled to the miniature
  for (int quantity = 150; quantity <= 250; ++quantity) {
    b.Add(Format(
        "SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, "
        "SUM(l_quantity) AS total_qty "
        "FROM customer, orders, lineitem "
        "WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem "
        "  GROUP BY l_orderkey HAVING SUM(l_quantity) > %d) "
        "AND c_custkey = o_custkey AND o_orderkey = l_orderkey "
        "GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice "
        "ORDER BY o_totalprice DESC, o_orderdate LIMIT 100",
        quantity));
  }

  b.Template("Q20");  // COLOR x DATE year in [1993, 1997] x NATION
  for (const char* color : kPartAdjectives) {
    for (int year = 1993; year <= 1997; ++year) {
      for (const char* nation : kNations) {
        b.Add(Format(
            "SELECT s_name, s_address FROM supplier, nation "
            "WHERE s_suppkey IN ("
            "  SELECT ps_suppkey FROM partsupp WHERE ps_partkey IN ("
            "    SELECT p_partkey FROM part WHERE p_name LIKE '%s%%') "
            "  AND ps_availqty > ("
            "    SELECT 0.5 * SUM(l_quantity) FROM lineitem "
            "    WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey "
            "    AND l_shipdate >= DATE '%d-01-01' "
            "    AND l_shipdate < DATEADD(year, 1, '%d-01-01'))) "
            "AND s_nationkey = n_nationkey AND n_name = '%s' "
            "ORDER BY s_name",
            color, year, year, nation));
      }
    }
  }
  return set;
}

StatementSet ReportStatements() {
  StatementSet set;
  for (const pdw::tpch::TpchQuery& q : pdw::tpch::Queries()) {
    set.template_names.push_back(q.name);
    set.statements.push_back(
        {q.sql, static_cast<int>(set.template_names.size()) - 1});
  }
  return set;
}

StatementSet DashboardStatements() {
  StatementSet set;
  Builder b(&set);

  // customer-orders: order priority mix of a segment in a quarter.
  b.Template("priority_mix");
  for (const char* segment : kSegments) {
    for (int quarter = 0; quarter < 26; ++quarter) {
      b.Add(Format(
          "SELECT o_orderpriority, COUNT(*) AS order_count, "
          "SUM(o_totalprice) AS total_value FROM customer, orders "
          "WHERE c_custkey = o_custkey AND c_mktsegment = '%s' "
          "AND o_orderdate >= DATE '%s' AND o_orderdate < DATE '%s' "
          "GROUP BY o_orderpriority ORDER BY o_orderpriority",
          segment, MonthStart(1992, 1, quarter * 3).c_str(),
          MonthStart(1992, 1, quarter * 3 + 3).c_str()));
    }
  }

  // customer-orders: a nation's top customers of a year.
  b.Template("top_customers");
  for (int nation = 0; nation < 25; ++nation) {
    for (int year = 1992; year <= 1998; ++year) {
      b.Add(Format(
          "SELECT c_custkey, c_name, SUM(o_totalprice) AS spend, "
          "COUNT(*) AS order_count FROM customer, orders "
          "WHERE c_custkey = o_custkey AND c_nationkey = %d "
          "AND o_orderdate >= DATE '%d-01-01' "
          "AND o_orderdate < DATE '%d-01-01' "
          "GROUP BY c_custkey, c_name ORDER BY spend DESC, c_custkey LIMIT 10",
          nation, year, year + 1));
    }
  }

  // lineitem-supplier-nation: revenue per supplier nation of one ship mode
  // in a quarter.
  b.Template("supplier_revenue");
  for (const char* mode : kShipmodes) {
    for (int quarter = 0; quarter < 22; ++quarter) {
      b.Add(Format(
          "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
          "FROM lineitem, supplier, nation "
          "WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey "
          "AND l_shipmode = '%s' AND l_shipdate >= DATE '%s' "
          "AND l_shipdate < DATE '%s' "
          "GROUP BY n_name ORDER BY revenue DESC, n_name",
          mode, MonthStart(1993, 1, quarter * 3).c_str(),
          MonthStart(1993, 1, quarter * 3 + 3).c_str()));
    }
  }

  // lineitem-supplier-nation: return flags of one supplier nation's year.
  b.Template("nation_returns");
  for (const char* nation : kNations) {
    for (int year = 1993; year <= 1998; ++year) {
      b.Add(Format(
          "SELECT l_returnflag, SUM(l_quantity) AS qty, COUNT(*) AS "
          "line_count FROM lineitem, supplier, nation "
          "WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey "
          "AND n_name = '%s' AND l_shipdate >= DATE '%d-01-01' "
          "AND l_shipdate < DATE '%d-01-01' "
          "GROUP BY l_returnflag ORDER BY l_returnflag",
          nation, year, year + 1));
    }
  }
  return set;
}

RoundStream::RoundStream(const StatementSet& set, uint64_t seed)
    : by_template_(set.template_names.size()),
      cursor_(set.template_names.size(), 0),
      rng_(MixSeed(seed, 1)) {
  for (size_t id = 0; id < set.statements.size(); ++id) {
    by_template_[static_cast<size_t>(set.statements[id].tmpl)].push_back(
        static_cast<int>(id));
  }
  for (auto& ids : by_template_) std::shuffle(ids.begin(), ids.end(), rng_);
}

std::vector<int> RoundStream::NextRound() {
  std::vector<size_t> order(by_template_.size());
  for (size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::shuffle(order.begin(), order.end(), rng_);
  std::vector<int> out;
  for (size_t t : order) {
    const std::vector<int>& ids = by_template_[t];
    out.push_back(ids[cursor_[t]++ % ids.size()]);
  }
  return out;
}

Zipf::Zipf(int n, double s) {
  double sum = 0;
  for (int k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(sum);
  }
}

int Zipf::Draw(std::mt19937_64* rng) const {
  std::uniform_real_distribution<double> u(0, cdf_.back());
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u(*rng));
  return static_cast<int>(
      std::min<size_t>(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1));
}

std::vector<Arrival> UniformArrivals(uint64_t seed, double rate,
                                     double seconds, const Zipf& zipf,
                                     const std::vector<int>& popularity) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> when(0, seconds);
  std::vector<Arrival> out(static_cast<size_t>(std::llround(rate * seconds)));
  for (Arrival& a : out) {
    a.due = when(rng);
    a.statement = popularity[static_cast<size_t>(zipf.Draw(&rng))];
  }
  std::sort(out.begin(), out.end(),
            [](const Arrival& a, const Arrival& b) { return a.due < b.due; });
  return out;
}

}  // namespace perfbench
