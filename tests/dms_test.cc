#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "dms/dms_service.h"
#include "dms/wire_format.h"

namespace pdw {
namespace {

RowVector MakeRows(int start, int count) {
  RowVector rows;
  for (int i = start; i < start + count; ++i) {
    rows.push_back({Datum::Int(i), Datum::Varchar("v" + std::to_string(i))});
  }
  return rows;
}

size_t TotalRows(const std::vector<RowVector>& slots, int limit) {
  size_t n = 0;
  for (int i = 0; i < limit; ++i) n += slots[static_cast<size_t>(i)].size();
  return n;
}

class DmsTest : public ::testing::Test {
 protected:
  DmsService dms_{4};

  std::vector<RowVector> EmptySlots() {
    return std::vector<RowVector>(static_cast<size_t>(dms_.num_compute_nodes() + 1));
  }
};

TEST_F(DmsTest, ShufflePartitionsByHash) {
  auto slots = EmptySlots();
  for (int n = 0; n < 4; ++n) slots[static_cast<size_t>(n)] = MakeRows(n * 100, 50);
  DmsRunMetrics m;
  auto out = dms_.Execute(DmsOpKind::kShuffle, std::move(slots), {0}, &m);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(TotalRows(*out, 4), 200u);
  EXPECT_TRUE((*out)[4].empty());  // nothing lands on control
  // Every row sits on the node its hash demands.
  for (int node = 0; node < 4; ++node) {
    for (const Row& r : (*out)[static_cast<size_t>(node)]) {
      EXPECT_EQ(dms_.TargetNode(r, {0}), node);
    }
  }
  EXPECT_EQ(m.rows_moved, 200);
  EXPECT_GT(m.reader.bytes, 0);
}

TEST_F(DmsTest, ShuffleIsDeterministic) {
  auto run = [&]() {
    auto slots = EmptySlots();
    slots[0] = MakeRows(0, 100);
    auto out = dms_.Execute(DmsOpKind::kShuffle, std::move(slots), {0});
    std::vector<size_t> sizes;
    for (const auto& s : *out) sizes.push_back(s.size());
    return sizes;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(DmsTest, PartitionMoveGathersToControl) {
  auto slots = EmptySlots();
  for (int n = 0; n < 4; ++n) slots[static_cast<size_t>(n)] = MakeRows(n * 10, 10);
  auto out = dms_.Execute(DmsOpKind::kPartitionMove, std::move(slots), {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[4].size(), 40u);
  EXPECT_EQ(TotalRows(*out, 4), 0u);
}

TEST_F(DmsTest, BroadcastReplicatesEverywhere) {
  auto slots = EmptySlots();
  for (int n = 0; n < 4; ++n) slots[static_cast<size_t>(n)] = MakeRows(n * 10, 10);
  auto out = dms_.Execute(DmsOpKind::kBroadcastMove, std::move(slots), {});
  ASSERT_TRUE(out.ok());
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ((*out)[static_cast<size_t>(n)].size(), 40u);
  }
}

TEST_F(DmsTest, ColumnarBroadcastPacksOnce) {
  auto slots = EmptySlots();
  for (int n = 0; n < 4; ++n) {
    slots[static_cast<size_t>(n)] = MakeRows(n * 10, 10);
  }
  DmsRunMetrics m;
  auto out = dms_.Execute(DmsOpKind::kBroadcastMove, std::move(slots), {}, &m);
  ASSERT_TRUE(out.ok());
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ((*out)[static_cast<size_t>(n)].size(), 40u);
  }
  // The columnar reader packs each source slice once and the network fans
  // it out: reader bytes ≈ writer bytes / N (writer unpacks every copy).
  EXPECT_GT(m.reader.bytes, 0);
  EXPECT_LT(m.reader.bytes, m.writer.bytes / 2);
  EXPECT_NEAR(m.writer.bytes, m.reader.bytes * 4, m.reader.bytes * 0.01);
}

TEST_F(DmsTest, TrimKeepsOwnSliceWithoutNetwork) {
  // Every node holds the same replica.
  RowVector replica = MakeRows(0, 100);
  auto slots = EmptySlots();
  for (int n = 0; n < 4; ++n) slots[static_cast<size_t>(n)] = replica;
  DmsRunMetrics m;
  auto out = dms_.Execute(DmsOpKind::kTrimMove, std::move(slots), {0}, &m);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(m.network.bytes, 0);
  EXPECT_EQ(TotalRows(*out, 4), 100u);  // one copy survives, partitioned
  for (int node = 0; node < 4; ++node) {
    for (const Row& r : (*out)[static_cast<size_t>(node)]) {
      EXPECT_EQ(dms_.TargetNode(r, {0}), node);
    }
  }
}

TEST_F(DmsTest, ControlNodeMoveReplicates) {
  auto slots = EmptySlots();
  slots[4] = MakeRows(0, 25);  // control node holds the source
  auto out = dms_.Execute(DmsOpKind::kControlNodeMove, std::move(slots), {});
  ASSERT_TRUE(out.ok());
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ((*out)[static_cast<size_t>(n)].size(), 25u);
  }
}

TEST_F(DmsTest, ReplicatedBroadcastFromOneNode) {
  auto slots = EmptySlots();
  slots[0] = MakeRows(0, 30);
  auto out =
      dms_.Execute(DmsOpKind::kReplicatedBroadcast, std::move(slots), {});
  ASSERT_TRUE(out.ok());
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ((*out)[static_cast<size_t>(n)].size(), 30u);
  }
}

TEST_F(DmsTest, RemoteCopyToSingle) {
  auto slots = EmptySlots();
  for (int n = 0; n < 4; ++n) slots[static_cast<size_t>(n)] = MakeRows(n, 5);
  auto out =
      dms_.Execute(DmsOpKind::kRemoteCopyToSingle, std::move(slots), {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[4].size(), 20u);
}

TEST_F(DmsTest, HashMoveWithoutColumnsRejected) {
  auto slots = EmptySlots();
  slots[0] = MakeRows(0, 5);
  EXPECT_FALSE(dms_.Execute(DmsOpKind::kShuffle, std::move(slots), {}).ok());
}

// Datum menagerie used by the routing and fuzz tests: every TypeId, NULLs,
// empty varchars, and the integral-double case whose hash must match kInt.
std::vector<Datum> AllKindsOfDatums() {
  return {Datum::Int(0),
          Datum::Int(-1),
          Datum::Int(1234567890123LL),
          Datum::Double(0.0),
          Datum::Double(-2.5),
          Datum::Double(42.0),  // integral double: hashes like Int(42)
          Datum::Varchar(""),
          Datum::Varchar("x"),
          Datum::Varchar(std::string(300, 'q')),
          Datum::Bool(true),
          Datum::Bool(false),
          Datum::Date(0),
          Datum::Date(-400),
          Datum::Date(20000),
          Datum::Null()};
}

Row RandomRow(std::mt19937* rng, const std::vector<Datum>& pool,
              size_t arity) {
  Row row;
  for (size_t i = 0; i < arity; ++i) {
    row.push_back(pool[(*rng)() % pool.size()]);
  }
  return row;
}

TEST_F(DmsTest, VectorizedRoutingMatchesTargetNode) {
  // HashPartitionRows must send every row of rows[begin, end) exactly where
  // the row-at-a-time TargetNode would, for every type, NULLs, empty
  // strings, and integral doubles, over 1..3 key columns — and report the
  // absolute row indices of the slice.
  std::mt19937 rng(20120520);
  const std::vector<Datum> pool = AllKindsOfDatums();
  for (size_t num_keys : {1u, 2u, 3u}) {
    RowVector rows;
    for (int i = 0; i < 500; ++i) rows.push_back(RandomRow(&rng, pool, 4));
    std::vector<int> ordinals;
    for (size_t k = 0; k < num_keys; ++k) {
      ordinals.push_back(static_cast<int>(k));
    }
    for (auto [begin, end] : {std::pair<size_t, size_t>{0, 500},
                              std::pair<size_t, size_t>{37, 421}}) {
      std::vector<SelVector> parts;
      HashPartitionRows(rows, begin, end, ordinals, dms_.num_compute_nodes(),
                        &parts);
      ASSERT_EQ(parts.size(), static_cast<size_t>(dms_.num_compute_nodes()));
      size_t covered = 0;
      for (int node = 0; node < dms_.num_compute_nodes(); ++node) {
        for (int32_t r : parts[static_cast<size_t>(node)]) {
          ASSERT_GE(static_cast<size_t>(r), begin);
          ASSERT_LT(static_cast<size_t>(r), end);
          EXPECT_EQ(dms_.TargetNode(rows[static_cast<size_t>(r)], ordinals),
                    node)
              << "row " << r << " keys=" << num_keys << " begin=" << begin;
          ++covered;
        }
      }
      EXPECT_EQ(covered, end - begin);  // a partition for every row
    }
  }
}

TEST_F(DmsTest, WireStringOverflowGuard) {
  // Length fields on the wire are u32; the guard must reject anything
  // longer instead of silently truncating the length.
  EXPECT_TRUE(ValidateWireString(0).ok());
  EXPECT_TRUE(ValidateWireString(kDmsMaxVarcharBytes).ok());
  EXPECT_FALSE(ValidateWireString(kDmsMaxVarcharBytes + 1).ok());
  EXPECT_FALSE(ValidateWireString(static_cast<size_t>(1) << 40).ok());
}

/// Rows for the wire-format fuzz: per column, either one type with some
/// NULLs (a typed value plane), only NULLs (a kInvalid column), or mixed
/// types (a variant column).
RowVector RandomWireRows(std::mt19937* rng, const std::vector<Datum>& pool,
                         size_t arity, size_t count) {
  RowVector rows(count, Row(arity));
  for (size_t c = 0; c < arity; ++c) {
    int mode = static_cast<int>((*rng)() % 4);  // 0-1 typed, 2 NULL, 3 mixed
    TypeId type = pool[(*rng)() % pool.size()].type();
    for (size_t r = 0; r < count; ++r) {
      const Datum& d = pool[(*rng)() % pool.size()];
      if (mode == 3 || (mode < 2 && d.type() == type)) rows[r][c] = d;
    }
  }
  return rows;
}

void ExpectSameRows(const RowVector& got, const RowVector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << "row " << r;
    for (size_t c = 0; c < want[r].size(); ++c) {
      EXPECT_EQ(got[r][c].is_null(), want[r][c].is_null()) << r << "," << c;
      if (!want[r][c].is_null()) {
        EXPECT_EQ(got[r][c].type(), want[r][c].type()) << r << "," << c;
        EXPECT_EQ(got[r][c].Compare(want[r][c]), 0) << r << "," << c;
      }
    }
  }
}

TEST_F(DmsTest, BatchCodecFuzzRoundTripAndTruncation) {
  // PackRowsColumnar -> UnpackBatchToRows, the pair every DMS move runs:
  // typed, all-NULL and variant columns, empty batches, and slices with a
  // nonzero begin must round-trip exactly, and every sampled strict prefix
  // of a wire batch must fail cleanly.
  std::mt19937 rng(77777);
  const std::vector<Datum> pool = AllKindsOfDatums();
  for (int iter = 0; iter < 80; ++iter) {
    size_t arity = 1 + rng() % 5;
    size_t count = rng() % 40;  // includes empty batches
    RowVector rows = RandomWireRows(&rng, pool, arity, count);
    std::vector<TypeId> types = InferRowTypes(rows);
    if (types.size() != arity) types.assign(arity, TypeId::kInvalid);
    size_t begin = count == 0 ? 0 : rng() % count;
    std::vector<uint8_t> buf;
    auto packed = PackRowsColumnar(rows, begin, count, types, &buf);
    ASSERT_TRUE(packed.ok());
    EXPECT_EQ(*packed, buf.size());
    size_t offset = 0;
    RowVector round;
    auto unpacked = UnpackBatchToRows(buf, &offset, &round);
    ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
    EXPECT_EQ(*unpacked, count - begin);
    EXPECT_EQ(offset, buf.size());
    ExpectSameRows(round, RowVector(rows.begin() + static_cast<long>(begin),
                                    rows.end()));
    // Truncated batch buffers fail cleanly at every sampled prefix.
    for (size_t cut = buf.empty() ? 0 : rng() % buf.size(); cut < buf.size();
         cut += 1 + rng() % 13) {
      std::vector<uint8_t> trunc(buf.begin(),
                                 buf.begin() + static_cast<long>(cut));
      size_t o = 0;
      RowVector sink;
      EXPECT_FALSE(UnpackBatchToRows(trunc, &o, &sink).ok()) << "cut=" << cut;
    }
  }
}

TEST_F(DmsTest, SelectedPackMatchesPackOfGatheredRows) {
  // The shuffle packs each destination's selection straight from the
  // source rows; its bytes must be those of packing the gathered rows.
  std::mt19937 rng(5150);
  const std::vector<Datum> pool = AllKindsOfDatums();
  for (int iter = 0; iter < 60; ++iter) {
    size_t arity = 1 + rng() % 5;
    size_t count = rng() % 40;
    RowVector rows = RandomWireRows(&rng, pool, arity, count);
    std::vector<TypeId> types = InferRowTypes(rows);
    if (types.size() != arity) types.assign(arity, TypeId::kInvalid);
    SelVector sel;
    RowVector gathered;
    for (size_t r = 0; r < count; ++r) {
      if (rng() % 3 == 0) continue;
      sel.push_back(static_cast<int32_t>(r));
      gathered.push_back(rows[r]);
    }
    std::vector<uint8_t> selected, dense;
    ASSERT_TRUE(PackRowsColumnarSelected(rows, sel, types, &selected).ok());
    ASSERT_TRUE(
        PackRowsColumnar(gathered, 0, gathered.size(), types, &dense).ok());
    EXPECT_EQ(selected, dense) << "iter " << iter;
  }
}

TEST_F(DmsTest, CalibrationProducesPositiveLambdas) {
  DmsCostParameters p = CalibrateCostModel(2000);
  EXPECT_GT(p.lambda_reader_direct, 0);
  EXPECT_GT(p.lambda_reader_hash, 0);
  EXPECT_GT(p.lambda_network, 0);
  EXPECT_GT(p.lambda_writer, 0);
  EXPECT_GT(p.lambda_bulkcopy, 0);
  // Hashing costs at least as much as direct reads (paper §3.3.3).
  EXPECT_GE(p.lambda_reader_hash, p.lambda_reader_direct * 0.8);
}

}  // namespace
}  // namespace pdw
