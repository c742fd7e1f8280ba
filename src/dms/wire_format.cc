#include "dms/wire_format.h"

#include <cstring>

namespace pdw {

namespace {

void AppendBytes(const void* data, size_t n, std::vector<uint8_t>* buffer) {
  const auto* p = static_cast<const uint8_t*>(data);
  buffer->insert(buffer->end(), p, p + n);
}

Status ReadBytes(const std::vector<uint8_t>& buffer, size_t* offset, void* out,
                 size_t n) {
  if (*offset + n > buffer.size()) {
    return Status::Internal("DMS buffer underrun");
  }
  std::memcpy(out, buffer.data() + *offset, n);
  *offset += n;
  return Status::OK();
}

// Column flags of the wire batch.
constexpr uint8_t kFlagHasNulls = 1;
constexpr uint8_t kFlagVariant = 2;

}  // namespace

Status ValidateWireString(size_t length) {
  if (length > kDmsMaxVarcharBytes) {
    return Status::InvalidArgument(
        "DMS wire format: varchar exceeds 32-bit length limit");
  }
  return Status::OK();
}

Result<size_t> PackDatum(const Datum& d, std::vector<uint8_t>* buffer) {
  size_t start = buffer->size();
  uint8_t tag = static_cast<uint8_t>(d.type());
  AppendBytes(&tag, 1, buffer);
  switch (d.type()) {
    case TypeId::kInvalid:
      break;  // NULL: tag only
    case TypeId::kBool: {
      uint8_t v = d.bool_value() ? 1 : 0;
      AppendBytes(&v, 1, buffer);
      break;
    }
    case TypeId::kInt: {
      int64_t v = d.int_value();
      AppendBytes(&v, sizeof(v), buffer);
      break;
    }
    case TypeId::kDate: {
      int32_t v = d.date_value();
      AppendBytes(&v, sizeof(v), buffer);
      break;
    }
    case TypeId::kDouble: {
      double v = d.double_value();
      AppendBytes(&v, sizeof(v), buffer);
      break;
    }
    case TypeId::kVarchar: {
      const std::string& s = d.string_value();
      PDW_RETURN_NOT_OK(ValidateWireString(s.size()));
      uint32_t len = static_cast<uint32_t>(s.size());
      AppendBytes(&len, sizeof(len), buffer);
      AppendBytes(s.data(), s.size(), buffer);
      break;
    }
  }
  return buffer->size() - start;
}

Result<Datum> UnpackDatum(const std::vector<uint8_t>& buffer, size_t* offset) {
  uint8_t tag = 0;
  PDW_RETURN_NOT_OK(ReadBytes(buffer, offset, &tag, 1));
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kInvalid:
      return Datum::Null();
    case TypeId::kBool: {
      uint8_t v = 0;
      PDW_RETURN_NOT_OK(ReadBytes(buffer, offset, &v, 1));
      return Datum::Bool(v != 0);
    }
    case TypeId::kInt: {
      int64_t v = 0;
      PDW_RETURN_NOT_OK(ReadBytes(buffer, offset, &v, sizeof(v)));
      return Datum::Int(v);
    }
    case TypeId::kDate: {
      int32_t v = 0;
      PDW_RETURN_NOT_OK(ReadBytes(buffer, offset, &v, sizeof(v)));
      return Datum::Date(v);
    }
    case TypeId::kDouble: {
      double v = 0;
      PDW_RETURN_NOT_OK(ReadBytes(buffer, offset, &v, sizeof(v)));
      return Datum::Double(v);
    }
    case TypeId::kVarchar: {
      uint32_t len = 0;
      PDW_RETURN_NOT_OK(ReadBytes(buffer, offset, &len, sizeof(len)));
      if (*offset + len > buffer.size()) {
        return Status::Internal("DMS buffer underrun (string)");
      }
      Datum d = Datum::Varchar(std::string(
          reinterpret_cast<const char*>(buffer.data() + *offset), len));
      *offset += len;
      return d;
    }
    default:
      return Status::Internal("DMS buffer: bad type tag");
  }
}

namespace {

/// Shared core of PackRowsColumnar / ...Selected: packs `n` rows, the i-th
/// being rows[row_at(i)], column-at-a-time.
template <typename RowAt>
Result<size_t> PackRowsCore(const RowVector& rows, size_t n, RowAt row_at,
                            const std::vector<TypeId>& types,
                            std::vector<uint8_t>* buffer) {
  size_t start = buffer->size();
  // Reserve the fixed-width footprint up front (header + per-column tag,
  // bitmap, and value plane; varchar blobs grow beyond this) so the pack
  // loops don't pay incremental realloc copies.
  size_t estimate = start + sizeof(uint32_t) + sizeof(uint16_t);
  for (TypeId t : types) {
    size_t width = t == TypeId::kBool     ? 1
                   : t == TypeId::kDate   ? sizeof(int32_t)
                   : t == TypeId::kInvalid ? 0
                                           : sizeof(int64_t);
    estimate += 2 + (n + 7) / 8 + n * width;
  }
  buffer->reserve(estimate);
  uint32_t rows32 = static_cast<uint32_t>(n);
  uint16_t cols = static_cast<uint16_t>(types.size());
  AppendBytes(&rows32, sizeof(rows32), buffer);
  AppendBytes(&cols, sizeof(cols), buffer);
  for (size_t c = 0; c < types.size(); ++c) {
    TypeId declared = types[c];
    // Pre-scan: nullability and whether every non-NULL cell matches the
    // declared type (a CASE mixing INT/DOUBLE branches degrades the column
    // to the variant encoding — correctness never depends on the schema).
    bool has_nulls = false;
    bool variant = false;
    for (size_t i = 0; i < n; ++i) {
      const Datum& d = rows[row_at(i)][c];
      if (d.is_null()) {
        has_nulls = true;
      } else if (d.type() != declared) {
        variant = true;
        break;
      }
    }
    uint8_t tag = static_cast<uint8_t>(declared);
    uint8_t flags = 0;
    if (variant) {
      flags |= kFlagVariant;
    } else if (has_nulls) {
      flags |= kFlagHasNulls;
    }
    AppendBytes(&tag, 1, buffer);
    AppendBytes(&flags, 1, buffer);
    if (variant) {
      for (size_t i = 0; i < n; ++i) {
        PDW_RETURN_NOT_OK(PackDatum(rows[row_at(i)][c], buffer).status());
      }
      continue;
    }
    if (has_nulls) {
      size_t bitmap_bytes = (n + 7) / 8;
      size_t at = buffer->size();
      buffer->resize(at + bitmap_bytes, 0);
      for (size_t i = 0; i < n; ++i) {
        if (rows[row_at(i)][c].is_null()) {
          (*buffer)[at + i / 8] |= uint8_t(1u << (i % 8));
        }
      }
    }
    switch (declared) {
      case TypeId::kBool: {
        size_t at = buffer->size();
        buffer->resize(at + n);
        for (size_t i = 0; i < n; ++i) {
          const Datum& d = rows[row_at(i)][c];
          (*buffer)[at + i] = !d.is_null() && d.bool_value() ? 1 : 0;
        }
        break;
      }
      case TypeId::kDate: {
        size_t at = buffer->size();
        buffer->resize(at + n * sizeof(int32_t));
        auto* out = reinterpret_cast<int32_t*>(buffer->data() + at);
        for (size_t i = 0; i < n; ++i) {
          const Datum& d = rows[row_at(i)][c];
          out[i] = d.is_null() ? 0 : d.date_value();
        }
        break;
      }
      case TypeId::kInt: {
        size_t at = buffer->size();
        buffer->resize(at + n * sizeof(int64_t));
        auto* out = reinterpret_cast<int64_t*>(buffer->data() + at);
        for (size_t i = 0; i < n; ++i) {
          const Datum& d = rows[row_at(i)][c];
          out[i] = d.is_null() ? 0 : d.int_value();
        }
        break;
      }
      case TypeId::kDouble: {
        size_t at = buffer->size();
        buffer->resize(at + n * sizeof(double));
        auto* out = reinterpret_cast<double*>(buffer->data() + at);
        for (size_t i = 0; i < n; ++i) {
          const Datum& d = rows[row_at(i)][c];
          out[i] = d.is_null() ? 0 : d.double_value();
        }
        break;
      }
      case TypeId::kVarchar: {
        size_t at = buffer->size();
        buffer->resize(at + n * sizeof(uint32_t));
        size_t blob = 0;
        {
          auto* lens = reinterpret_cast<uint32_t*>(buffer->data() + at);
          for (size_t i = 0; i < n; ++i) {
            const Datum& d = rows[row_at(i)][c];
            size_t len = d.is_null() ? 0 : d.string_value().size();
            PDW_RETURN_NOT_OK(ValidateWireString(len));
            lens[i] = static_cast<uint32_t>(len);
            blob += len;
          }
        }
        size_t blob_at = buffer->size();
        buffer->resize(blob_at + blob);
        for (size_t i = 0; i < n; ++i) {
          const Datum& d = rows[row_at(i)][c];
          if (d.is_null()) continue;
          const std::string& s = d.string_value();
          std::memcpy(buffer->data() + blob_at, s.data(), s.size());
          blob_at += s.size();
        }
        break;
      }
      case TypeId::kInvalid:
        break;  // all-NULL column: the bitmap alone carries it
    }
  }
  return buffer->size() - start;
}

}  // namespace

Result<size_t> PackRowsColumnar(const RowVector& rows, size_t begin,
                                size_t end, const std::vector<TypeId>& types,
                                std::vector<uint8_t>* buffer) {
  return PackRowsCore(
      rows, end - begin, [begin](size_t i) { return begin + i; }, types,
      buffer);
}

Result<size_t> PackRowsColumnarSelected(const RowVector& rows,
                                        const SelVector& sel,
                                        const std::vector<TypeId>& types,
                                        std::vector<uint8_t>* buffer) {
  const int32_t* s = sel.data();
  return PackRowsCore(
      rows, sel.size(), [s](size_t i) { return static_cast<size_t>(s[i]); },
      types, buffer);
}

void HashPartitionRows(const RowVector& rows, size_t begin, size_t end,
                       const std::vector<int>& hash_ordinals, int num_nodes,
                       std::vector<SelVector>* out) {
  out->assign(static_cast<size_t>(num_nodes), SelVector{});
  if (end <= begin || num_nodes <= 0) return;
  size_t n = end - begin;
  if (num_nodes == 1) {
    SelVector& all = (*out)[0];
    all.resize(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<int32_t>(begin + i);
    return;
  }
  // Column-at-a-time over the flat hash array — the HashRowColumns recipe
  // with the column loop hoisted outside the row loop.
  std::vector<size_t> hashes(n, kRowHashSeed);
  for (int ord : hash_ordinals) {
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = MixColumnHash(
          hashes[i], rows[begin + i][static_cast<size_t>(ord)].Hash());
    }
  }
  // Count-then-scatter: sized destinations avoid push_back regrowth.
  std::vector<size_t> counts(static_cast<size_t>(num_nodes), 0);
  for (size_t i = 0; i < n; ++i) {
    hashes[i] %= static_cast<size_t>(num_nodes);
    ++counts[hashes[i]];
  }
  for (int d = 0; d < num_nodes; ++d) {
    (*out)[static_cast<size_t>(d)].reserve(counts[static_cast<size_t>(d)]);
  }
  for (size_t i = 0; i < n; ++i) {
    (*out)[hashes[i]].push_back(static_cast<int32_t>(begin + i));
  }
}

Result<size_t> UnpackBatchToRows(const std::vector<uint8_t>& buffer,
                                 size_t* offset, RowVector* out) {
  uint32_t rows = 0;
  uint16_t cols = 0;
  PDW_RETURN_NOT_OK(ReadBytes(buffer, offset, &rows, sizeof(rows)));
  PDW_RETURN_NOT_OK(ReadBytes(buffer, offset, &cols, sizeof(cols)));
  size_t base = out->size();
  out->resize(base + rows, Row(cols));  // cells start NULL
  Row* dest = out->data() + base;
  std::vector<uint8_t> null_bytes;  // byte-per-row scratch, reused per column
  for (uint16_t c = 0; c < cols; ++c) {
    uint8_t tag = 0;
    uint8_t flags = 0;
    PDW_RETURN_NOT_OK(ReadBytes(buffer, offset, &tag, 1));
    PDW_RETURN_NOT_OK(ReadBytes(buffer, offset, &flags, 1));
    if (tag > static_cast<uint8_t>(TypeId::kDate)) {
      return Status::Internal("DMS batch: bad column type tag");
    }
    TypeId declared = static_cast<TypeId>(tag);
    if ((flags & kFlagVariant) != 0) {
      for (uint32_t r = 0; r < rows; ++r) {
        PDW_ASSIGN_OR_RETURN(Datum d, UnpackDatum(buffer, offset));
        dest[r][c] = std::move(d);
      }
      continue;
    }
    bool has_nulls = (flags & kFlagHasNulls) != 0;
    const uint8_t* null_ptr = nullptr;
    if (has_nulls) {
      size_t bitmap_bytes = (static_cast<size_t>(rows) + 7) / 8;
      if (*offset + bitmap_bytes > buffer.size()) {
        return Status::Internal("DMS buffer underrun (null bitmap)");
      }
      const uint8_t* bitmap = buffer.data() + *offset;
      *offset += bitmap_bytes;
      null_bytes.assign(rows, 0);
      for (uint32_t r = 0; r < rows; ++r) {
        null_bytes[r] = (bitmap[r / 8] >> (r % 8)) & 1;
      }
      null_ptr = null_bytes.data();
    }
    switch (declared) {
      case TypeId::kBool: {
        if (*offset + rows > buffer.size()) {
          return Status::Internal("DMS buffer underrun (bool plane)");
        }
        const uint8_t* v = buffer.data() + *offset;
        *offset += rows;
        for (uint32_t r = 0; r < rows; ++r) {
          if (null_ptr != nullptr && null_ptr[r] != 0) continue;
          dest[r][c] = Datum::Bool(v[r] != 0);
        }
        break;
      }
      case TypeId::kDate: {
        size_t plane = static_cast<size_t>(rows) * sizeof(int32_t);
        if (*offset + plane > buffer.size()) {
          return Status::Internal("DMS buffer underrun (date plane)");
        }
        const auto* v =
            reinterpret_cast<const int32_t*>(buffer.data() + *offset);
        *offset += plane;
        for (uint32_t r = 0; r < rows; ++r) {
          if (null_ptr != nullptr && null_ptr[r] != 0) continue;
          dest[r][c] = Datum::Date(v[r]);
        }
        break;
      }
      case TypeId::kInt: {
        size_t plane = static_cast<size_t>(rows) * sizeof(int64_t);
        if (*offset + plane > buffer.size()) {
          return Status::Internal("DMS buffer underrun (int plane)");
        }
        const auto* v =
            reinterpret_cast<const int64_t*>(buffer.data() + *offset);
        *offset += plane;
        for (uint32_t r = 0; r < rows; ++r) {
          if (null_ptr != nullptr && null_ptr[r] != 0) continue;
          dest[r][c] = Datum::Int(v[r]);
        }
        break;
      }
      case TypeId::kDouble: {
        size_t plane = static_cast<size_t>(rows) * sizeof(double);
        if (*offset + plane > buffer.size()) {
          return Status::Internal("DMS buffer underrun (double plane)");
        }
        const auto* v =
            reinterpret_cast<const double*>(buffer.data() + *offset);
        *offset += plane;
        for (uint32_t r = 0; r < rows; ++r) {
          if (null_ptr != nullptr && null_ptr[r] != 0) continue;
          dest[r][c] = Datum::Double(v[r]);
        }
        break;
      }
      case TypeId::kVarchar: {
        size_t lens_bytes = static_cast<size_t>(rows) * sizeof(uint32_t);
        if (*offset + lens_bytes > buffer.size()) {
          return Status::Internal("DMS buffer underrun (varchar lengths)");
        }
        const auto* lens =
            reinterpret_cast<const uint32_t*>(buffer.data() + *offset);
        *offset += lens_bytes;
        for (uint32_t r = 0; r < rows; ++r) {
          if (*offset + lens[r] > buffer.size()) {
            return Status::Internal("DMS buffer underrun (varchar blob)");
          }
          if (null_ptr != nullptr && null_ptr[r] != 0) {
            if (lens[r] != 0) {
              return Status::Internal("DMS batch: NULL varchar with payload");
            }
          } else {
            dest[r][c] = Datum::Varchar(std::string(
                reinterpret_cast<const char*>(buffer.data() + *offset),
                lens[r]));
          }
          *offset += lens[r];
        }
        break;
      }
      case TypeId::kInvalid:
        // All-NULL column: the bitmap alone carries it; cells stay NULL.
        for (uint32_t r = 0; r < rows; ++r) {
          if (null_ptr == nullptr || null_ptr[r] == 0) {
            return Status::Internal("DMS batch: typeless non-NULL column");
          }
        }
        break;
    }
  }
  return static_cast<size_t>(rows);
}

std::vector<TypeId> InferRowTypes(const RowVector& rows) {
  std::vector<TypeId> types;
  if (rows.empty()) return types;
  types.assign(rows[0].size(), TypeId::kInvalid);
  size_t unresolved = types.size();
  for (const Row& row : rows) {
    for (size_t c = 0; c < types.size() && c < row.size(); ++c) {
      if (types[c] == TypeId::kInvalid && !row[c].is_null()) {
        types[c] = row[c].type();
        if (--unresolved == 0) return types;
      }
    }
  }
  return types;
}

}  // namespace pdw
