#ifndef PDW_DMS_WIRE_FORMAT_H_
#define PDW_DMS_WIRE_FORMAT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/row.h"
#include "engine/batch.h"

namespace pdw {

/// Largest varchar the wire format can carry: length fields on the wire
/// are 32-bit. The packers reject longer strings instead of silently
/// truncating the length and corrupting the stream.
inline constexpr size_t kDmsMaxVarcharBytes = UINT32_MAX;

/// The packers' varchar guard; kept separately callable so the boundary is
/// testable without allocating a 4 GiB string.
Status ValidateWireString(size_t length);

/// Serializes one Datum as [u8 type tag][payload]; NULL is tag-only. The
/// cell encoding of variant columns (see PackRowsColumnar).
Result<size_t> PackDatum(const Datum& d, std::vector<uint8_t>* buffer);

/// Inverse of PackDatum; reads one value starting at `offset`, advancing
/// it. Fails cleanly on truncated input or an unknown type tag.
Result<Datum> UnpackDatum(const std::vector<uint8_t>& buffer, size_t* offset);

/// Packs rows[begin, end) straight from row storage into one columnar wire
/// batch, column-at-a-time:
///   [u32 rows][u16 cols] then per column
///   [u8 declared TypeId][u8 flags][bit-packed null bitmap when flagged]
///   [value plane: bytes/int32s/int64s/doubles, or u32 length array +
///    string blob, or PackDatum cells for variant columns].
/// `types` declares one TypeId per column (kInvalid = all-NULL); a column
/// whose non-NULL cells diverge from the declared type travels as a
/// variant column. Returns the encoded size appended to `buffer`.
Result<size_t> PackRowsColumnar(const RowVector& rows, size_t begin, size_t end,
                                const std::vector<TypeId>& types,
                                std::vector<uint8_t>* buffer);

/// PackRowsColumnar of the selected rows (absolute indices into `rows`),
/// in selection order — the shuffle packs each destination's slice straight
/// from the shared source rows. The bytes are exactly those of packing the
/// gathered rows.
Result<size_t> PackRowsColumnarSelected(const RowVector& rows,
                                        const SelVector& sel,
                                        const std::vector<TypeId>& types,
                                        std::vector<uint8_t>* buffer);

/// Vectorized shuffle routing: hashes the key columns of rows[begin, end)
/// column-at-a-time and scatters *absolute* row indices into one selection
/// vector per destination. Same MixColumnHash chain as HashRowColumns, so
/// it agrees with DmsService::TargetNode for every type and NULL.
void HashPartitionRows(const RowVector& rows, size_t begin, size_t end,
                       const std::vector<int>& hash_ordinals, int num_nodes,
                       std::vector<SelVector>* out);

/// Inverse of PackRowsColumnar: decodes one wire batch starting at
/// `offset`, advancing it, and appends its rows to `out`. Returns the
/// number of rows appended. Fails cleanly on truncation or malformed
/// headers.
Result<size_t> UnpackBatchToRows(const std::vector<uint8_t>& buffer,
                                 size_t* offset, RowVector* out);

/// Declared type of each column, inferred from the first non-NULL cell of
/// each column across `rows` (kInvalid for all-NULL columns). The DMS
/// pipeline uses this when the caller has no destination schema.
std::vector<TypeId> InferRowTypes(const RowVector& rows);

}  // namespace pdw

#endif  // PDW_DMS_WIRE_FORMAT_H_
