// Compact binary on-disk format for generalized relations.
//
// The text format (storage/text_format.h) re-tokenizes and re-parses the
// whole catalog on every start; this module is the mmap-able binary
// counterpart that the WAL and snapshot machinery (storage/wal) builds on.
// A file is a sequence of per-relation SEGMENTS between a fixed header and
// a trailing CRC32:
//
//   FileHeader   magic "ITDB", format version, commit version,
//                segment count, header-comment count + comments
//   Segment*     one per relation epoch (see below)
//   Footer       CRC32 of every preceding byte
//
// Each segment stores its rows column-major ("struct of arrays"):
//
//   name, [epoch_from, epoch_to)          epoch = contiguous system-time
//                                         interval with one fixed schema
//   schema                                temporal names, data names+types
//   sys_from[n], sys_to[n]                system-period columns: row t was
//                                         asserted at version sys_from[t]
//                                         and retracted at sys_to[t]
//                                         (kOpenVersion = still current)
//   lrp columns                           per temporal attribute: n offsets
//                                         then n periods
//   data columns                          per data attribute: n int64s, or
//                                         a string dictionary + n ids
//   dbm flags[n], dbm slab                closure/feasibility flags plus
//                                         the (k+1)^2 x n bound matrices,
//                                         ENTRY-MAJOR: all n rows' entry
//                                         (p, q) lie next to each other,
//                                         slab[(p*(k+1)+q)*n + t]
//
// The encoding is EXACT: every tuple round-trips bit-identically, including
// the closure state of its constraint matrix (Dbm::FromEntries), so a
// database decoded from a snapshot or WAL record compares equal -- tuple by
// tuple, matrix bit by matrix bit -- to the one that was encoded.  That
// exactness is what lets the crash-recovery CI gate demand byte-identical
// query output from a recovered server.  In practice rows arrive here
// canonicalized (the parser and the algebra hand over closed systems), so
// the on-disk slab is the canonical closure, but the format never forces a
// re-closure that could perturb bits.
//
// All integers are little-endian and alignment-free (arrays are memcpy'd
// out of the mapped file, never dereferenced in place), so a file written
// on any supported host loads on any other.

#ifndef ITDB_STORAGE_BINARY_BINARY_FORMAT_H_
#define ITDB_STORAGE_BINARY_BINARY_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/relation.h"
#include "core/schema.h"
#include "storage/database.h"
#include "util/status.h"

namespace itdb {
namespace storage {

/// System-time sentinel: the row (or epoch) has not been retracted.
inline constexpr std::uint64_t kOpenVersion =
    std::numeric_limits<std::uint64_t>::max();

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `bytes`.  Used to frame
/// WAL records and to seal snapshot files.
std::uint32_t Crc32(std::string_view bytes);

/// Little-endian wire primitives shared with the WAL framing
/// (storage/wal/wal.h).  The Read* forms advance `*pos` and fail with a
/// parse error on truncation.
namespace wire {
void PutU32(std::string* out, std::uint32_t v);
void PutU64(std::string* out, std::uint64_t v);
void PutString(std::string* out, std::string_view s);
Result<std::uint32_t> ReadU32(std::string_view bytes, std::size_t* pos);
Result<std::uint64_t> ReadU64(std::string_view bytes, std::size_t* pos);
Result<std::string> ReadString(std::string_view bytes, std::size_t* pos);
}  // namespace wire

/// One stored row: a generalized tuple plus its system period.  A row is
/// CURRENT when sys_to == kOpenVersion, historical otherwise.
struct SegmentRow {
  GeneralizedTuple tuple{std::vector<Lrp>{}};
  std::uint64_t sys_from = 0;
  std::uint64_t sys_to = kOpenVersion;
};

/// One relation epoch: a maximal system-time interval over which the
/// relation existed under one schema.  A plain database save has exactly
/// one epoch per relation ([0, open)); the storage engine's bitemporal
/// history may carry several (drop + redefine opens a new epoch).
struct RelationSegment {
  std::string name;
  Schema schema;
  std::uint64_t epoch_from = 0;
  std::uint64_t epoch_to = kOpenVersion;
  std::vector<SegmentRow> rows;
};

/// Serializes one segment onto `out`.  Fails when a data value's type
/// contradicts the schema (the dictionary encoder must know each column's
/// type up front).
Status AppendSegment(const RelationSegment& segment, std::string* out);

/// Decodes one segment starting at `*offset`, advancing it past the
/// segment.  Fails on truncation or malformed contents.
Result<RelationSegment> ReadSegment(std::string_view bytes,
                                    std::size_t* offset);

/// A whole decoded file.
struct SnapshotFile {
  /// The storage-engine commit version the segments are consistent with
  /// (0 for plain database saves).
  std::uint64_t commit_version = 0;
  /// File-level `# `-comment lines (Database::header_comments).
  std::vector<std::string> header_comments;
  std::vector<RelationSegment> segments;
};

/// Encodes header + segments + trailing CRC.
Result<std::string> EncodeSnapshot(const SnapshotFile& file);

/// Validates magic, version, and the trailing CRC, then decodes every
/// segment.  A torn or bit-flipped file fails cleanly.
Result<SnapshotFile> DecodeSnapshot(std::string_view bytes);

/// Encodes the catalog's CURRENT state: one single-epoch segment per
/// relation, every row [0, open), comments preserved.
Result<std::string> EncodeDatabase(const Database& db);

/// Inverse of EncodeDatabase: rebuilds a Database whose relations (and
/// ToText rendering) are bit-identical to the encoded one.
Result<Database> DecodeDatabase(std::string_view bytes);

/// Reads a whole file through mmap (falling back to read() for empty or
/// unmappable files).
Result<std::string> ReadFileBytes(const std::string& path);

/// Writes `bytes` atomically: temp file in the same directory, optional
/// fsync, rename over `path`.  Readers never observe a torn file.
Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       bool fsync);

/// EncodeDatabase + WriteFileAtomic.
Status SaveDatabaseFile(const Database& db, const std::string& path);

/// ReadFileBytes + DecodeDatabase.
Result<Database> LoadDatabaseFile(const std::string& path);

}  // namespace storage
}  // namespace itdb

#endif  // ITDB_STORAGE_BINARY_BINARY_FORMAT_H_
