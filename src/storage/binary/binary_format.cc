#include "storage/binary/binary_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <map>
#include <utility>

#include "core/dbm.h"
#include "core/lrp.h"
#include "core/tuple.h"
#include "core/value.h"
#include "obs/metrics.h"
#include "util/errno_message.h"

namespace itdb {
namespace storage {

namespace {

constexpr std::uint32_t kFileMagic = 0x42445449;  // "ITDB" little-endian.
constexpr std::uint32_t kFormatVersion = 1;

// Row flag bits: the exact Dbm state captured at encode time.
constexpr std::uint8_t kFlagClosed = 1;
constexpr std::uint8_t kFlagFeasible = 2;

// Slicing-by-8 CRC tables: kCrcTables[0] is the classic byte-at-a-time
// table; kCrcTables[t][b] advances a CRC whose low byte is b by t+1 zero
// bytes, letting the hot loop fold 8 input bytes per iteration.  The CRC
// guards every snapshot load, so its throughput is on the cold-start path
// the bench floor pins.
std::array<std::array<std::uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int t = 1; t < 8; ++t) {
      tables[t][i] = (tables[t - 1][i] >> 8) ^ tables[0][tables[t - 1][i] & 0xFF];
    }
  }
  return tables;
}

// ---- Little-endian primitives -------------------------------------------

void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutI64(std::string* out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Sequential bounds-checked reader over an encoded buffer.  Every Read*
/// validates the remaining length first, so a truncated or corrupted file
/// fails with a Status instead of reading out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes, std::size_t pos = 0)
      : bytes_(bytes), pos_(pos) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  Result<std::uint8_t> ReadU8() {
    if (remaining() < 1) return Truncated("u8");
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  Result<std::uint32_t> ReadU32() {
    if (remaining() < 4) return Truncated("u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  Result<std::uint64_t> ReadU64() {
    if (remaining() < 8) return Truncated("u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Result<std::int64_t> ReadI64() {
    ITDB_ASSIGN_OR_RETURN(std::uint64_t v, ReadU64());
    return static_cast<std::int64_t>(v);
  }

  Result<std::string> ReadString() {
    ITDB_ASSIGN_OR_RETURN(std::uint32_t len, ReadU32());
    if (remaining() < len) return Truncated("string body");
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  /// Bulk-reads `count` little-endian int64s.  One memcpy on LE hosts.
  Status ReadI64Array(std::size_t count, std::vector<std::int64_t>* out) {
    if (remaining() / 8 < count) return Truncated("i64 array");
    out->resize(count);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out->data(), bytes_.data() + pos_, count * 8);
      pos_ += count * 8;
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        ITDB_ASSIGN_OR_RETURN((*out)[i], ReadI64());
      }
    }
    return Status::Ok();
  }

  Status ReadU64Array(std::size_t count, std::vector<std::uint64_t>* out) {
    if (remaining() / 8 < count) return Truncated("u64 array");
    out->resize(count);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out->data(), bytes_.data() + pos_, count * 8);
      pos_ += count * 8;
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        ITDB_ASSIGN_OR_RETURN((*out)[i], ReadU64());
      }
    }
    return Status::Ok();
  }

 private:
  Status Truncated(const char* what) const {
    return Status::ParseError(std::string("binary file truncated reading ") +
                              what);
  }

  std::string_view bytes_;
  std::size_t pos_;
};

void PutI64Array(std::string* out, const std::int64_t* data,
                 std::size_t count) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(data), count * 8);
  } else {
    for (std::size_t i = 0; i < count; ++i) PutI64(out, data[i]);
  }
}

void PutU64Array(std::string* out, const std::uint64_t* data,
                 std::size_t count) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(data), count * 8);
  } else {
    for (std::size_t i = 0; i < count; ++i) PutU64(out, data[i]);
  }
}

// ---- mmap helper --------------------------------------------------------

/// Read-only view of a whole file, mmap'd when possible.  Holding the
/// object keeps the mapping alive; empty files map to an empty view.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    std::swap(base_, other.base_);
    std::swap(size_, other.size_);
    std::swap(fallback_, other.fallback_);
    return *this;
  }
  ~MappedFile() {
    if (base_ != nullptr) ::munmap(base_, size_);
  }

  static Result<MappedFile> Open(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::NotFound("cannot open \"" + path + "\": " +
                              ErrnoMessage(errno));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::InvalidArgument("cannot stat \"" + path + "\"");
    }
    MappedFile out;
    out.size_ = static_cast<std::size_t>(st.st_size);
    if (out.size_ > 0) {
      void* base = ::mmap(nullptr, out.size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base != MAP_FAILED) {
        out.base_ = base;
      } else {
        // Unmappable (e.g. a pipe-backed test fixture): fall back to read().
        out.fallback_.resize(out.size_);
        std::size_t got = 0;
        while (got < out.size_) {
          ssize_t n = ::read(fd, out.fallback_.data() + got, out.size_ - got);
          if (n <= 0) {
            ::close(fd);
            return Status::InvalidArgument("short read on \"" + path + "\"");
          }
          got += static_cast<std::size_t>(n);
        }
      }
    }
    ::close(fd);
    return out;
  }

  std::string_view view() const {
    if (base_ != nullptr) {
      return {static_cast<const char*>(base_), size_};
    }
    return {fallback_.data(), fallback_.size()};
  }

 private:
  void* base_ = nullptr;
  std::size_t size_ = 0;
  std::string fallback_;
};

}  // namespace

namespace wire {

void PutU32(std::string* out, std::uint32_t v) { ::itdb::storage::PutU32(out, v); }
void PutU64(std::string* out, std::uint64_t v) { ::itdb::storage::PutU64(out, v); }
void PutString(std::string* out, std::string_view s) {
  ::itdb::storage::PutString(out, s);
}

Result<std::uint32_t> ReadU32(std::string_view bytes, std::size_t* pos) {
  ByteReader in(bytes, *pos);
  ITDB_ASSIGN_OR_RETURN(std::uint32_t v, in.ReadU32());
  *pos = in.pos();
  return v;
}

Result<std::uint64_t> ReadU64(std::string_view bytes, std::size_t* pos) {
  ByteReader in(bytes, *pos);
  ITDB_ASSIGN_OR_RETURN(std::uint64_t v, in.ReadU64());
  *pos = in.pos();
  return v;
}

Result<std::string> ReadString(std::string_view bytes, std::size_t* pos) {
  ByteReader in(bytes, *pos);
  ITDB_ASSIGN_OR_RETURN(std::string s, in.ReadString());
  *pos = in.pos();
  return s;
}

}  // namespace wire

std::uint32_t Crc32(std::string_view bytes) {
  static const std::array<std::array<std::uint32_t, 256>, 8> kTables =
      MakeCrcTables();
  const std::uint8_t* p = reinterpret_cast<const std::uint8_t*>(bytes.data());
  std::size_t len = bytes.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    while (len >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
            kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
            kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
      p += 8;
      len -= 8;
    }
  }
  for (; len > 0; --len, ++p) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status AppendSegment(const RelationSegment& segment, std::string* out) {
  const Schema& schema = segment.schema;
  const int k = schema.temporal_arity();
  const int l = schema.data_arity();
  const std::size_t n = segment.rows.size();

  PutString(out, segment.name);
  PutU64(out, segment.epoch_from);
  PutU64(out, segment.epoch_to);
  PutU32(out, static_cast<std::uint32_t>(k));
  PutU32(out, static_cast<std::uint32_t>(l));
  for (int i = 0; i < k; ++i) PutString(out, schema.temporal_name(i));
  for (int j = 0; j < l; ++j) {
    PutString(out, schema.data_name(j));
    PutU8(out, schema.data_type(j) == DataType::kString ? 1 : 0);
  }
  PutU64(out, n);

  for (const SegmentRow& row : segment.rows) {
    if (row.tuple.temporal_arity() != k || row.tuple.data_arity() != l) {
      return Status::InvalidArgument(
          "segment \"" + segment.name +
          "\": tuple arity does not match the schema");
    }
  }

  // System-period columns.
  {
    std::vector<std::uint64_t> column(n);
    for (std::size_t t = 0; t < n; ++t) column[t] = segment.rows[t].sys_from;
    PutU64Array(out, column.data(), n);
    for (std::size_t t = 0; t < n; ++t) column[t] = segment.rows[t].sys_to;
    PutU64Array(out, column.data(), n);
  }

  // Lrp columns, attribute-major: all offsets of attribute i, then all
  // periods.
  {
    std::vector<std::int64_t> column(n);
    for (int i = 0; i < k; ++i) {
      for (std::size_t t = 0; t < n; ++t) {
        column[t] = segment.rows[t].tuple.lrp(i).offset();
      }
      PutI64Array(out, column.data(), n);
      for (std::size_t t = 0; t < n; ++t) {
        column[t] = segment.rows[t].tuple.lrp(i).period();
      }
      PutI64Array(out, column.data(), n);
    }
  }

  // Data columns: raw int64s, or dictionary + per-row ids for strings.
  for (int j = 0; j < l; ++j) {
    if (schema.data_type(j) == DataType::kInt) {
      std::vector<std::int64_t> column(n);
      for (std::size_t t = 0; t < n; ++t) {
        const Value& v = segment.rows[t].tuple.value(j);
        if (!v.IsInt()) {
          return Status::InvalidArgument(
              "segment \"" + segment.name + "\": string value in int column " +
              schema.data_name(j));
        }
        column[t] = v.AsInt();
      }
      PutI64Array(out, column.data(), n);
    } else {
      // First-occurrence dictionary order keeps the encoding deterministic
      // for a given row sequence.
      std::map<std::string_view, std::uint32_t> ids;
      std::vector<std::string_view> dictionary;
      std::vector<std::uint32_t> column(n);
      for (std::size_t t = 0; t < n; ++t) {
        const Value& v = segment.rows[t].tuple.value(j);
        if (!v.IsString()) {
          return Status::InvalidArgument(
              "segment \"" + segment.name + "\": int value in string column " +
              schema.data_name(j));
        }
        auto [it, inserted] = ids.try_emplace(
            v.AsString(), static_cast<std::uint32_t>(dictionary.size()));
        if (inserted) dictionary.push_back(v.AsString());
        column[t] = it->second;
      }
      PutU32(out, static_cast<std::uint32_t>(dictionary.size()));
      for (std::string_view entry : dictionary) PutString(out, entry);
      for (std::uint32_t id : column) PutU32(out, id);
    }
  }

  // Constraint matrices: per-row exact state flags, then the bound entries
  // as one entry-major slab: entry (p, q) of row t lives at
  // slab[(p * nodes + q) * n + t].
  const std::size_t nodes = static_cast<std::size_t>(k) + 1;
  for (const SegmentRow& row : segment.rows) {
    const Dbm& dbm = row.tuple.constraints();
    std::uint8_t flags = 0;
    if (dbm.closed()) flags |= kFlagClosed;
    if (dbm.feasible()) flags |= kFlagFeasible;
    PutU8(out, flags);
  }
  {
    std::vector<std::int64_t> lane(n);
    for (std::size_t p = 0; p < nodes; ++p) {
      for (std::size_t q = 0; q < nodes; ++q) {
        for (std::size_t t = 0; t < n; ++t) {
          lane[t] = segment.rows[t].tuple.constraints().bound_node(
              static_cast<int>(p), static_cast<int>(q));
        }
        PutI64Array(out, lane.data(), n);
      }
    }
  }
  return Status::Ok();
}

Result<RelationSegment> ReadSegment(std::string_view bytes,
                                    std::size_t* offset) {
  ByteReader in(bytes, *offset);
  RelationSegment segment;
  ITDB_ASSIGN_OR_RETURN(segment.name, in.ReadString());
  ITDB_ASSIGN_OR_RETURN(segment.epoch_from, in.ReadU64());
  ITDB_ASSIGN_OR_RETURN(segment.epoch_to, in.ReadU64());
  ITDB_ASSIGN_OR_RETURN(std::uint32_t k32, in.ReadU32());
  ITDB_ASSIGN_OR_RETURN(std::uint32_t l32, in.ReadU32());
  // Arity sanity bound: each attribute costs >= 4 bytes of name length.
  if (k32 > in.remaining() || l32 > in.remaining()) {
    return Status::ParseError("binary segment: implausible arity");
  }
  const int k = static_cast<int>(k32);
  const int l = static_cast<int>(l32);
  std::vector<std::string> temporal_names;
  temporal_names.reserve(k32);
  for (int i = 0; i < k; ++i) {
    ITDB_ASSIGN_OR_RETURN(std::string name, in.ReadString());
    temporal_names.push_back(std::move(name));
  }
  std::vector<std::string> data_names;
  std::vector<DataType> data_types;
  data_names.reserve(l32);
  data_types.reserve(l32);
  for (int j = 0; j < l; ++j) {
    ITDB_ASSIGN_OR_RETURN(std::string name, in.ReadString());
    ITDB_ASSIGN_OR_RETURN(std::uint8_t type, in.ReadU8());
    if (type > 1) return Status::ParseError("binary segment: bad data type");
    data_names.push_back(std::move(name));
    data_types.push_back(type == 1 ? DataType::kString : DataType::kInt);
  }
  segment.schema = Schema(std::move(temporal_names), std::move(data_names),
                          std::move(data_types));

  ITDB_ASSIGN_OR_RETURN(std::uint64_t n64, in.ReadU64());
  // Every row costs at least one flag byte plus one slab entry; reject
  // counts the remaining bytes cannot possibly hold before allocating.
  if (n64 > in.remaining()) {
    return Status::ParseError("binary segment: implausible row count");
  }
  const std::size_t n = static_cast<std::size_t>(n64);

  std::vector<std::uint64_t> sys_from;
  std::vector<std::uint64_t> sys_to;
  ITDB_RETURN_IF_ERROR(in.ReadU64Array(n, &sys_from));
  ITDB_RETURN_IF_ERROR(in.ReadU64Array(n, &sys_to));

  std::vector<std::vector<Lrp>> temporal(n, std::vector<Lrp>());
  for (std::size_t t = 0; t < n; ++t) {
    temporal[t].reserve(static_cast<std::size_t>(k));
  }
  {
    std::vector<std::int64_t> offsets;
    std::vector<std::int64_t> periods;
    for (int i = 0; i < k; ++i) {
      ITDB_RETURN_IF_ERROR(in.ReadI64Array(n, &offsets));
      ITDB_RETURN_IF_ERROR(in.ReadI64Array(n, &periods));
      for (std::size_t t = 0; t < n; ++t) {
        temporal[t].push_back(Lrp::Make(offsets[t], periods[t]));
      }
    }
  }

  std::vector<std::vector<Value>> data(n, std::vector<Value>());
  for (std::size_t t = 0; t < n; ++t) {
    data[t].reserve(static_cast<std::size_t>(l));
  }
  for (int j = 0; j < l; ++j) {
    if (segment.schema.data_type(j) == DataType::kInt) {
      std::vector<std::int64_t> column;
      ITDB_RETURN_IF_ERROR(in.ReadI64Array(n, &column));
      for (std::size_t t = 0; t < n; ++t) data[t].emplace_back(column[t]);
    } else {
      ITDB_ASSIGN_OR_RETURN(std::uint32_t dict_size, in.ReadU32());
      if (dict_size > in.remaining()) {
        return Status::ParseError("binary segment: implausible dictionary");
      }
      std::vector<std::string> dictionary;
      dictionary.reserve(dict_size);
      for (std::uint32_t d = 0; d < dict_size; ++d) {
        ITDB_ASSIGN_OR_RETURN(std::string entry, in.ReadString());
        dictionary.push_back(std::move(entry));
      }
      for (std::size_t t = 0; t < n; ++t) {
        ITDB_ASSIGN_OR_RETURN(std::uint32_t id, in.ReadU32());
        if (id >= dictionary.size()) {
          return Status::ParseError("binary segment: dictionary id range");
        }
        data[t].emplace_back(dictionary[id]);
      }
    }
  }

  std::vector<std::uint8_t> flags(n);
  for (std::size_t t = 0; t < n; ++t) {
    ITDB_ASSIGN_OR_RETURN(flags[t], in.ReadU8());
  }
  const std::size_t nodes = static_cast<std::size_t>(k) + 1;
  std::vector<std::int64_t> slab;
  ITDB_RETURN_IF_ERROR(in.ReadI64Array(nodes * nodes * n, &slab));

  segment.rows.reserve(n);
  std::vector<std::int64_t> entries(nodes * nodes);
  for (std::size_t t = 0; t < n; ++t) {
    SegmentRow row;
    row.sys_from = sys_from[t];
    row.sys_to = sys_to[t];
    // Gather this row's matrix out of the entry-major slab.
    for (std::size_t p = 0; p < nodes; ++p) {
      for (std::size_t q = 0; q < nodes; ++q) {
        entries[p * nodes + q] = slab[(p * nodes + q) * n + t];
      }
    }
    GeneralizedTuple tuple(std::move(temporal[t]), std::move(data[t]));
    tuple.set_constraints(Dbm::FromEntries(k, entries.data(),
                                           (flags[t] & kFlagClosed) != 0,
                                           (flags[t] & kFlagFeasible) != 0));
    row.tuple = std::move(tuple);
    segment.rows.push_back(std::move(row));
  }
  *offset = in.pos();
  return segment;
}

Result<std::string> EncodeSnapshot(const SnapshotFile& file) {
  std::string out;
  PutU32(&out, kFileMagic);
  PutU32(&out, kFormatVersion);
  PutU64(&out, file.commit_version);
  PutU32(&out, static_cast<std::uint32_t>(file.segments.size()));
  PutU32(&out, static_cast<std::uint32_t>(file.header_comments.size()));
  for (const std::string& comment : file.header_comments) {
    PutString(&out, comment);
  }
  for (const RelationSegment& segment : file.segments) {
    ITDB_RETURN_IF_ERROR(AppendSegment(segment, &out));
  }
  PutU32(&out, Crc32(out));
  obs::AddGlobalCounter("storage.snapshot_bytes",
                        static_cast<std::int64_t>(out.size()));
  return out;
}

Result<SnapshotFile> DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() < 28) {
    return Status::ParseError("binary file: too short for a header");
  }
  const std::uint32_t stored_crc = Crc32(bytes.substr(0, bytes.size() - 4));
  ByteReader crc_in(bytes, bytes.size() - 4);
  ITDB_ASSIGN_OR_RETURN(std::uint32_t file_crc, crc_in.ReadU32());
  if (stored_crc != file_crc) {
    return Status::ParseError("binary file: CRC mismatch (torn or corrupt)");
  }
  ByteReader in(bytes);
  ITDB_ASSIGN_OR_RETURN(std::uint32_t magic, in.ReadU32());
  if (magic != kFileMagic) {
    return Status::ParseError("binary file: bad magic (not an itdb file)");
  }
  ITDB_ASSIGN_OR_RETURN(std::uint32_t version, in.ReadU32());
  if (version != kFormatVersion) {
    return Status::ParseError("binary file: unsupported format version " +
                              std::to_string(version));
  }
  SnapshotFile file;
  ITDB_ASSIGN_OR_RETURN(file.commit_version, in.ReadU64());
  ITDB_ASSIGN_OR_RETURN(std::uint32_t segment_count, in.ReadU32());
  ITDB_ASSIGN_OR_RETURN(std::uint32_t comment_count, in.ReadU32());
  if (comment_count > in.remaining()) {
    return Status::ParseError("binary file: implausible comment count");
  }
  file.header_comments.reserve(comment_count);
  for (std::uint32_t c = 0; c < comment_count; ++c) {
    ITDB_ASSIGN_OR_RETURN(std::string comment, in.ReadString());
    file.header_comments.push_back(std::move(comment));
  }
  std::size_t offset = in.pos();
  const std::size_t body_end = bytes.size() - 4;
  file.segments.reserve(segment_count);
  for (std::uint32_t s = 0; s < segment_count; ++s) {
    ITDB_ASSIGN_OR_RETURN(RelationSegment segment,
                          ReadSegment(bytes.substr(0, body_end), &offset));
    file.segments.push_back(std::move(segment));
  }
  if (offset != body_end) {
    return Status::ParseError("binary file: trailing bytes after segments");
  }
  return file;
}

Result<std::string> EncodeDatabase(const Database& db) {
  SnapshotFile file;
  file.header_comments = db.header_comments();
  for (const std::string& name : db.Names()) {
    RelationSegment segment;
    segment.name = name;
    const GeneralizedRelation relation = db.Get(name).value();
    segment.schema = relation.schema();
    segment.rows.reserve(static_cast<std::size_t>(relation.size()));
    for (const GeneralizedTuple& tuple : relation.tuples()) {
      segment.rows.push_back(SegmentRow{tuple, 0, kOpenVersion});
    }
    file.segments.push_back(std::move(segment));
  }
  return EncodeSnapshot(file);
}

Result<Database> DecodeDatabase(std::string_view bytes) {
  ITDB_ASSIGN_OR_RETURN(SnapshotFile file, DecodeSnapshot(bytes));
  Database db;
  for (RelationSegment& segment : file.segments) {
    GeneralizedRelation relation(segment.schema);
    relation.ReserveTuples(segment.rows.size());
    for (SegmentRow& row : segment.rows) {
      if (row.sys_to != kOpenVersion) continue;  // Historical row.
      ITDB_RETURN_IF_ERROR(relation.AddTuple(std::move(row.tuple)));
    }
    ITDB_RETURN_IF_ERROR(db.Add(segment.name, std::move(relation)));
  }
  db.set_header_comments(std::move(file.header_comments));
  return db;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  ITDB_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  return std::string(file.view());
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       bool fsync) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot write \"" + tmp + "\": " +
                                   ErrnoMessage(errno));
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::InvalidArgument("short write on \"" + tmp + "\"");
    }
    written += static_cast<std::size_t>(n);
  }
  if (fsync && ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::InvalidArgument("fsync failed on \"" + tmp + "\"");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::InvalidArgument("cannot rename \"" + tmp + "\" to \"" +
                                   path + "\"");
  }
  return Status::Ok();
}

Status SaveDatabaseFile(const Database& db, const std::string& path) {
  ITDB_ASSIGN_OR_RETURN(std::string bytes, EncodeDatabase(db));
  return WriteFileAtomic(path, bytes, /*fsync=*/false);
}

Result<Database> LoadDatabaseFile(const std::string& path) {
  ITDB_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  return DecodeDatabase(file.view());
}

}  // namespace storage
}  // namespace itdb
