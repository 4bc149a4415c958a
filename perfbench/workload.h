// Seeded workloads of the end-to-end benchmark: the catalog the server
// loads, the statement stream each connection sends, and the expected
// reply of every statement, computed in-process before anything is timed.
//
// Workloads (README.md gives the reasoning):
//   thm41       Theorem 4.1 yes/no queries over Busy relations of several
//               sizes, each with its own time window: evaluation-bound.
//   service     every evaluating `# check:` query of examples/queries and
//               the fuzz corpus, plus the planner chain, with Zipf-drawn
//               constants: front-end- and cache-bound.
//   service-rw  service plus reads of a relation `Own` that a write
//               schedule redefines, on a server that recovers a seeded WAL.

#ifndef ITDB_PERFBENCH_WORKLOAD_H_
#define ITDB_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// ITDB_THREADS of the server and of the benchmark process, and the number
/// of client connections.  With more workers, the pool's work sharing made
/// the run-to-run spread of every latency several times larger on a 4-vCPU
/// VM; with more connections than workers, PumpConnection keeps serving a
/// connection whose next statement arrives before it rechecks its queue,
/// so the others stall for 15-50 ms and the median latency of one seed
/// jumps between two values (README.md, "Why one connection").
inline constexpr int kServerThreads = 1;
inline constexpr int kConnections = 1;

/// Marks, inside a statement or an expected reply, where a fresh copy
/// inserts its variable prefix.
inline constexpr char kVarMark = '\x02';

/// One distinct statement of a workload.  Its text and its expected reply
/// are stored split at every variable occurrence, so the "fresh" copy --
/// the same statement with every variable renamed by one prefix, which no
/// result-cache entry can match -- is a join of the parts with the prefix.
struct PoolEntry {
  std::vector<std::string> text;
  std::vector<std::string> expected;
  bool write = false;
  /// `query` (renders a relation) rather than `ask`.
  bool query = false;
  /// Index into Workload::families.
  int family = 0;
  /// thm41: tuples in the Busy relation the statement reads.
  int size_n = 0;
};

/// One statement of a connection's stream: a pool entry, sent verbatim
/// (fresh == 0) or with every variable renamed by prefix "v<fresh>_".  With
/// kPrivateBit set, `entry` is a slot of Workload::private_entries, resolved
/// against the current variant of `Own` by StreamCursor.
struct Op {
  std::uint32_t entry = 0;
  std::uint32_t fresh = 0;
};
inline constexpr std::uint32_t kPrivateBit = 1u << 31;

/// Joins `parts` with the fresh prefix of `fresh` (nothing for 0).
std::string JoinFresh(const std::vector<std::string>& parts,
                      std::uint32_t fresh);

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  int connections = 1;
  int threads = kServerThreads;
  /// The catalog in text format, loaded from a file at server start.
  std::string catalog_text;
  std::vector<std::string> families;
  std::vector<PoolEntry> pool;
  std::vector<std::vector<Op>> streams;
  /// Write statements sent after the measured window on workloads without a
  /// write schedule, so every workload reports write latency and
  /// amplification.
  std::vector<Op> probe;
  /// service-rw: a `drop Own` / `define relation Own ...` pair is due every
  /// this many seconds of the loop (0 = no writes).  A schedule, not a
  /// share of the stream, so every run makes the same number of writes and
  /// grows the bitemporal history by the same amount, however fast it is.
  double write_pair_interval_s = 0;
  std::uint32_t drop_entry = 0;
  /// The define of each variant of `Own`, and the variant each successive
  /// pair installs (variant 0 is the starting one).
  std::vector<std::uint32_t> define_entries;
  std::vector<int> write_variants;
  /// Reads of `Own`: private_entries[variant * private_slots + slot].
  std::vector<std::uint32_t> private_entries;
  std::uint32_t private_slots = 0;
  /// service-rw: statements whose WAL records make up the seeded log the
  /// server recovers at start (applied in-process to an empty data dir).
  std::vector<std::string> seed_log;
  /// Automatic checkpoint after this many WAL records (server flag
  /// --checkpoint-every).
  std::uint64_t checkpoint_every = 0;
  /// The server's peak RSS is read once the loop has recorded this many
  /// statements: a fixed prefix of the stream.  The RSS grows with the
  /// distinct statements served, so read at the end of a timed loop it
  /// would follow the host's speed.
  std::int64_t rss_after = 0;
  /// Probability that a read is sent as a fresh copy.
  double fresh_share = 0;
  int relations = 0;
  std::int64_t tuples = 0;
  /// `# check:` queries left out, with the reason.
  std::vector<std::string> excluded;
};

/// Walks one connection's stream, interleaving the write schedule and
/// resolving reads of `Own` against the variant its last define installed.
class StreamCursor {
 public:
  StreamCursor(const Workload& w, int connection)
      : w_(w), stream_(w.streams[static_cast<std::size_t>(connection)]) {}

  /// The next statement to send, `elapsed_s` seconds into the stream.
  Op Next(double elapsed_s);
  /// A drop was sent and its define is still to come.
  bool mid_pair() const { return mid_pair_; }
  /// Times the stream ran out and started over.
  std::int64_t wraps() const { return wraps_; }

 private:
  const Workload& w_;
  const std::vector<Op>& stream_;
  std::size_t next_ = 0;
  std::int64_t wraps_ = 0;
  int variant_ = 0;
  std::size_t pairs_ = 0;
  bool mid_pair_ = false;
};

/// Builds workload `name` from `seed`; `root` is the checkout the query
/// files are read from.  Computes every expected reply.  Dies on an
/// unknown name or when a reference cannot be computed.
Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      int seconds, const std::string& root);

}  // namespace e2e

#endif  // ITDB_PERFBENCH_WORKLOAD_H_
