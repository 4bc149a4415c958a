#include "core/dbm.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "obs/metrics.h"

namespace itdb {

namespace {

// Closure-cost counters in the central registry (see DESIGN.md §5).  The
// handles are registry-owned and stable, so each site pays one relaxed
// atomic add after the one-time lookup.
obs::Counter& CloseFullCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("dbm.close_full");
  return *counter;
}

obs::Counter& TightenCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("dbm.tighten_and_close");
  return *counter;
}

obs::Counter& TightenFallbackCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("dbm.tighten_fallback");
  return *counter;
}

// Shorthand for the class constant (see dbm.h).
constexpr std::int64_t kBoundLimit = Dbm::kBoundLimit;

// a + b where either may be kInf; exact otherwise (fits: |a|,|b| <= 2^61).
std::int64_t SatAdd(std::int64_t a, std::int64_t b) {
  if (a == Dbm::kInf || b == Dbm::kInf) return Dbm::kInf;
  return a + b;
}

std::string VarName(int v) { return "X" + std::to_string(v); }

}  // namespace

std::string AtomicConstraint::ToString() const {
  if (lhs == kZeroVar && rhs == kZeroVar) {
    // Degenerate: 0 <= bound.
    return bound >= 0 ? "true" : "false";
  }
  if (rhs == kZeroVar) {
    return VarName(lhs) + " <= " + std::to_string(bound);
  }
  if (lhs == kZeroVar) {
    return VarName(rhs) + " >= " + std::to_string(-bound);
  }
  return VarName(lhs) + " - " + VarName(rhs) + " <= " + std::to_string(bound);
}

Dbm::Dbm(int num_vars) : num_vars_(num_vars) {
  assert(num_vars >= 0);
  std::size_t n = static_cast<std::size_t>(num_vars_) + 1;
  matrix_.assign(n * n, kInf);
  for (std::size_t p = 0; p < n; ++p) matrix_[p * n + p] = 0;
  closed_ = true;  // The unconstrained system is trivially closed.
  feasible_ = true;
}

void Dbm::Tighten(int p, int q, std::int64_t v) {
  if (v < bound_node(p, q)) {
    set_bound_node(p, q, v);
    closed_ = false;
  }
}

void Dbm::AddDifferenceUpperBound(int i, int j, std::int64_t a) {
  assert(i != j && i >= 0 && j >= 0 && i < num_vars_ && j < num_vars_);
  Tighten(i + 1, j + 1, a);
}

void Dbm::AddUpperBound(int i, std::int64_t a) {
  assert(i >= 0 && i < num_vars_);
  Tighten(i + 1, 0, a);
}

void Dbm::AddLowerBound(int i, std::int64_t a) {
  assert(i >= 0 && i < num_vars_);
  Tighten(0, i + 1, -a);
}

void Dbm::AddDifferenceEquality(int i, int j, std::int64_t a) {
  AddDifferenceUpperBound(i, j, a);
  AddDifferenceUpperBound(j, i, -a);
}

void Dbm::AddEquality(int i, std::int64_t a) {
  AddUpperBound(i, a);
  AddLowerBound(i, a);
}

void Dbm::AddAtomic(const AtomicConstraint& c) {
  if (c.lhs == kZeroVar && c.rhs == kZeroVar) {
    // 0 <= bound: vacuous, or a contradiction recorded as a negative cycle
    // on the zero node.  Living in the matrix, it survives every copy,
    // Conjoin, AppendVariables and MapVariables, and Close() detects it.
    if (c.bound < 0) {
      set_bound_node(0, 0, std::min(bound_node(0, 0), c.bound));
      closed_ = true;
      feasible_ = false;
    }
    return;
  }
  if (c.lhs == kZeroVar) {
    Tighten(0, c.rhs + 1, c.bound);
  } else if (c.rhs == kZeroVar) {
    Tighten(c.lhs + 1, 0, c.bound);
  } else {
    Tighten(c.lhs + 1, c.rhs + 1, c.bound);
  }
}

Status Dbm::Close() {
  if (closed_) return Status::Ok();
  CloseFullCounter().Increment();
  int n = num_vars_ + 1;
  for (int r = 0; r < n; ++r) {
    // Pivot skip: a path p -> r -> q needs a finite (p, r) and a finite
    // (r, q) entry.  When the pivot's row or column is all kInf off the
    // diagonal, no pair exists and the O(n^2) relaxation is a no-op.
    bool row_live = false;
    bool col_live = false;
    for (int i = 0; i < n && !(row_live && col_live); ++i) {
      if (i == r) continue;
      row_live = row_live || bound_node(r, i) != kInf;
      col_live = col_live || bound_node(i, r) != kInf;
    }
    if (!row_live || !col_live) continue;
    for (int p = 0; p < n; ++p) {
      std::int64_t pr = bound_node(p, r);
      if (pr == kInf) continue;
      for (int q = 0; q < n; ++q) {
        std::int64_t rq = bound_node(r, q);
        if (rq == kInf) continue;
        std::int64_t via = SatAdd(pr, rq);
        if (via < bound_node(p, q)) set_bound_node(p, q, via);
      }
    }
  }
  feasible_ = true;
  for (int p = 0; p < n; ++p) {
    if (bound_node(p, p) < 0) {
      feasible_ = false;
      break;
    }
  }
  closed_ = true;
  if (feasible_) {
    for (int p = 0; p < n; ++p) {
      for (int q = 0; q < n; ++q) {
        std::int64_t b = bound_node(p, q);
        if (b != kInf && (b > kBoundLimit || b < -kBoundLimit)) {
          return Status::Overflow("DBM bound exceeds safe range during closure");
        }
      }
    }
  }
  return Status::Ok();
}

Dbm::TightenResult Dbm::TightenAndClose(const AtomicConstraint& c) {
  assert(closed_ && feasible_);
  TightenCounter().Increment();
  int p = c.lhs + 1;
  int q = c.rhs + 1;
  std::int64_t w = c.bound;
  if (p == q) {
    // Degenerate self-edge: a non-negative bound is vacuous; a negative one
    // is a contradiction AddAtomic encodes specially -- punt to the caller.
    if (w < 0) {
      TightenFallbackCounter().Increment();
      return TightenResult::kFallbackNeeded;
    }
    return TightenResult::kClosed;
  }
  if (w >= bound_node(p, q)) return TightenResult::kClosed;  // Not tighter.
  // A negative cycle in the new system must use the new edge (the base was
  // feasible), so it exists iff the best old q -> p path plus w is negative.
  std::int64_t qp = bound_node(q, p);
  if (qp != kInf && static_cast<__int128>(qp) + w < 0) {
    Tighten(p, q, w);
    closed_ = true;  // Content is irrelevant once infeasible.
    feasible_ = false;
    return TightenResult::kInfeasible;
  }
  int n = num_vars_ + 1;
  // Any improved shortest path decomposes as i ->* p -> q ->* j over OLD
  // closed distances (using the edge twice cannot help absent a negative
  // cycle).  Snapshot column p and row q so in-place stores cannot feed
  // later reads, then detect-before-mutate so kFallbackNeeded leaves the
  // matrix untouched: an improving value IS the final closed entry, so any
  // such value outside the safe range is exactly what makes Close() report
  // overflow on the full recomputation.
  std::vector<std::int64_t> to_p(static_cast<std::size_t>(n));
  std::vector<std::int64_t> from_q(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    to_p[static_cast<std::size_t>(i)] = bound_node(i, p);
    from_q[static_cast<std::size_t>(i)] = bound_node(q, i);
  }
  for (int i = 0; i < n; ++i) {
    std::int64_t ip = to_p[static_cast<std::size_t>(i)];
    if (ip == kInf) continue;
    for (int j = 0; j < n; ++j) {
      std::int64_t qj = from_q[static_cast<std::size_t>(j)];
      if (qj == kInf) continue;
      __int128 via = static_cast<__int128>(ip) + w + qj;
      if (via < bound_node(i, j) &&
          (via > kBoundLimit || via < -kBoundLimit)) {
        TightenFallbackCounter().Increment();
        return TightenResult::kFallbackNeeded;
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    std::int64_t ip = to_p[static_cast<std::size_t>(i)];
    if (ip == kInf) continue;
    for (int j = 0; j < n; ++j) {
      std::int64_t qj = from_q[static_cast<std::size_t>(j)];
      if (qj == kInf) continue;
      __int128 via = static_cast<__int128>(ip) + w + qj;
      if (via < bound_node(i, j)) {
        set_bound_node(i, j, static_cast<std::int64_t>(via));
      }
    }
  }
  closed_ = true;
  feasible_ = true;
  return TightenResult::kClosed;
}

bool Dbm::IsSatisfiedBy(const std::vector<std::int64_t>& x) const {
  assert(static_cast<int>(x.size()) == num_vars_);
  if (closed_ && !feasible_) return false;
  int n = num_vars_ + 1;
  auto value = [&x](int node) -> __int128 {
    return node == 0 ? 0 : static_cast<__int128>(x[node - 1]);
  };
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      std::int64_t b = bound_node(p, q);
      if (b == kInf) continue;
      if (value(p) - value(q) > static_cast<__int128>(b)) return false;
    }
  }
  return true;
}

Dbm Dbm::EliminateVariable(int i) const {
  assert(closed_ && feasible_);
  assert(i >= 0 && i < num_vars_);
  Dbm out(num_vars_ - 1);
  int skip = i + 1;
  int n = num_vars_ + 1;
  for (int p = 0, np = 0; p < n; ++p) {
    if (p == skip) continue;
    for (int q = 0, nq = 0; q < n; ++q) {
      if (q == skip) continue;
      out.set_bound_node(np, nq, bound_node(p, q));
      ++nq;
    }
    ++np;
  }
  // A closed matrix restricted to a node subset is still closed, and it is
  // the exact projection: the path through the removed node is already
  // accounted for by closure.
  out.closed_ = true;
  out.feasible_ = true;
  return out;
}

Dbm Dbm::AppendVariables(int count) const {
  assert(count >= 0);
  Dbm out(num_vars_ + count);
  int n = num_vars_ + 1;
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      out.set_bound_node(p, q, bound_node(p, q));
    }
  }
  out.closed_ = false;  // New rows are kInf; closure may propagate nothing,
                        // but infeasibility flags must be recomputed.
  return out;
}

Dbm Dbm::AppendVariablesClosed(int count) const {
  assert(closed_ && feasible_);
  Dbm out = AppendVariables(count);
  out.closed_ = true;
  out.feasible_ = true;
  return out;
}

Dbm Dbm::MapVariables(const std::vector<int>& new_from_old,
                      int new_size) const {
  assert(static_cast<int>(new_from_old.size()) == num_vars_);
  Dbm out(new_size);
  auto node_of = [&new_from_old](int p) {
    return p == 0 ? 0 : new_from_old[p - 1] + 1;
  };
  int n = num_vars_ + 1;
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      std::int64_t b = bound_node(p, q);
      if (b == kInf || (p == q && b >= 0)) continue;
      if (p == 0 && q == 0) {
        // Recorded as AddAtomic records it, flags included.
        out.AddAtomic(AtomicConstraint{kZeroVar, kZeroVar, b});
        continue;
      }
      out.Tighten(node_of(p), node_of(q), b);
    }
  }
  return out;
}

Dbm Dbm::FromEntries(int num_vars, const std::int64_t* entries, bool closed,
                     bool feasible) {
  Dbm out(num_vars);
  std::size_t n = static_cast<std::size_t>(num_vars) + 1;
  for (std::size_t idx = 0; idx < n * n; ++idx) out.matrix_[idx] = entries[idx];
  out.closed_ = closed;
  out.feasible_ = feasible;
  return out;
}

Dbm Dbm::Conjoin(const Dbm& a, const Dbm& b) {
  assert(a.num_vars_ == b.num_vars_);
  Dbm out(a.num_vars_);
  std::size_t size = a.matrix_.size();
  for (std::size_t idx = 0; idx < size; ++idx) {
    out.matrix_[idx] = std::min(a.matrix_[idx], b.matrix_[idx]);
  }
  out.closed_ = false;
  return out;
}

std::vector<AtomicConstraint> Dbm::ToAtomics() const {
  std::vector<AtomicConstraint> out;
  int n = num_vars_ + 1;
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      std::int64_t b = bound_node(p, q);
      if (b == kInf || (p == q && b >= 0)) continue;
      out.push_back(AtomicConstraint{p - 1, q - 1, b});
    }
  }
  return out;
}

std::vector<AtomicConstraint> Dbm::MinimalAtomics() const {
  assert(closed_ && feasible_);
  std::vector<AtomicConstraint> atomics = ToAtomics();
  // Greedy irredundancy: drop an atomic if the remaining ones still entail
  // it.  Quadratic in the (small: <= m(m+1)) number of atomics times a
  // closure; exactness over ties is what the naive "exists intermediate r
  // with equality" shortcut gets wrong, so we test entailment directly.
  std::vector<bool> kept(atomics.size(), true);
  for (std::size_t i = 0; i < atomics.size(); ++i) {
    Dbm trial(num_vars_);
    for (std::size_t j = 0; j < atomics.size(); ++j) {
      if (j == i || !kept[j]) continue;
      trial.AddAtomic(atomics[j]);
    }
    if (!trial.Close().ok()) continue;  // Keep on overflow (conservative).
    int p = atomics[i].lhs + 1;
    int q = atomics[i].rhs + 1;
    if (trial.bound_node(p, q) <= atomics[i].bound) kept[i] = false;
  }
  std::vector<AtomicConstraint> out;
  for (std::size_t i = 0; i < atomics.size(); ++i) {
    if (kept[i]) out.push_back(atomics[i]);
  }
  return out;
}

bool Dbm::Implies(const Dbm& other) const {
  assert(closed_ && feasible_);
  assert(num_vars_ == other.num_vars_);
  int n = num_vars_ + 1;
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      std::int64_t b = other.bound_node(p, q);
      if (b == kInf) continue;
      if (bound_node(p, q) > b) return false;
    }
  }
  return true;
}

std::string Dbm::ToString() const {
  std::vector<AtomicConstraint> atomics = MinimalAtomics();
  if (atomics.empty()) return "true";
  std::string out;
  for (std::size_t i = 0; i < atomics.size(); ++i) {
    if (i > 0) out += " && ";
    out += atomics[i].ToString();
  }
  return out;
}

}  // namespace itdb
