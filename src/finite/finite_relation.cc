#include "finite/finite_relation.h"

#include <algorithm>
#include <string>
#include <utility>

namespace itdb {

void FiniteRelation::Normalize() {
  std::sort(rows_.begin(), rows_.end());
  rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
}

FiniteRelation FiniteRelation::Materialize(const GeneralizedRelation& r,
                                           std::int64_t lo, std::int64_t hi) {
  FiniteRelation out(r.schema());
  out.rows_ = r.Enumerate(lo, hi);
  return out;
}

Status FiniteRelation::AddRow(ConcreteRow row) {
  if (static_cast<int>(row.temporal.size()) != schema_.temporal_arity() ||
      static_cast<int>(row.data.size()) != schema_.data_arity()) {
    return Status::InvalidArgument("AddRow: arity mismatch with schema " +
                                   schema_.ToString());
  }
  auto it = std::lower_bound(rows_.begin(), rows_.end(), row);
  if (it == rows_.end() || *it != row) rows_.insert(it, std::move(row));
  return Status::Ok();
}

bool FiniteRelation::Contains(const ConcreteRow& row) const {
  return std::binary_search(rows_.begin(), rows_.end(), row);
}

std::int64_t FiniteRelation::ApproxBytes() const {
  std::int64_t bytes = 0;
  for (const ConcreteRow& row : rows_) {
    bytes += static_cast<std::int64_t>(sizeof(ConcreteRow));
    bytes += static_cast<std::int64_t>(row.temporal.size() * sizeof(std::int64_t));
    for (const Value& v : row.data) {
      bytes += static_cast<std::int64_t>(sizeof(Value));
      if (v.IsString()) bytes += static_cast<std::int64_t>(v.AsString().size());
    }
  }
  return bytes;
}

Result<FiniteRelation> FiniteRelation::Union(const FiniteRelation& a,
                                             const FiniteRelation& b) {
  if (a.schema_ != b.schema_) {
    return Status::InvalidArgument("finite Union: schema mismatch");
  }
  FiniteRelation out(a.schema_);
  std::set_union(a.rows_.begin(), a.rows_.end(), b.rows_.begin(),
                 b.rows_.end(), std::back_inserter(out.rows_));
  return out;
}

Result<FiniteRelation> FiniteRelation::Intersect(const FiniteRelation& a,
                                                 const FiniteRelation& b) {
  if (a.schema_ != b.schema_) {
    return Status::InvalidArgument("finite Intersect: schema mismatch");
  }
  FiniteRelation out(a.schema_);
  std::set_intersection(a.rows_.begin(), a.rows_.end(), b.rows_.begin(),
                        b.rows_.end(), std::back_inserter(out.rows_));
  return out;
}

Result<FiniteRelation> FiniteRelation::Subtract(const FiniteRelation& a,
                                                const FiniteRelation& b) {
  if (a.schema_ != b.schema_) {
    return Status::InvalidArgument("finite Subtract: schema mismatch");
  }
  FiniteRelation out(a.schema_);
  std::set_difference(a.rows_.begin(), a.rows_.end(), b.rows_.begin(),
                      b.rows_.end(), std::back_inserter(out.rows_));
  return out;
}

Result<FiniteRelation> FiniteRelation::Complement(
    std::int64_t lo, std::int64_t hi,
    const std::vector<std::vector<Value>>& domains) const {
  const int m = schema_.temporal_arity();
  const int l = schema_.data_arity();
  if (static_cast<int>(domains.size()) != l) {
    return Status::InvalidArgument(
        "finite Complement: need one domain per data column");
  }
  FiniteRelation out(schema_);
  // Odometer over [lo, hi]^m x domains.
  if (hi < lo) return out;
  for (const std::vector<Value>& d : domains) {
    if (d.empty()) return out;
  }
  std::vector<std::int64_t> temporal(static_cast<std::size_t>(m), lo);
  std::vector<std::size_t> didx(static_cast<std::size_t>(l), 0);
  while (true) {
    std::vector<Value> data;
    data.reserve(static_cast<std::size_t>(l));
    for (int i = 0; i < l; ++i) {
      data.push_back(
          domains[static_cast<std::size_t>(i)][didx[static_cast<std::size_t>(i)]]);
    }
    ConcreteRow row{temporal, std::move(data)};
    if (!Contains(row)) out.rows_.push_back(std::move(row));
    // Advance data odometer first, then temporal.
    int d = l - 1;
    while (d >= 0) {
      std::size_t ud = static_cast<std::size_t>(d);
      if (++didx[ud] < domains[ud].size()) break;
      didx[ud] = 0;
      --d;
    }
    if (d >= 0) continue;
    int tpos = m - 1;
    while (tpos >= 0) {
      std::size_t ut = static_cast<std::size_t>(tpos);
      if (++temporal[ut] <= hi) break;
      temporal[ut] = lo;
      --tpos;
    }
    if (tpos < 0) break;
  }
  out.Normalize();
  return out;
}

Result<FiniteRelation> FiniteRelation::Project(
    const std::vector<std::string>& attrs) const {
  std::vector<int> keep_temporal;
  std::vector<int> keep_data;
  std::vector<std::string> temporal_names;
  std::vector<std::string> data_names;
  std::vector<DataType> data_types;
  for (const std::string& name : attrs) {
    if (std::optional<int> t = schema_.FindTemporal(name)) {
      keep_temporal.push_back(*t);
      temporal_names.push_back(name);
    } else if (std::optional<int> d = schema_.FindData(name)) {
      keep_data.push_back(*d);
      data_names.push_back(name);
      data_types.push_back(schema_.data_type(*d));
    } else {
      return Status::NotFound("finite Project: unknown attribute \"" + name +
                              "\"");
    }
  }
  FiniteRelation out(Schema(temporal_names, data_names, data_types));
  for (const ConcreteRow& row : rows_) {
    ConcreteRow projected;
    projected.temporal.reserve(keep_temporal.size());
    for (int c : keep_temporal) {
      projected.temporal.push_back(row.temporal[static_cast<std::size_t>(c)]);
    }
    projected.data.reserve(keep_data.size());
    for (int c : keep_data) {
      projected.data.push_back(row.data[static_cast<std::size_t>(c)]);
    }
    out.rows_.push_back(std::move(projected));
  }
  out.Normalize();
  return out;
}

Result<FiniteRelation> FiniteRelation::SelectTemporal(
    const TemporalCondition& cond) const {
  const int m = schema_.temporal_arity();
  if (cond.lhs < 0 || cond.lhs >= m ||
      (cond.rhs != kZeroVar && (cond.rhs < 0 || cond.rhs >= m))) {
    return Status::InvalidArgument("finite SelectTemporal: bad columns");
  }
  FiniteRelation out(schema_);
  for (const ConcreteRow& row : rows_) {
    std::int64_t lhs = row.temporal[static_cast<std::size_t>(cond.lhs)];
    std::int64_t rhs =
        cond.rhs == kZeroVar
            ? cond.c
            : row.temporal[static_cast<std::size_t>(cond.rhs)] + cond.c;
    if (Holds(lhs, cond.op, rhs)) out.rows_.push_back(row);
  }
  return out;
}

Result<FiniteRelation> FiniteRelation::ShiftTemporalColumn(
    int col, std::int64_t delta) const {
  if (col < 0 || col >= schema_.temporal_arity()) {
    return Status::InvalidArgument("finite ShiftTemporalColumn: bad column");
  }
  FiniteRelation out(schema_);
  out.rows_ = rows_;
  for (ConcreteRow& row : out.rows_) {
    row.temporal[static_cast<std::size_t>(col)] += delta;
  }
  out.Normalize();
  return out;
}

Result<FiniteRelation> FiniteRelation::SelectData(int data_col, CmpOp op,
                                                  const Value& value) const {
  if (data_col < 0 || data_col >= schema_.data_arity()) {
    return Status::InvalidArgument("finite SelectData: bad column");
  }
  FiniteRelation out(schema_);
  for (const ConcreteRow& row : rows_) {
    if (Holds(row.data[static_cast<std::size_t>(data_col)], op, value)) {
      out.rows_.push_back(row);
    }
  }
  return out;
}

Result<FiniteRelation> FiniteRelation::CrossProduct(const FiniteRelation& a,
                                                    const FiniteRelation& b) {
  std::vector<std::string> temporal_names = a.schema_.temporal_names();
  for (const std::string& n : b.schema_.temporal_names()) {
    if (a.schema_.FindTemporal(n).has_value()) {
      return Status::InvalidArgument(
          "finite CrossProduct: duplicate temporal attribute \"" + n + "\"");
    }
    temporal_names.push_back(n);
  }
  std::vector<std::string> data_names = a.schema_.data_names();
  std::vector<DataType> data_types = a.schema_.data_types();
  for (int j = 0; j < b.schema_.data_arity(); ++j) {
    if (a.schema_.FindData(b.schema_.data_name(j)).has_value()) {
      return Status::InvalidArgument(
          "finite CrossProduct: duplicate data attribute \"" +
          b.schema_.data_name(j) + "\"");
    }
    data_names.push_back(b.schema_.data_name(j));
    data_types.push_back(b.schema_.data_type(j));
  }
  FiniteRelation out(Schema(temporal_names, data_names, data_types));
  for (const ConcreteRow& ra : a.rows_) {
    for (const ConcreteRow& rb : b.rows_) {
      ConcreteRow row = ra;
      row.temporal.insert(row.temporal.end(), rb.temporal.begin(),
                          rb.temporal.end());
      row.data.insert(row.data.end(), rb.data.begin(), rb.data.end());
      out.rows_.push_back(std::move(row));
    }
  }
  out.Normalize();
  return out;
}

Result<FiniteRelation> FiniteRelation::Join(const FiniteRelation& a,
                                            const FiniteRelation& b) {
  const Schema& sa = a.schema_;
  const Schema& sb = b.schema_;
  const int mb = sb.temporal_arity();
  std::vector<int> b_temporal_match(static_cast<std::size_t>(mb), -1);
  std::vector<std::string> temporal_names = sa.temporal_names();
  std::vector<int> b_new_temporal;
  for (int j = 0; j < mb; ++j) {
    if (std::optional<int> i = sa.FindTemporal(sb.temporal_name(j))) {
      b_temporal_match[static_cast<std::size_t>(j)] = *i;
    } else {
      b_new_temporal.push_back(j);
      temporal_names.push_back(sb.temporal_name(j));
    }
  }
  std::vector<int> b_data_match(static_cast<std::size_t>(sb.data_arity()), -1);
  std::vector<std::string> data_names = sa.data_names();
  std::vector<DataType> data_types = sa.data_types();
  std::vector<int> b_new_data;
  for (int j = 0; j < sb.data_arity(); ++j) {
    if (std::optional<int> i = sa.FindData(sb.data_name(j))) {
      b_data_match[static_cast<std::size_t>(j)] = *i;
      if (sa.data_type(*i) != sb.data_type(j)) {
        return Status::InvalidArgument("finite Join: type mismatch on \"" +
                                       sb.data_name(j) + "\"");
      }
    } else {
      b_new_data.push_back(j);
      data_names.push_back(sb.data_name(j));
      data_types.push_back(sb.data_type(j));
    }
  }
  FiniteRelation out(Schema(temporal_names, data_names, data_types));
  for (const ConcreteRow& ra : a.rows_) {
    for (const ConcreteRow& rb : b.rows_) {
      bool match = true;
      for (int j = 0; j < mb && match; ++j) {
        int i = b_temporal_match[static_cast<std::size_t>(j)];
        if (i >= 0 && ra.temporal[static_cast<std::size_t>(i)] !=
                          rb.temporal[static_cast<std::size_t>(j)]) {
          match = false;
        }
      }
      for (int j = 0; j < sb.data_arity() && match; ++j) {
        int i = b_data_match[static_cast<std::size_t>(j)];
        if (i >= 0 && ra.data[static_cast<std::size_t>(i)] !=
                          rb.data[static_cast<std::size_t>(j)]) {
          match = false;
        }
      }
      if (!match) continue;
      ConcreteRow row = ra;
      for (int j : b_new_temporal) {
        row.temporal.push_back(rb.temporal[static_cast<std::size_t>(j)]);
      }
      for (int j : b_new_data) {
        row.data.push_back(rb.data[static_cast<std::size_t>(j)]);
      }
      out.rows_.push_back(std::move(row));
    }
  }
  out.Normalize();
  return out;
}

}  // namespace itdb
