#include "datalog/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace cologne::datalog {

std::vector<Engine::NameEntry>::const_iterator Engine::ByName(
    const std::string& name) const {
  return std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [](const NameEntry& e, const std::string& n) { return e.first < n; });
}

Status Engine::DeclareTable(const TableSchema& schema) {
  auto it = ByName(schema.name);
  if (it != by_name_.end() && it->first == schema.name) {
    return Status::AlreadyExists("table already declared: " + schema.name);
  }
  const auto id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::make_unique<Table>(schema));
  triggers_.emplace_back();
  by_name_.insert(it, NameEntry(schema.name, id));
  return Status::OK();
}

TableId Engine::FindTable(const std::string& name) const {
  auto it = ByName(name);
  return it != by_name_.end() && it->first == name ? it->second : -1;
}

Table* Engine::GetTable(const std::string& name) {
  const TableId id = FindTable(name);
  return id < 0 ? nullptr : tables_[static_cast<size_t>(id)].get();
}

const Table* Engine::GetTable(const std::string& name) const {
  const TableId id = FindTable(name);
  return id < 0 ? nullptr : tables_[static_cast<size_t>(id)].get();
}

Status Engine::AddRule(RuleIR rule) {
  // A stamped id must name the same table here: then the program's ids and
  // this engine's are one id space.
  auto resolve = [&](AtomIR& atom, const char* role) -> Status {
    const TableId id = FindTable(atom.table);
    if (id < 0) {
      return Status::PlanError("rule " + rule.label + ": undeclared " + role +
                               " table " + atom.table);
    }
    if (atom.table_id >= 0 && atom.table_id != id) {
      return Status::PlanError(StrFormat(
          "rule %s: table %s has id %d in the rule but %d in the engine",
          rule.label.c_str(), atom.table.c_str(), atom.table_id, id));
    }
    atom.table_id = id;
    return Status::OK();
  };
  COLOGNE_RETURN_IF_ERROR(resolve(rule.head, "head"));
  for (AtomIR& a : rule.body) COLOGNE_RETURN_IF_ERROR(resolve(a, "body"));
  if (rule.trigger.size() != rule.body.size()) {
    return Status::PlanError("rule " + rule.label +
                             ": trigger flags do not match body atoms");
  }
  size_t rule_idx = rules_.size();

  // Precompute guard dependency info (selections + assignments).
  std::vector<GuardInfo> guards;
  for (size_t i = 0; i < rule.sels.size(); ++i) {
    GuardInfo g;
    g.is_assign = false;
    g.index = i;
    rule.sels[i].expr.CollectSlots(&g.deps);
    guards.push_back(std::move(g));
  }
  for (size_t i = 0; i < rule.assigns.size(); ++i) {
    GuardInfo g;
    g.is_assign = true;
    g.index = i;
    rule.assigns[i].expr.CollectSlots(&g.deps);
    guards.push_back(std::move(g));
  }

  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (rule.trigger[i]) {
      triggers_[static_cast<size_t>(rule.body[i].table_id)].push_back(
          {rule_idx, i});
    }
  }
  agg_states_.push_back(rule.agg ? std::make_unique<AggState>() : nullptr);
  guards_.push_back(std::move(guards));
  rules_.push_back(std::move(rule));
  return Status::OK();
}

Status Engine::Apply(const std::string& table, const Row& row, int sign) {
  const TableId id = FindTable(table);
  if (id < 0) return Status::NotFound("unknown table: " + table);
  return Apply(id, row, sign);
}

Status Engine::Apply(TableId table, const Row& row, int sign) {
  if (table < 0 || static_cast<size_t>(table) >= tables_.size()) {
    return Status::NotFound(StrFormat("unknown table id %d", table));
  }
  const TableSchema& schema = this->table(table).schema();
  if (row.size() != schema.arity()) {
    return Status::InvalidArgument(
        StrFormat("arity mismatch on %s: row has %zu values, table expects %zu",
                  schema.name.c_str(), row.size(), schema.arity()));
  }
  Route(table, row, sign);
  return Status::OK();
}

Status Engine::InsertFact(const std::string& table, const Row& row) {
  COLOGNE_RETURN_IF_ERROR(Apply(table, row, +1));
  return Flush();
}

Status Engine::DeleteFact(const std::string& table, const Row& row) {
  COLOGNE_RETURN_IF_ERROR(Apply(table, row, -1));
  return Flush();
}

void Engine::Route(TableId table, Row row, int sign) {
  int loc = this->table(table).schema().loc_col;
  if (self_ != kCentralized && loc >= 0 &&
      static_cast<size_t>(loc) < row.size() && row[static_cast<size_t>(loc)].is_node()) {
    NodeId dest = row[static_cast<size_t>(loc)].as_node();
    if (dest != self_) {
      ++stats_.tuples_sent;
      if (sender_) {
        sender_(dest, table, row, sign);
      } else {
        COLOGNE_WARN("dropping remote tuple for node " + std::to_string(dest) +
                     " (no sender configured): " + table_name(table) +
                     RowToString(row));
      }
      return;
    }
  }
  queue_.push_back({table, std::move(row), sign});
}

Status Engine::Flush() {
  while (!queue_.empty()) {
    PendingDelta d = std::move(queue_.front());
    queue_.pop_front();
    ProcessOne(d);
  }
  Status err = first_error_;
  first_error_ = Status::OK();
  return err;
}

void Engine::ProcessOne(const PendingDelta& d) {
  Table* t = tables_[static_cast<size_t>(d.table)].get();
  if (d.sign > 0) {
    // NDlog replacement: displace any visible row sharing the primary key.
    if (const Row* disp = t->DisplacedBy(d.row)) {
      Row old = *disp;  // copy: EraseAll invalidates the pointer
      ++stats_.deltas_processed;
      // Fire deletions against the pre-removal state, then remove.
      FireTriggers(d.table, old, -1);
      t->EraseAll(old);
      Notify(d.table, old, -1);
    }
    int vis = t->Apply(d.row, +1);
    if (vis != 0) {
      ++stats_.deltas_processed;
      Notify(d.table, d.row, +1);
      FireTriggers(d.table, d.row, +1);
    }
  } else {
    // Deletion: fire rules while the row is still in the table so that
    // self-join derivation counts retract symmetrically, then remove.
    const int vis = t->Apply(d.row, -1, [&] {
      ++stats_.deltas_processed;
      FireTriggers(d.table, d.row, -1);
    });
    if (vis != 0) Notify(d.table, d.row, -1);
  }
}

void Engine::Notify(TableId table, const Row& row, int sign) {
  for (const auto& [t, fn] : watchers_) {
    if (t == table) fn(row, sign);
  }
}

void Engine::FireTriggers(TableId table, const Row& row, int sign) {
  for (const TriggerRef& ref : triggers_[static_cast<size_t>(table)]) {
    const RuleIR& rule = rules_[ref.rule_idx];
    if (sign < 0 && ref.atom_idx < rule.insert_only.size() &&
        rule.insert_only[ref.atom_idx]) {
      continue;
    }
    FireRule(ref.rule_idx, ref.atom_idx, row, sign);
  }
}

bool Engine::MatchAtom(const AtomIR& atom, const Row& row,
                       std::vector<Value>& slots,
                       std::vector<int>& newly_bound) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const TermIR& term = atom.args[i];
    const Value& v = row[i];
    if (term.is_const) {
      if (!(term.const_val == v)) return false;
    } else {
      Value& s = slots[static_cast<size_t>(term.slot)];
      if (s.is_null()) {
        s = v;
        newly_bound.push_back(term.slot);
      } else if (!(s == v)) {
        return false;
      }
    }
  }
  return true;
}

bool Engine::ApplyGuards(size_t rule_idx, std::vector<Value>& slots,
                         std::vector<char>& applied) {
  const RuleIR& rule = rules_[rule_idx];
  const auto& guards = guards_[rule_idx];
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t g = 0; g < guards.size(); ++g) {
      if (applied[g]) continue;
      const GuardInfo& info = guards[g];
      bool ready = true;
      for (int dep : info.deps) {
        if (slots[static_cast<size_t>(dep)].is_null()) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      if (info.is_assign) {
        const AssignIR& as = rule.assigns[info.index];
        Result<Value> r = EvalExpr(as.expr, slots);
        if (!r.ok()) {
          if (first_error_.ok()) first_error_ = r.status();
          return false;
        }
        Value& target = slots[static_cast<size_t>(as.slot)];
        if (target.is_null()) {
          target = std::move(r).value();
        } else if (!(target == r.value())) {
          return false;  // := re-binding must agree
        }
      } else {
        const SelIR& sel = rule.sels[info.index];
        Result<Value> r = EvalExpr(sel.expr, slots);
        if (!r.ok()) {
          if (first_error_.ok()) first_error_ = r.status();
          return false;
        }
        if (!ValueIsTrue(r.value())) return false;
      }
      applied[g] = 1;
      progress = true;
    }
  }
  return true;
}

void Engine::FireRule(size_t rule_idx, size_t atom_idx, const Row& row,
                      int sign) {
  const RuleIR& rule = rules_[rule_idx];
  ++stats_.rule_firings;

  // The scratch is sized up front: outer join levels hold references into
  // it.
  if (join_scratch_.size() < rule.body.size()) {
    join_scratch_.resize(rule.body.size());
  }
  JoinScratch& top = join_scratch_[0];
  slots_.assign(static_cast<size_t>(rule.num_slots), Value());
  top.newly_bound.clear();
  if (!MatchAtom(rule.body[atom_idx], row, slots_, top.newly_bound)) return;

  top.applied.assign(guards_[rule_idx].size(), 0);
  if (!ApplyGuards(rule_idx, slots_, top.applied)) return;

  // Join the remaining atoms in body order.
  JoinStep(rule_idx, atom_idx, 0, sign);
}

void Engine::JoinStep(size_t rule_idx, size_t trigger_atom, size_t depth,
                      int sign) {
  const RuleIR& rule = rules_[rule_idx];
  if (depth + 1 == rule.body.size()) {
    // All atoms matched; any remaining guards must have fired already for
    // head construction to be meaningful (unfired guards mean unbound slots,
    // which EmitHead reports).
    EmitHead(rule_idx, slots_, sign);
    return;
  }
  // Body atoms in order, skipping the one whose delta fired the rule.
  const AtomIR& atom = rule.body[depth < trigger_atom ? depth : depth + 1];
  Table* t = tables_[static_cast<size_t>(atom.table_id)].get();
  JoinScratch& scratch = join_scratch_[depth];

  // Determine bound columns for an indexed probe.
  std::vector<int>& cols = scratch.cols;
  Row& key = scratch.key;
  cols.clear();
  key.clear();
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const TermIR& term = atom.args[i];
    if (term.is_const) {
      cols.push_back(static_cast<int>(i));
      key.push_back(term.const_val);
    } else if (!slots_[static_cast<size_t>(term.slot)].is_null()) {
      cols.push_back(static_cast<int>(i));
      key.push_back(slots_[static_cast<size_t>(term.slot)]);
    }
  }

  // Copy the candidates' row ids: deeper atoms probe (and may index) the
  // same table. No table changes during a join (heads are queued), so the
  // ids stay valid.
  std::vector<RowId>& ids = scratch.ids;
  const RowsView candidates = t->Probe(cols, key);
  ids.resize(candidates.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = candidates.id(i);
  std::vector<int>& newly_bound = scratch.newly_bound;
  std::vector<char>& next_applied = join_scratch_[depth + 1].applied;
  for (const RowId id : ids) {
    const Row& row = t->row(id);
    newly_bound.clear();
    if (MatchAtom(atom, row, slots_, newly_bound)) {
      next_applied = scratch.applied;
      if (ApplyGuards(rule_idx, slots_, next_applied)) {
        JoinStep(rule_idx, trigger_atom, depth + 1, sign);
      }
    }
    for (int s : newly_bound) slots_[static_cast<size_t>(s)] = Value::Null();
  }
}

void Engine::EmitHead(size_t rule_idx, const std::vector<Value>& slots,
                      int sign) {
  const RuleIR& rule = rules_[rule_idx];

  // Build the head row (or the aggregate group key).
  Row head_row;
  head_row.reserve(rule.head.args.size());
  for (size_t i = 0; i < rule.head.args.size(); ++i) {
    if (rule.agg && static_cast<int>(i) == rule.agg->arg_index) {
      head_row.push_back(Value::Null());  // placeholder, filled by aggregate
      continue;
    }
    const TermIR& term = rule.head.args[i];
    if (term.is_const) {
      head_row.push_back(term.const_val);
    } else {
      const Value& v = slots[static_cast<size_t>(term.slot)];
      if (v.is_null()) {
        if (first_error_.ok()) {
          first_error_ = Status::RuntimeError(
              "rule " + rule.label + ": unbound head attribute " +
              std::to_string(i));
        }
        return;
      }
      head_row.push_back(v);
    }
  }

  if (rule.agg) {
    const Value& v = slots[static_cast<size_t>(rule.agg->value_slot)];
    if (v.is_null()) {
      if (first_error_.ok()) {
        first_error_ = Status::RuntimeError(
            "rule " + rule.label + ": unbound aggregate input");
      }
      return;
    }
    // Group key: head row without the aggregate position.
    Row group;
    group.reserve(head_row.size() - 1);
    for (size_t i = 0; i < head_row.size(); ++i) {
      if (static_cast<int>(i) != rule.agg->arg_index) group.push_back(head_row[i]);
    }
    EmitAggregate(rule_idx, group, v, sign);
    return;
  }
  Route(rule.head.table_id, std::move(head_row), sign);
}

void Engine::EmitAggregate(size_t rule_idx, const Row& group,
                           const Value& value, int sign) {
  const RuleIR& rule = rules_[rule_idx];
  AggState& state = *agg_states_[rule_idx];
  auto& multiset = state.groups[group];
  multiset[value] += sign;
  if (multiset[value] <= 0) multiset.erase(value);
  bool empty = multiset.empty();
  if (empty) state.groups.erase(group);

  auto last_it = state.last_out.find(group);
  if (empty) {
    if (last_it != state.last_out.end()) {
      Route(rule.head.table_id, last_it->second, -1);
      state.last_out.erase(last_it);
    }
    return;
  }
  Value agg = ComputeAggregate(rule.agg->kind, state.groups[group]);
  // Rebuild the head row with the aggregate value in position.
  Row out;
  out.reserve(group.size() + 1);
  size_t g = 0;
  for (size_t i = 0; i <= group.size(); ++i) {
    if (static_cast<int>(i) == rule.agg->arg_index) {
      out.push_back(agg);
    } else {
      out.push_back(group[g++]);
    }
  }
  if (last_it != state.last_out.end()) {
    if (last_it->second == out) return;  // unchanged
    Route(rule.head.table_id, last_it->second, -1);
  }
  Route(rule.head.table_id, out, +1);
  state.last_out[group] = std::move(out);
}

Status Engine::AddWatcher(const std::string& table, WatchFn fn) {
  const TableId id = FindTable(table);
  if (id < 0) return Status::NotFound("unknown table: " + table);
  watchers_.emplace_back(id, std::move(fn));
  return Status::OK();
}

size_t Engine::MemoryEstimate() const {
  size_t bytes = 0;
  for (const auto& t : tables_) {
    // Each visible row is stored once: a Row header, its cells and the
    // table's per-row bookkeeping.
    const size_t row_bytes = sizeof(Row) + t->schema().arity() * sizeof(Value);
    bytes += t->size() * (row_bytes + Table::kRowBookkeepingBytes);
  }
  return bytes;
}

}  // namespace cologne::datalog
