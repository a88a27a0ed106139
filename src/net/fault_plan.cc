#include "net/fault_plan.h"

#include <algorithm>

#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"

namespace cologne::net {

namespace {

bool InWindow(const LinkFault::Window& w, double t) {
  return t >= w.t0 && t < w.t1;
}

bool SameLink(const LinkFault& f, NodeId a, NodeId b) {
  return (f.a == a && f.b == b) || (f.a == b && f.b == a);
}

double ActiveParam(const std::vector<LinkFault::Window>& ws, double t) {
  for (const LinkFault::Window& w : ws) {
    if (InWindow(w, t)) return w.p;
  }
  return 0;
}

void AppendWindows(JsonWriter* w, const char* key,
                   const std::vector<LinkFault::Window>& ws, bool with_p) {
  if (ws.empty()) return;
  w->Key(key).BeginArray();
  for (const LinkFault::Window& win : ws) {
    w->BeginArray().Double(win.t0).Double(win.t1);
    if (with_p) w->Double(win.p);
    w->EndArray();
  }
  w->EndArray();
}

// Reads plan fields through the checked JsonValue accessors. The first
// error sticks; it names the field, and its byte offset locates it.
struct PlanReader {
  Status status;

  void Fail(const char* field, const std::string& what) {
    if (status.ok()) {
      status = Status::ParseError(
          StrFormat("fault plan JSON: %s: %s", field, what.c_str()));
    }
  }

  template <typename T, typename U>
  void Take(const Result<U>& r, const char* field, T* out) {
    if (r.ok()) {
      *out = static_cast<T>(r.value());
    } else {
      Fail(field, r.status().message());
    }
  }

  // Member `key` of `obj`, which must be an object; nullptr when absent.
  const JsonValue* Get(const JsonValue& obj, const char* key) {
    if (obj.kind == JsonValue::Kind::kObject) return obj.Find(key);
    Fail(key, StrFormat("byte %zu: expected an object", obj.offset));
    return nullptr;
  }

  const std::vector<JsonValue>& Array(const JsonValue& obj, const char* key) {
    static const std::vector<JsonValue> kAbsent;
    const JsonValue* v = Get(obj, key);
    if (v != nullptr && v->kind != JsonValue::Kind::kArray) {
      Fail(key, StrFormat("byte %zu: expected an array", v->offset));
    }
    return v != nullptr ? v->items : kAbsent;  // a non-array has no items
  }

  void Number(const JsonValue& obj, const char* key, double* out) {
    if (const JsonValue* v = Get(obj, key)) Take(v->AsDouble(), key, out);
  }

  void Node(const JsonValue& v, const char* field, NodeId* out) {
    int64_t n = 0;
    Take(v.AsInt(), field, &n);
    *out = static_cast<NodeId>(n);
    if (*out != n) Fail(field, StrFormat("byte %zu: out of range", v.offset));
  }

  void Windows(const JsonValue& obj, const char* key, bool with_p,
               std::vector<LinkFault::Window>* out) {
    for (const JsonValue& win : Array(obj, key)) {
      const std::vector<JsonValue>& t = win.items;
      if (t.size() < 2) {
        Fail(key, StrFormat("byte %zu: window needs [t0,t1]", win.offset));
        continue;
      }
      LinkFault::Window& w = out->emplace_back();
      Take(t[0].AsDouble(), key, &w.t0);
      Take(t[1].AsDouble(), key, &w.t1);
      if (with_p && t.size() >= 3) Take(t[2].AsDouble(), key, &w.p);
    }
  }
};

}  // namespace

bool LinkFault::DownAt(double t) const {
  for (const Window& w : down) {
    if (InWindow(w, t)) return true;
  }
  return false;
}

double LinkFault::LossAt(double t) const { return ActiveParam(loss, t); }

double LinkFault::DupAt(double t) const { return ActiveParam(duplicate, t); }

double LinkFault::ReorderAt(double t) const { return ActiveParam(reorder, t); }

const LinkFault* FaultPlan::FindLink(NodeId a, NodeId b) const {
  for (const LinkFault& f : links) {
    if (SameLink(f, a, b)) return &f;
  }
  return nullptr;
}

bool FaultPlan::PartitionedAt(NodeId a, NodeId b, double t) const {
  for (const PartitionFault& part : partitions) {
    if (t < part.t0 || t >= part.t1) continue;
    bool in_a = std::binary_search(part.group.begin(), part.group.end(), a);
    bool in_b = std::binary_search(part.group.begin(), part.group.end(), b);
    if (in_a != in_b) return true;
  }
  return false;
}

bool FaultPlan::SeveredAt(NodeId a, NodeId b, double t,
                          const char** reason) const {
  const LinkFault* f = FindLink(a, b);
  if (f != nullptr && f->DownAt(t)) {
    if (reason != nullptr) *reason = "link_down";
    return true;
  }
  if (PartitionedAt(a, b, t)) {
    if (reason != nullptr) *reason = "partition";
    return true;
  }
  return false;
}

double FaultPlan::LossProbAt(NodeId a, NodeId b, double t) const {
  const LinkFault* f = FindLink(a, b);
  return f == nullptr ? 0 : f->LossAt(t);
}

double FaultPlan::DupProbAt(NodeId a, NodeId b, double t) const {
  const LinkFault* f = FindLink(a, b);
  return f == nullptr ? 0 : f->DupAt(t);
}

double FaultPlan::ReorderJitterAt(NodeId a, NodeId b, double t) const {
  const LinkFault* f = FindLink(a, b);
  return f == nullptr ? 0 : f->ReorderAt(t);
}

const CrashFault* FaultPlan::FindCrash(NodeId node) const {
  for (const CrashFault& c : crashes) {
    if (c.node == node) return &c;
  }
  return nullptr;
}

std::string FaultPlan::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("seed").UInt(seed);
  if (!links.empty()) {
    w.Key("links").BeginArray();
    for (const LinkFault& f : links) {
      w.BeginObject();
      w.Key("a").Int(f.a);
      w.Key("b").Int(f.b);
      AppendWindows(&w, "down", f.down, /*with_p=*/false);
      AppendWindows(&w, "loss", f.loss, /*with_p=*/true);
      AppendWindows(&w, "dup", f.duplicate, /*with_p=*/true);
      AppendWindows(&w, "reorder", f.reorder, /*with_p=*/true);
      w.EndObject();
    }
    w.EndArray();
  }
  if (!partitions.empty()) {
    w.Key("partitions").BeginArray();
    for (const PartitionFault& part : partitions) {
      w.BeginObject();
      w.Key("group").BeginArray();
      for (NodeId n : part.group) w.Int(n);
      w.EndArray();
      w.Key("t0").Double(part.t0);
      w.Key("t1").Double(part.t1);
      w.EndObject();
    }
    w.EndArray();
  }
  if (!crashes.empty()) {
    w.Key("crashes").BeginArray();
    for (const CrashFault& c : crashes) {
      w.BeginObject();
      w.Key("node").Int(c.node);
      w.Key("t").Double(c.t);
      w.Key("restart").Double(c.restart_t);
      w.Key("retain_warm").Int(c.retain_warm_start ? 1 : 0);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.Take();
}

Result<FaultPlan> FaultPlan::FromJson(const std::string& json) {
  COLOGNE_ASSIGN_OR_RETURN(root, ParseJson(json));
  return FromJson(root);
}

Result<FaultPlan> FaultPlan::FromJson(const JsonValue& root) {
  PlanReader r;
  FaultPlan plan;
  if (const JsonValue* seed = r.Get(root, "seed")) {
    r.Take(seed->AsUInt(), "seed", &plan.seed);
  }
  for (const JsonValue& lv : r.Array(root, "links")) {
    LinkFault& f = plan.links.emplace_back();
    if (const JsonValue* a = r.Get(lv, "a")) r.Node(*a, "a", &f.a);
    if (const JsonValue* b = r.Get(lv, "b")) r.Node(*b, "b", &f.b);
    r.Windows(lv, "down", false, &f.down);
    r.Windows(lv, "loss", true, &f.loss);
    r.Windows(lv, "dup", true, &f.duplicate);
    r.Windows(lv, "reorder", true, &f.reorder);
  }
  for (const JsonValue& pv : r.Array(root, "partitions")) {
    PartitionFault& part = plan.partitions.emplace_back();
    for (const JsonValue& m : r.Array(pv, "group")) {
      r.Node(m, "group", &part.group.emplace_back());
    }
    // SeveredAt binary-searches the member set; hand-edited plans may
    // list members in any order.
    std::sort(part.group.begin(), part.group.end());
    r.Number(pv, "t0", &part.t0);
    r.Number(pv, "t1", &part.t1);
  }
  for (const JsonValue& cv : r.Array(root, "crashes")) {
    CrashFault& c = plan.crashes.emplace_back();
    if (const JsonValue* n = r.Get(cv, "node")) r.Node(*n, "node", &c.node);
    r.Number(cv, "t", &c.t);
    r.Number(cv, "restart", &c.restart_t);
    // Written as 0/1; hand-edited plans may use a bool.
    const JsonValue* warm = r.Get(cv, "retain_warm");
    if (warm != nullptr && warm->kind == JsonValue::Kind::kBool) {
      c.retain_warm_start = warm->boolean;
    } else if (warm != nullptr) {
      r.Take(warm->AsDouble(), "retain_warm", &c.retain_warm_start);
    }
  }
  if (!r.status.ok()) return r.status;
  return plan;
}

FaultPlan FaultPlan::Random(uint64_t seed, size_t num_nodes,
                            const std::vector<std::pair<NodeId, NodeId>>& links,
                            const RandomConfig& config) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(SplitMix64(seed ^ 0xFA017FA017ull));
  auto window = [&](double max_len) {
    LinkFault::Window w;
    double len = rng.UniformDouble(0.25, std::max(max_len, 0.5));
    w.t0 = rng.UniformDouble(config.t_min_s,
                             std::max(config.horizon_s - len, config.t_min_s + 0.1));
    w.t1 = w.t0 + len;
    return w;
  };
  for (const auto& [a, b] : links) {
    LinkFault f;
    f.a = a;
    f.b = b;
    if (rng.Bernoulli(config.flap_prob)) f.down.push_back(window(config.max_flap_s));
    if (rng.Bernoulli(config.loss_prob)) {
      LinkFault::Window w = window(config.horizon_s / 2);
      w.p = rng.UniformDouble(0.05, config.max_loss);
      f.loss.push_back(w);
    }
    if (rng.Bernoulli(config.dup_prob)) {
      LinkFault::Window w = window(config.horizon_s / 2);
      w.p = rng.UniformDouble(0.05, config.max_dup);
      f.duplicate.push_back(w);
    }
    if (rng.Bernoulli(config.reorder_prob)) {
      LinkFault::Window w = window(config.horizon_s / 2);
      w.p = rng.UniformDouble(config.max_reorder_s / 4, config.max_reorder_s);
      f.reorder.push_back(w);
    }
    if (!f.down.empty() || !f.loss.empty() || !f.duplicate.empty() ||
        !f.reorder.empty()) {
      plan.links.push_back(std::move(f));
    }
  }
  if (num_nodes >= 2 && rng.Bernoulli(config.partition_prob)) {
    PartitionFault part;
    part.group.push_back(static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(num_nodes) - 1)));
    LinkFault::Window w = window(config.max_partition_s);
    part.t0 = w.t0;
    part.t1 = w.t1;
    plan.partitions.push_back(std::move(part));
  }
  if (num_nodes >= 1 && rng.Bernoulli(config.crash_prob)) {
    CrashFault c;
    c.node = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(num_nodes) - 1));
    c.t = rng.UniformDouble(config.t_min_s, config.horizon_s * 0.6);
    if (config.allow_no_restart && rng.Bernoulli(0.25)) {
      c.restart_t = -1;
    } else {
      c.restart_t = c.t + rng.UniformDouble(1.0, std::max(config.max_down_s, 1.5));
    }
    c.retain_warm_start = config.retain_warm_start;
    plan.crashes.push_back(c);
  }
  return plan;
}

}  // namespace cologne::net
