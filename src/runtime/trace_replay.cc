#include "runtime/trace_replay.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/strings.h"

namespace cologne::runtime {

namespace {

const char* NetKindName(net::NetEvent::Kind kind) {
  switch (kind) {
    case net::NetEvent::Kind::kSend: return "send";
    case net::NetEvent::Kind::kDeliver: return "deliver";
    case net::NetEvent::Kind::kDrop: return "drop";
    case net::NetEvent::Kind::kDup: return "dup";
  }
  return "?";
}

}  // namespace

void TraceRecorder::Header(const std::string& program, uint64_t seed,
                           const net::FaultPlan& plan) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ev").String("header");
  w.Key("program").String(program);
  w.Key("seed").UInt(seed);
  w.Key("fault_plan").Raw(plan.ToJson());
  w.EndObject();
  Line(w.Take());
}

void TraceRecorder::Net(const net::NetEvent& ev) {
  JsonWriter w;
  w.BeginObject();
  w.Key("t").Double(ev.t);
  w.Key("ev").String(NetKindName(ev.kind));
  w.Key("from").Int(ev.from);
  w.Key("to").Int(ev.to);
  w.Key("table").String(ev.msg->table);
  if (ev.kind == net::NetEvent::Kind::kDrop) {
    w.Key("reason").String(ev.detail);
  } else {
    w.Key("row").String(RowToString(ev.msg->row));
    w.Key("sign").Int(ev.msg->sign);
    if (ev.msg->seq != 0) {
      // Reliable-channel sequence number (cumulative ack for @ack packets);
      // omitted for unsequenced datagrams so pre-channel traces are
      // unchanged.
      w.Key("seq").UInt(ev.msg->seq);
    }
    if (ev.kind == net::NetEvent::Kind::kSend) {
      w.Key("bytes").UInt(ev.msg->WireSize());
    }
    if (ev.detail != nullptr && ev.detail[0] != '\0') {
      w.Key("detail").String(ev.detail);
    }
  }
  w.EndObject();
  Line(w.Take());
}

void TraceRecorder::Fault(const char* kind, const std::string& detail) {
  JsonWriter w;
  w.BeginObject();
  w.Key("t").Double(Now());
  w.Key("ev").String("fault");
  w.Key("kind").String(kind);
  w.Members(detail);
  w.EndObject();
  Line(w.Take());
}

void TraceRecorder::Solve(NodeId node, const char* status, bool has_objective,
                          double objective, size_t vars, size_t groups,
                          bool warm_started,
                          const std::vector<SolveProvGroup>* prov,
                          const SolveIncr* incr) {
  JsonWriter w;
  w.BeginObject();
  w.Key("t").Double(Now());
  w.Key("ev").String("solve");
  w.Key("node").Int(node);
  w.Key("status").String(status);
  if (has_objective) w.Key("objective").Double(objective);
  w.Key("vars").UInt(vars);
  if (groups > 0) w.Key("groups").UInt(groups);
  w.Key("warm").Int(warm_started ? 1 : 0);
  if (prov != nullptr && !prov->empty()) {
    // Omitted entirely when provenance was not recorded (OBS_METRICS off),
    // keeping pre-observability traces byte-identical.
    w.Key("prov").BeginArray();
    for (const SolveProvGroup& g : *prov) {
      w.BeginObject();
      if (!g.key.empty()) w.Key("g").String(g.key);
      w.Key("src").String(g.src);
      if (!g.tight.empty()) {
        w.Key("tight").BeginArray();
        for (const std::string& label : g.tight) w.String(label);
        w.EndArray();
      }
      w.EndObject();
    }
    w.EndArray();
  }
  if (incr != nullptr) {
    // Omitted entirely when the incremental path is off, keeping
    // pre-incremental traces byte-identical.
    w.Key("incr").BeginObject();
    w.Key("dirty").Int(incr->dirty);
    w.Key("clean").Int(incr->clean);
    w.Key("fallback").Int(incr->fallback ? 1 : 0);
    // Only present on reused solves, so non-reuse incremental traces keep
    // their previous shape.
    if (incr->reused) w.Key("reused").Int(1);
    w.EndObject();
  }
  w.EndObject();
  Line(w.Take());
}

void TraceRecorder::Metrics(uint64_t round, const obs::MetricsRegistry& reg) {
  JsonWriter w;
  w.BeginObject();
  w.Key("t").Double(Now());
  w.Key("ev").String("metrics");
  w.Key("round").UInt(round);
  reg.AppendSnapshot(&w);
  w.EndObject();
  Line(w.Take());
}

void TraceRecorder::RxDrop(NodeId from, NodeId to, const std::string& table,
                           const char* reason) {
  JsonWriter w;
  w.BeginObject();
  w.Key("t").Double(Now());
  w.Key("ev").String("rx_drop");
  w.Key("from").Int(from);
  w.Key("to").Int(to);
  w.Key("table").String(table);
  w.Key("reason").String(reason);
  w.EndObject();
  Line(w.Take());
}

std::string TraceRecorder::ToString() const {
  std::string out;
  for (const std::string& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

Status TraceRecorder::WriteFile(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::RuntimeError("cannot open trace file for writing: " + path);
  }
  std::string body = ToString();
  size_t written = fwrite(body.data(), 1, body.size(), f);
  fclose(f);
  if (written != body.size()) {
    return Status::RuntimeError("short write to trace file: " + path);
  }
  return Status::OK();
}

Result<std::vector<std::string>> ReadTraceLines(const std::string& path) {
  FILE* f = fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::NotFound("cannot open trace file: " + path);
  }
  std::string body;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  fclose(f);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < body.size()) {
    size_t pos = body.find('\n', start);
    if (pos == std::string::npos) {
      lines.push_back(body.substr(start));
      break;
    }
    lines.push_back(body.substr(start, pos - start));
    start = pos + 1;
  }
  return lines;
}

std::string DiffTraces(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  size_t common = std::min(a.size(), b.size());
  for (size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) {
      return StrFormat("line %zu differs:\n  a: %s\n  b: %s", i + 1,
                       a[i].c_str(), b[i].c_str());
    }
  }
  if (a.size() != b.size()) {
    return StrFormat("length differs: %zu vs %zu lines (first extra: %s)",
                     a.size(), b.size(),
                     (a.size() > b.size() ? a[common] : b[common]).c_str());
  }
  return "";
}

Result<TraceHeader> ParseTraceHeader(const std::string& header_line) {
  // Fields are read by key, so their order is not significant.
  COLOGNE_ASSIGN_OR_RETURN(line, ParseJson(header_line));
  const JsonValue* ev = line.Find("ev");
  if (ev == nullptr || ev->text != "header") {
    return Status::ParseError("not a trace header line");
  }
  TraceHeader out;
  if (const JsonValue* program = line.Find("program")) {
    if (program->kind != JsonValue::Kind::kString) {
      return Status::ParseError(StrFormat(
          "program: byte %zu: expected a string", program->offset));
    }
    out.program = program->text;
  }
  if (const JsonValue* seed = line.Find("seed")) {
    Result<uint64_t> v = seed->AsUInt();
    if (!v.ok()) return Status::ParseError("seed: " + v.status().message());
    out.seed = v.value();
  }
  if (const JsonValue* plan = line.Find("fault_plan")) {
    COLOGNE_ASSIGN_OR_RETURN(read, net::FaultPlan::FromJson(*plan));
    out.plan = std::move(read);
  }
  return out;
}

}  // namespace cologne::runtime
