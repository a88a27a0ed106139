// bench_e2e: fixed-work end-to-end benchmark of the paper's three case
// studies (Section 6: ACloud, Follow-the-Sun, wireless channel selection),
// with a per-layer split from a traced run.
//
//   bench_e2e --workload acloud|fts|fts_incr|wireless --seed N --seconds S
//             [--trace FILE]
//
// Every solve runs with time_limit_ms = 0 and a pinned node_limit, so two
// builds of the program do identical work and only wall time differs. One
// *episode* is a fresh set-up followed by the workload's fixed-work phase;
// episodes repeat until their phases add up to --seconds, and every episode
// of a run must produce the same output fingerprint. The benchmark makes
// every call into the layers itself, so it can time colog (compile),
// datalog (fact calls), runtime (Instance::Solve minus search), solver
// (SolveStats::wall_ms) and net (System::RunUntil) from outside src/.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics, or with --trace the per-layer metrics
// (traced and untraced episodes then alternate, and the trace file gets
// Chrome trace-event JSON of the traced ones). The line before it carries
// the deterministic detail (objective, fingerprint, round and COP counts).
// The exit code is 1 when an output check fails, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/negotiation.h"
#include "apps/programs.h"
#include "apps/trace.h"
#include "apps/wireless.h"
#include "colog/planner.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "net/reliable_channel.h"
#include "runtime/instance.h"
#include "runtime/system.h"
#include "span_trace.h"

namespace cologne::bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;
using runtime::Instance;
using runtime::SolveOutput;
using runtime::SolveRequest;
using runtime::System;
using DcLink = std::pair<NodeId, NodeId>;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- Pinned workload shapes -------------------------------------------------
// Calibrated once so each episode has >= 200 measured rounds and COPs; see
// README.md for the measured split these produce.

// acloud: 3 DCs x 5 hosts x 15 VMs, 10-minute intervals. The 12 busiest VMs
// of a DC are placed by the COP each round (a fixed count, not a CPU
// threshold, so the model has the same 60 placement variables on every
// seed). Every COP stops at the node limit.
constexpr int kAcDcs = 3;
constexpr int kAcHosts = 5;
constexpr int kAcVmsPerHost = 15;
constexpr int kAcMovable = 12;
constexpr int kAcIntervals = 72;
constexpr double kAcIntervalS = 600;
constexpr int64_t kAcVmMemGb = 2;
constexpr int64_t kAcHostMemGb = 16;  // at most 8 movable VMs per host
constexpr uint64_t kAcNodeLimit = 700;

// fts / fts_incr: 10 DCs on a ring plus the 5 diameter chords (degree 3,
// the same topology on every seed), LNS, one link per session. The
// writeback skips a migVm row equal to one the node's previous solve wrote,
// so that decision moves nothing; in a multi-link session the rest of the
// plan would still apply and could break capacity or drive curVm negative.
// With one link a skipped decision leaves the state as it was.
constexpr int kFtsDcs = 10;
constexpr int kFtsDomainCap = 20;  // migVm domain [-cap, cap]
constexpr int kFtsMaxBatch = 1;
constexpr int kFtsDemandHi = 10;
// Low enough that more than 5% of the COPs stop at the limit (about 70% in
// fts, 15% in fts_incr), so the COP p95 is a node-limited search whatever
// costs the seed draws, and the p50 of fts is too.
constexpr uint64_t kFtsNodeLimit = 100;
constexpr uint64_t kFtsIncrNodeLimit = 200;
constexpr int kFtsColdPasses = 4;
constexpr int kFtsSunMoves = 70;
constexpr int kFtsIncrDeltas = 70;
constexpr double kRoundPeriodS = 5.0;
constexpr double kLinkLoss = 0.05;

// wireless: 30 x 30 grid, 8 channels, 2 blocked per node, M nodes churned
// per steady round.
constexpr int kWlGrid = 30;
constexpr int kWlChannels = 8;
constexpr int kWlBlocked = 2;
constexpr int kWlChurnNodes = 8;
constexpr int kWlSteadyRounds = 200;
constexpr uint64_t kWlNodeLimit = 200;

/// Each episode sets up at least kMinSetups times and keeps going until
/// kSetupSampleS seconds of set-up (at most kMaxSetups); setup_s is the
/// median over all set-ups of the run.
constexpr size_t kMinSetups = 5;
constexpr double kSetupSampleS = 0.02;
constexpr size_t kMaxSetups = 100;
/// A pass (fts) or drain (wireless) that needs more rounds than this has
/// abandoned links.
constexpr int kMaxRoundsPerDrain = 64;

// ---- Recorder: timing, counting and (optionally) tracing --------------------

/// Work counters summed over an episode's solves.
struct SolveTotals {
  uint64_t attempted = 0, failed = 0, reused = 0, limit_hits = 0;
  uint64_t vars = 0, props = 0;
  uint64_t nodes = 0, failures = 0, propagations = 0, wakes_filtered = 0;
  uint64_t props_skipped_entailed = 0;
  double search_ms = 0;
  size_t peak_mem_bytes = 0;
};

/// Datalog and network totals, read from the layers' own counters.
struct LayerCounters {
  uint64_t deltas = 0, rule_firings = 0, tuples_sent = 0;
  size_t table_bytes = 0;
  uint64_t messages = 0, bytes = 0, drops = 0, retransmits = 0, acks = 0;
  uint64_t data_sent = 0, sim_events = 0;
};

LayerCounters operator-(LayerCounters a, const LayerCounters& b) {
  a.deltas -= b.deltas;
  a.rule_firings -= b.rule_firings;
  a.tuples_sent -= b.tuples_sent;
  a.messages -= b.messages;
  a.bytes -= b.bytes;
  a.drops -= b.drops;
  a.retransmits -= b.retransmits;
  a.acks -= b.acks;
  a.data_sent -= b.data_sent;
  a.sim_events -= b.sim_events;
  return a;  // table_bytes stays the end-of-phase footprint
}

LayerCounters CountersOf(System& sys) {
  LayerCounters c;
  for (size_t i = 0; i < sys.num_nodes(); ++i) {
    const datalog::Engine& e = sys.node(static_cast<NodeId>(i)).engine();
    c.deltas += e.stats().deltas_processed;
    c.rule_firings += e.stats().rule_firings;
    c.tuples_sent += e.stats().tuples_sent;
    c.table_bytes += e.MemoryEstimate();
    const net::TrafficStats& t = sys.network().StatsOf(static_cast<NodeId>(i));
    c.messages += t.messages_sent;
    c.bytes += t.bytes_sent;
    c.drops += t.messages_dropped;
  }
  const net::ChannelStats& ch = sys.network().channel().stats();
  c.retransmits = ch.retransmits + ch.fast_retransmits;
  c.acks = ch.acks_sent;
  c.data_sent = ch.data_sent;
  c.sim_events = sys.sim().executed();
  return c;
}

/// Every call a workload makes into a layer goes through here: COP and
/// round latencies are always measured, spans only when tracing.
class Recorder {
 public:
  explicit Recorder(SpanTrace* trace) : trace_(trace) {}

  /// Latencies count only while steady (the perturbation phase). A solve
  /// that errs or finds no solution counts as failed.
  void set_steady(bool on) { steady_ = on; }
  /// System whose engines the net spans sample.
  void set_system(System* sys) { sys_ = sys; }

  Result<colog::CompiledProgram> Compile(const std::string& source) {
    const int id = Open("CompileColog", Layer::kColog, 0);
    const Clock::time_point t0 = Clock::now();
    Result<colog::CompiledProgram> prog = colog::CompileColog(source);
    compile_ms_ = MsSince(t0);
    Close(id, 0);
    return prog;
  }

  /// A fact call (InsertFact / DeleteFact / ApplyFact / Flush) on `inst`.
  /// The first failure is kept for calls made from simulator callbacks,
  /// which cannot return it.
  template <typename Fn>
  Status Fact(const char* name, Instance& inst, Fn&& fn) {
    const int id = Open(name, Layer::kDatalog, LocalDeltas(inst));
    Status s = fn();
    Close(id, LocalDeltas(inst));
    if (!s.ok() && first_error_.ok()) first_error_ = s;
    return s;
  }

  Result<SolveOutput> Solve(Instance& inst, const SolveRequest& req) {
    const int id = Open("Instance::Solve", Layer::kRuntime, LocalDeltas(inst));
    const Clock::time_point t0 = Clock::now();
    Result<SolveOutput> out = inst.Solve(req);
    const double ms = MsSince(t0);
    if (steady_) cop_ms_.push_back(ms);
    ++solve_.attempted;
    if (!out.ok() || !out.value().has_solution()) ++solve_.failed;
    const solver::SolveStats* st = out.ok() ? &out.value().stats : nullptr;
    if (out.ok()) Account(out.value(), inst.solve_options().node_limit);
    if (trace_ != nullptr) {
      if (st != nullptr && !out.value().incr_reused) {
        trace_->AddTimedChild(id, "search", Layer::kSolver, st->wall_ms);
      }
      Close(id, LocalDeltas(inst),
            st == nullptr
                ? std::string()
                : StrFormat("\"node\":%d,\"vars\":%zu,\"nodes\":%llu,"
                            "\"search_ms\":%.3f,\"reused\":%d",
                            inst.id(), out.value().model_vars,
                            static_cast<unsigned long long>(st->nodes),
                            st->wall_ms, out.value().incr_reused ? 1 : 0));
    }
    return out;
  }

  /// Advance virtual time: simulator, network, reliable channel and the
  /// receivers' fixpoints (plus any solves scheduled in the window).
  void Advance(double t) {
    const int id = Open("System::RunUntil", Layer::kNet, SystemDeltas());
    sys_->RunUntil(t);
    Close(id, SystemDeltas());
  }
  void Quiesce() {
    const int id = Open("System::RunToQuiescence", Layer::kNet,
                        SystemDeltas());
    sys_->RunToQuiescence();
    Close(id, SystemDeltas());
  }

  void BeginRound() {
    ++rounds_;
    if (trace_ != nullptr) trace_->set_round(rounds_);
    round_t0_ = Clock::now();
  }
  void EndRound() {
    if (steady_) round_ms_.push_back(MsSince(round_t0_));
  }

  uint64_t rounds() const { return rounds_; }
  const SolveTotals& solve() const { return solve_; }
  const std::vector<double>& cop_ms() const { return cop_ms_; }
  const std::vector<double>& round_ms() const { return round_ms_; }
  double compile_ms() const { return compile_ms_; }
  const Status& first_error() const { return first_error_; }

 private:
  int Open(const char* name, Layer layer, uint64_t deltas) {
    return trace_ == nullptr ? -1 : trace_->Begin(name, layer, deltas);
  }
  void Close(int id, uint64_t deltas, std::string args = {}) {
    if (trace_ != nullptr) trace_->End(id, deltas, std::move(args));
  }
  uint64_t LocalDeltas(const Instance& inst) const {
    return trace_ == nullptr ? 0 : inst.engine().stats().deltas_processed;
  }
  uint64_t SystemDeltas() const {
    if (trace_ == nullptr) return 0;
    uint64_t d = 0;
    for (size_t i = 0; i < sys_->num_nodes(); ++i) {
      d += sys_->node(static_cast<NodeId>(i)).engine().stats().deltas_processed;
    }
    return d;
  }

  void Account(const SolveOutput& out, uint64_t node_limit) {
    if (out.incr_reused) {
      ++solve_.reused;
      return;
    }
    const solver::SolveStats& st = out.stats;
    solve_.vars += out.model_vars;
    solve_.props += out.model_propagators;
    solve_.nodes += st.nodes;
    solve_.failures += st.failures;
    solve_.propagations += st.propagations;
    solve_.wakes_filtered += st.wakes_filtered;
    solve_.props_skipped_entailed += st.props_skipped_entailed;
    solve_.search_ms += st.wall_ms;
    solve_.peak_mem_bytes = std::max(solve_.peak_mem_bytes,
                                     st.peak_memory_bytes);
    if (st.nodes >= node_limit) ++solve_.limit_hits;
  }

  SpanTrace* trace_;
  System* sys_ = nullptr;
  bool steady_ = false;
  uint64_t rounds_ = 0;
  Clock::time_point round_t0_;
  SolveTotals solve_;
  std::vector<double> cop_ms_, round_ms_;
  double compile_ms_ = 0;
  Status first_error_;
};

// ---- Workloads --------------------------------------------------------------

/// What the output checks found after the fixed-work phase.
struct Outcome {
  double objective = 0;
  uint64_t output_hash = 0;  ///< Content hash of the solver-output tables.
  std::vector<std::string> violations;

  void Require(bool ok, const std::string& what) {
    if (!ok && violations.size() < 20) violations.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Compile, init, base facts, initial quiescence.
  virtual Status Setup(Recorder& rec) = 0;
  /// The fixed-work phase.
  virtual Status Run(Recorder& rec) = 0;
  /// Output checks, objective and output hash (not timed).
  virtual Outcome Check() = 0;
  /// Datalog and network work since the end of Setup.
  LayerCounters Counters() { return CountersOf(*sys_) - baseline_; }

 protected:
  /// Compile `source` and deploy it on `nodes` Cologne instances.
  Status Deploy(Recorder& rec, const std::string& source, size_t nodes,
                System::Options opts = {}) {
    COLOGNE_ASSIGN_OR_RETURN(prog, rec.Compile(source));
    prog_ = std::move(prog);
    sys_ = std::make_unique<System>(&prog_, nodes, opts);
    COLOGNE_RETURN_IF_ERROR(sys_->Init());
    rec.set_system(sys_.get());
    return Status::OK();
  }

  colog::CompiledProgram prog_;
  std::unique_ptr<System> sys_;
  LayerCounters baseline_;  ///< CountersOf(*sys_) at the end of Setup.
};

/// The distributed workloads' network: the reliable transport over links
/// that lose kLinkLoss of their packets, seeded like the inputs.
System::Options LossyReliable(uint64_t seed) {
  System::Options opts;
  opts.seed = seed;
  opts.net_reliable = true;
  opts.default_link.drop_prob = kLinkLoss;
  return opts;
}

/// No wall-clock budget: the node limit alone bounds every search, so the
/// work does not depend on how fast the machine is.
runtime::SolveOptions PinnedOptions(runtime::SolveOptions o,
                                    solver::Backend backend,
                                    uint64_t node_limit) {
  o.backend = backend;
  o.time_limit_ms = 0;
  o.node_limit = node_limit;
  return o;
}

Value N(NodeId x) { return Value::Node(x); }
Value I(int64_t v) { return Value::Int(v); }

// -- acloud -------------------------------------------------------------------

/// Centralized ACloud (paper Section 4.2), one Cologne instance per DC: a
/// System of kAcDcs nodes with no links between them. A round is one DC's
/// fact refresh, its periodic solve on the simulator clock, and the
/// placement read-back. No network: `net` changes must not move this
/// workload.
class ACloud : public Workload {
 public:
  explicit ACloud(uint64_t seed)
      : seed_(seed), trace_(apps::TraceConfig{.seed = seed}) {}

  Status Setup(Recorder& rec) override {
    COLOGNE_RETURN_IF_ERROR(
        Deploy(rec, apps::ACloudProgram(false), static_cast<size_t>(kAcDcs)));
    Rng rng(seed_);
    for (int dc = 0; dc < kAcDcs; ++dc) {
      Instance& inst = sys_->node(dc);
      inst.set_solve_options(
          PinnedOptions(inst.solve_options(), solver::Backend::kBranchAndBound,
                        kAcNodeLimit));
      for (int h = dc * kAcHosts; h < (dc + 1) * kAcHosts; ++h) {
        for (int k = 0; k < kAcVmsPerHost; ++k) {
          vms_.push_back(Vm{static_cast<int>(vms_.size()),
                            static_cast<int>(rng.UniformInt(
                                0, trace_.num_customers() - 1)),
                            h, 0});
        }
        COLOGNE_RETURN_IF_ERROR(rec.Fact("ApplyFact", inst, [&] {
          return inst.ApplyFact("hostMemThres", {I(h), I(kAcHostMemGb)}, +1);
        }));
      }
      COLOGNE_RETURN_IF_ERROR(
          rec.Fact("Flush", inst, [&] { return inst.Flush(); }));
    }
    baseline_ = CountersOf(*sys_);
    return Status::OK();
  }

  Status Run(Recorder& rec) override {
    rec.set_steady(true);
    for (int step = 0; step < kAcIntervals; ++step) {
      const double t_s = step * kAcIntervalS;
      for (Vm& vm : vms_) {
        vm.cpu = std::lround(trace_.CustomerCpu(vm.customer, t_s));
      }
      for (int dc = 0; dc < kAcDcs; ++dc) {
        rec.BeginRound();
        COLOGNE_RETURN_IF_ERROR(Round(rec, dc, t_s));
        rec.EndRound();
      }
      double stdev_sum = 0;
      for (int dc = 0; dc < kAcDcs; ++dc) stdev_sum += DcStdev(dc);
      objective_sum_ += stdev_sum / kAcDcs;
    }
    return Status::OK();
  }

  Outcome Check() override {
    Outcome o = check_;
    o.objective = objective_sum_ / kAcIntervals;
    for (int dc = 0; dc < kAcDcs; ++dc) {
      o.output_hash = o.output_hash * 31 +
                      sys_->node(dc).engine().GetTable("assign")->ContentHash();
    }
    for (const Vm& vm : vms_) o.output_hash = o.output_hash * 31 + vm.host;
    return o;
  }


 private:
  struct Vm {
    int id;
    int customer;
    int host;  // global host id
    int64_t cpu;
  };

  Status Round(Recorder& rec, int dc, double t_s) {
    Instance& inst = sys_->node(dc);
    const int lo = dc * kAcHosts, hi = lo + kAcHosts;
    std::vector<Vm*> in_dc;
    for (Vm& vm : vms_) {
      if (vm.host >= lo && vm.host < hi) in_dc.push_back(&vm);
    }
    std::sort(in_dc.begin(), in_dc.end(), [](const Vm* a, const Vm* b) {
      return a->cpu != b->cpu ? a->cpu > b->cpu : a->id < b->id;
    });
    std::vector<Vm*> movable(in_dc.begin(), in_dc.begin() + kAcMovable);
    std::vector<int64_t> residual(kAcHosts, 0);
    for (size_t i = kAcMovable; i < in_dc.size(); ++i) {
      residual[static_cast<size_t>(in_dc[i]->host - lo)] += in_dc[i]->cpu;
    }
    std::set<int64_t> keep;
    for (const Vm* vm : movable) keep.insert(vm->id);

    // Keyed tables replace a changed row in place, and rows of VMs that left
    // the movable set are deleted. An unchanged row is not inserted again:
    // that would raise its derivation count, and a later delete would leave
    // it visible.
    datalog::Engine& eng = inst.engine();
    auto apply = [&](const char* table, Row row, int sign) {
      if (sign > 0 && eng.GetTable(table)->Contains(row)) return Status::OK();
      return rec.Fact("ApplyFact", inst, [&] {
        return inst.ApplyFact(table, std::move(row), sign);
      });
    };
    for (const char* table : {"vm", "origin"}) {
      for (const Row& row : eng.GetTable(table)->Rows()) {
        if (!keep.count(row[0].as_int())) {
          COLOGNE_RETURN_IF_ERROR(apply(table, row, -1));
        }
      }
    }
    for (const Vm* vm : movable) {
      COLOGNE_RETURN_IF_ERROR(
          apply("vm", {I(vm->id), I(vm->cpu), I(kAcVmMemGb)}, +1));
      COLOGNE_RETURN_IF_ERROR(apply("origin", {I(vm->id), I(vm->host)}, +1));
    }
    for (int h = lo; h < hi; ++h) {
      const int64_t load = residual[static_cast<size_t>(h - lo)];
      COLOGNE_RETURN_IF_ERROR(apply("host", {I(h), I(load), I(0)}, +1));
    }
    COLOGNE_RETURN_IF_ERROR(
        rec.Fact("Flush", inst, [&] { return inst.Flush(); }));

    // The COP runs as the DC's periodic trigger at the interval's virtual
    // time, which every DC of the interval shares, so advancing the clock
    // to t_s runs it before this function returns.
    bool solved = false;
    sys_->sim().ScheduleAt(t_s, [&] {
      Result<SolveOutput> out = rec.Solve(inst, SolveRequest{});
      solved = out.ok() && out.value().has_solution();
    });
    rec.Advance(t_s);
    if (!solved) return Status::OK();

    // Placement read-back: assign(Vid,Hid,1) puts VM Vid on host Hid.
    const datalog::Table* assign = eng.GetTable("assign");
    std::vector<int64_t> mem(kAcHosts, 0);
    for (Vm* vm : movable) {
      int placed = 0;
      for (int h = lo; h < hi; ++h) {
        if (assign->Contains({I(vm->id), I(h), I(1)})) {
          ++placed;
          vm->host = h;
          mem[static_cast<size_t>(h - lo)] += kAcVmMemGb;
        }
      }
      check_.Require(placed == 1, StrFormat("acloud: vm %d placed on %d hosts",
                                            vm->id, placed));
    }
    for (int h = lo; h < hi; ++h) {
      check_.Require(mem[static_cast<size_t>(h - lo)] <= kAcHostMemGb,
                     StrFormat("acloud: host %d memory over threshold", h));
    }
    return Status::OK();
  }

  double DcStdev(int dc) const {
    std::vector<double> load(kAcHosts, 0);
    for (const Vm& vm : vms_) {
      const int h = vm.host - dc * kAcHosts;
      if (h >= 0 && h < kAcHosts) load[static_cast<size_t>(h)] += vm.cpu;
    }
    return Stdev(load);
  }

  uint64_t seed_;
  apps::DataCenterTrace trace_;
  std::vector<Vm> vms_;
  double objective_sum_ = 0;
  Outcome check_;
};

// -- fts / fts_incr -----------------------------------------------------------

/// Distributed Follow-the-Sun (paper Section 4.3) over the reliable
/// transport with 5% loss. Cold negotiation, then a stream of commCost
/// perturbations, each followed by one renegotiation pass over every link:
/// `fts` moves the sun (every commCost row re-keyed, n^2 replacements) and
/// solves cold; `fts_incr` changes one DC's row set per step and solves
/// through SolveMode::kIncremental, so unchanged nodes reuse their output.
class FollowTheSun : public Workload {
 public:
  FollowTheSun(uint64_t seed, bool incremental)
      : seed_(seed), incremental_(incremental), rng_(seed) {}

  Status Setup(Recorder& rec) override {
    const int n = kFtsDcs;
    COLOGNE_RETURN_IF_ERROR(
        Deploy(rec,
               apps::FollowTheSunDistributedProgram(false, kFtsDomainCap, 20,
                                                    /*batched=*/true),
               static_cast<size_t>(n), LossyReliable(seed_)));
    for (int i = 0; i < n; ++i) {
      Instance& inst = sys_->node(i);
      runtime::SolveOptions o =
          PinnedOptions(inst.solve_options(), solver::Backend::kLns,
                        incremental_ ? kFtsIncrNodeLimit : kFtsNodeLimit);
      // fts solves cold; fts_incr keeps the warm start its reuse and
      // focused search are built on.
      o.warm_start = incremental_;
      inst.set_solve_options(o);
      links_.push_back({std::min(i, (i + 1) % n), std::max(i, (i + 1) % n)});
    }
    for (int i = 0; i < n / 2; ++i) links_.push_back({i, i + n / 2});
    for (auto [a, b] : links_) COLOGNE_RETURN_IF_ERROR(sys_->AddLink(a, b));

    cur_.assign(n, std::vector<int64_t>(n, 0));
    comm_.assign(n, std::vector<int64_t>(n, 0));
    total_.assign(n, 0);
    for (int x = 0; x < n; ++x) {
      for (int d = 0; d < n; ++d) {
        cur_[x][d] = rng_.UniformInt(0, kFtsDemandHi);
        total_[d] += cur_[x][d];
      }
    }
    // Every site can hold every VM. With a binding capacity the first dive
    // of a node-limited solve now and then spends its whole budget before
    // it finds the zero-migration solution (1 COP in 30 seeds at a limit of
    // 1000), and the run would report a failed operation.
    capacity_ = std::accumulate(total_.begin(), total_.end(), int64_t{0});
    for (int x = 0; x < n; ++x) {
      std::vector<std::pair<std::string, Row>> facts;
      for (int d = 0; d < n; ++d) {
        comm_[x][d] = CommCost(x, d, 0);
        facts.push_back({"curVm", {N(x), I(d), I(cur_[x][d])}});
        facts.push_back({"commCost", {N(x), I(d), I(comm_[x][d])}});
        facts.push_back({"dc", {N(x), I(d)}});
      }
      facts.push_back({"opCost", {N(x), I(kOpCost)}});
      facts.push_back({"resource", {N(x), I(capacity_)}});
      COLOGNE_RETURN_IF_ERROR(Insert(rec, x, facts));
    }
    for (auto [a, b] : links_) {
      const int64_t mc = rng_.UniformInt(10, 20);
      mig_cost_[{a, b}] = mc;
      COLOGNE_RETURN_IF_ERROR(Insert(
          rec, a, {{"link", {N(a), N(b)}}, {"migCost", {N(a), N(b), I(mc)}}}));
      COLOGNE_RETURN_IF_ERROR(Insert(
          rec, b, {{"link", {N(b), N(a)}}, {"migCost", {N(b), N(a), I(mc)}}}));
    }
    rec.Quiesce();  // ship the localized tables
    baseline_ = CountersOf(*sys_);
    return Status::OK();
  }

  Status Run(Recorder& rec) override {
    for (int p = 0; p < kFtsColdPasses; ++p) {
      COLOGNE_RETURN_IF_ERROR(Pass(rec, nullptr));
    }
    rec.set_steady(true);
    const int steps = incremental_ ? kFtsIncrDeltas : kFtsSunMoves;
    for (int k = 1; k <= steps; ++k) {
      COLOGNE_RETURN_IF_ERROR(Pass(rec, [&] {
        return incremental_ ? ReKeyOneDc(rec) : MoveSun(rec, k);
      }));
    }
    rec.set_steady(false);
    rec.Quiesce();
    return rec.first_error();
  }

  Outcome Check() override {
    Outcome o = check_;
    const int n = kFtsDcs;
    std::vector<int64_t> per_demand(n, 0);
    double cost = mig_cost_total_;
    for (int x = 0; x < n; ++x) {
      const datalog::Table* t = sys_->node(x).engine().GetTable("curVm");
      std::vector<int64_t> engine_row(n, -1);
      for (const Row& row : t->Rows()) {
        if (row[0].as_node() == x) {
          engine_row[static_cast<size_t>(row[1].as_int())] = row[2].as_int();
        }
      }
      int64_t site = 0;
      for (int d = 0; d < n; ++d) {
        const int64_t r = engine_row[d];
        o.Require(r == cur_[x][d],
                  StrFormat("fts: curVm(%d,%d) engine %lld != mirror %lld", x,
                            d, static_cast<long long>(r),
                            static_cast<long long>(cur_[x][d])));
        o.Require(r >= 0, StrFormat("fts: curVm(%d,%d) negative", x, d));
        site += r;
        per_demand[d] += r;
        cost += static_cast<double>(r * (comm_[x][d] + kOpCost));
      }
      o.Require(site <= capacity_,
                StrFormat("fts: site %d holds %lld > capacity %lld", x,
                          static_cast<long long>(site),
                          static_cast<long long>(capacity_)));
      o.output_hash = o.output_hash * 31 + t->ContentHash();
      o.output_hash = o.output_hash * 31 +
                      sys_->node(x).engine().GetTable("migVm")->ContentHash();
    }
    for (int d = 0; d < n; ++d) {
      o.Require(per_demand[d] == total_[d],
                StrFormat("fts: demand %d holds %lld VMs, started with %lld",
                          d, static_cast<long long>(per_demand[d]),
                          static_cast<long long>(total_[d])));
    }
    o.objective = cost;
    return o;
  }


 private:
  static constexpr int64_t kOpCost = 10;

  // Demand d is cheapest to serve where the sun currently is: at DC
  // (d + move) mod n. Every other site costs 50..100 per VM.
  int64_t CommCost(int x, int d, int move) {
    return x == (d + move) % kFtsDcs ? 5 : rng_.UniformInt(50, 100);
  }

  Status Insert(Recorder& rec, NodeId x,
                const std::vector<std::pair<std::string, Row>>& facts) {
    Instance& inst = sys_->node(x);
    for (const auto& [table, row] : facts) {
      COLOGNE_RETURN_IF_ERROR(rec.Fact("ApplyFact", inst, [&] {
        return inst.ApplyFact(table, row, +1);
      }));
    }
    return rec.Fact("Flush", inst, [&] { return inst.Flush(); });
  }

  Status ReKeyRows(Recorder& rec, NodeId x, int move) {
    std::vector<std::pair<std::string, Row>> facts;
    for (int d = 0; d < kFtsDcs; ++d) {
      comm_[x][d] = CommCost(x, d, move);
      facts.push_back({"commCost", {N(x), I(d), I(comm_[x][d])}});
    }
    return Insert(rec, x, facts);
  }

  Status MoveSun(Recorder& rec, int move) {
    for (int x = 0; x < kFtsDcs; ++x) {
      COLOGNE_RETURN_IF_ERROR(ReKeyRows(rec, x, move));
    }
    return Status::OK();
  }

  Status ReKeyOneDc(Recorder& rec) {
    const NodeId x = static_cast<NodeId>(rng_.UniformInt(0, kFtsDcs - 1));
    return ReKeyRows(rec, x, static_cast<int>(rng_.UniformInt(0, kFtsDcs - 1)));
  }

  /// Renegotiate every link once. `perturb` runs inside the first round.
  Status Pass(Recorder& rec, const std::function<Status()>& perturb) {
    std::set<DcLink> pending(links_.begin(), links_.end());
    for (int r = 0; !pending.empty(); ++r) {
      if (r == kMaxRoundsPerDrain) {
        check_.Require(false, "fts: pass abandoned links");
        return Status::OK();
      }
      rec.BeginRound();
      if (r == 0 && perturb) COLOGNE_RETURN_IF_ERROR(perturb());
      for (const auto& batch : apps::ClaimBatches(
               links_, &pending, kFtsDcs, true, kFtsMaxBatch,
               [](const DcLink&) { return apps::LinkClaim::kClaim; })) {
        Schedule(rec, batch.init, batch.peers);
      }
      round_start_ += kRoundPeriodS;
      rec.Advance(round_start_);
      rec.EndRound();
    }
    return Status::OK();
  }

  // A closing session deletes its applied (non-zero) migVm rows at `x`
  // toward `y`. Without this, d0 sums every earlier session's decision
  // again into the next model's outflow, and after a few passes some COPs
  // become infeasible. Zero rows move nothing and stay, so a node whose
  // inputs did not change can still reuse its previous solve.
  void RetireMigrations(Recorder& rec, NodeId x, NodeId y) {
    Instance& inst = sys_->node(x);
    const datalog::Table* mig = inst.engine().GetTable("migVm");
    for (const Row& row : mig->Rows()) {
      if (row[1].as_node() != y || row[3].as_int() == 0) continue;
      // The peer's r2 echo can hold a second derivation of the row.
      for (int guard = 0; guard < 4 && mig->Contains(row); ++guard) {
        (void)rec.Fact("DeleteFact", inst,
                       [&] { return inst.DeleteFact("migVm", row); });
      }
    }
  }

  // The negotiation protocol of apps::FollowTheSunScenario: open the
  // sessions, solve at the initiator, close the sessions (retiring their
  // migrations) before the next round.
  void Schedule(Recorder& rec, NodeId init, const std::vector<NodeId>& peers) {
    sys_->sim().ScheduleAt(round_start_ + 0.1, [this, &rec, init, peers] {
      for (NodeId peer : peers) {
        (void)rec.Fact("InsertFact", sys_->node(init), [&] {
          return sys_->node(init).InsertFact("setLink", {N(init), N(peer)});
        });
        (void)rec.Fact("InsertFact", sys_->node(peer), [&] {
          return sys_->node(peer).InsertFact("setLink", {N(peer), N(init)});
        });
      }
    });
    sys_->sim().ScheduleAt(round_start_ + 2.0, [this, &rec, init] {
      Instance& inst = sys_->node(init);
      SolveRequest req;
      req.mode = incremental_ ? runtime::SolveMode::kIncremental
                              : runtime::SolveMode::kBatched;
      req.group_key_prefix = 2;  // one decision group per (X, Y) link
      req.changed_tables = inst.touched_tables();
      Result<SolveOutput> out = rec.Solve(inst, req);
      if (!out.ok() || !out.value().has_solution() ||
          out.value().incr_reused) {
        return;  // a reused solve skips the writeback: nothing moves
      }
      // Mirror r3's curVm updates for the checks and the objective. The
      // writeback skips rows its previous solve already wrote, so such a
      // decision fires no post-solve event and moves nothing.
      auto it = out.value().tables.find("migVm");
      if (it == out.value().tables.end()) return;
      std::set<Row>& prev = prev_out_[init];
      for (const Row& row : it->second) {
        const int64_t moved = row[3].as_int();
        if (moved == 0 || prev.count(row)) continue;
        const NodeId peer = row[1].as_node();
        const size_t d = static_cast<size_t>(row[2].as_int());
        cur_[init][d] -= moved;
        cur_[peer][d] += moved;
        mig_cost_total_ += static_cast<double>(
            std::abs(moved) *
            mig_cost_[{std::min(init, peer), std::max(init, peer)}]);
      }
      prev = std::set<Row>(it->second.begin(), it->second.end());
    });
    sys_->sim().ScheduleAt(round_start_ + 4.0, [this, &rec, init, peers] {
      for (NodeId peer : peers) {
        RetireMigrations(rec, init, peer);
        RetireMigrations(rec, peer, init);
        (void)rec.Fact("DeleteFact", sys_->node(init), [&] {
          return sys_->node(init).DeleteFact("setLink", {N(init), N(peer)});
        });
        (void)rec.Fact("DeleteFact", sys_->node(peer), [&] {
          return sys_->node(peer).DeleteFact("setLink", {N(peer), N(init)});
        });
      }
    });
  }

  uint64_t seed_;
  bool incremental_;
  Rng rng_;
  std::vector<DcLink> links_;
  std::vector<std::vector<int64_t>> cur_, comm_;  // [site][demand]
  std::vector<int64_t> total_;  // VMs per demand
  int64_t capacity_ = 0;
  std::map<DcLink, int64_t> mig_cost_;
  std::map<NodeId, std::set<Row>> prev_out_;  // migVm rows of the last solve
  double mig_cost_total_ = 0;
  double round_start_ = 0;
  Outcome check_;
};

// -- wireless -----------------------------------------------------------------

/// Distributed wireless channel selection (paper Appendix A.3) on a 30 x 30
/// grid over the reliable transport with 5% loss: cold convergence, then
/// primary-user churn. Each steady round M nodes gain a blocked channel and
/// retire their oldest, and their links join the pending set; one
/// negotiation round runs per churn round, then the backlog drains.
class Wireless : public Workload {
 public:
  explicit Wireless(uint64_t seed) : seed_(seed), rng_(seed) {}

  Status Setup(Recorder& rec) override {
    const int n = kWlGrid * kWlGrid;
    COLOGNE_RETURN_IF_ERROR(
        Deploy(rec,
               apps::WirelessDistributedProgram(kWlChannels, 2,
                                                /*two_hop=*/true,
                                                /*batched=*/false),
               static_cast<size_t>(n), LossyReliable(seed_)));
    for (int v = 0; v < n; ++v) {
      Instance& inst = sys_->node(v);
      inst.set_solve_options(PinnedOptions(inst.solve_options(),
                                           solver::Backend::kBranchAndBound,
                                           kWlNodeLimit));
    }
    incident_.assign(static_cast<size_t>(n), {});
    for (int y = 0; y < kWlGrid; ++y) {
      for (int x = 0; x < kWlGrid; ++x) {
        const int v = y * kWlGrid + x;
        if (x + 1 < kWlGrid) links_.push_back({v, v + 1});
        if (y + 1 < kWlGrid) links_.push_back({v, v + kWlGrid});
      }
    }
    for (const DcLink& l : links_) {
      incident_[static_cast<size_t>(l.first)].push_back(l);
      incident_[static_cast<size_t>(l.second)].push_back(l);
      COLOGNE_RETURN_IF_ERROR(sys_->AddLink(l.first, l.second));
      COLOGNE_RETURN_IF_ERROR(Fact(rec, "InsertFact", l.first, "link",
                                   {N(l.first), N(l.second)}, +1));
      COLOGNE_RETURN_IF_ERROR(Fact(rec, "InsertFact", l.second, "link",
                                   {N(l.second), N(l.first)}, +1));
    }
    blocked_.assign(static_cast<size_t>(n), {});
    for (int v = 0; v < n; ++v) {
      while (static_cast<int>(blocked_[v].size()) < kWlBlocked) {
        COLOGNE_RETURN_IF_ERROR(Block(rec, v));
      }
    }
    rec.Quiesce();
    baseline_ = CountersOf(*sys_);
    return Status::OK();
  }

  Status Run(Recorder& rec) override {
    std::set<DcLink> pending(links_.begin(), links_.end());
    COLOGNE_RETURN_IF_ERROR(Drain(rec, &pending));
    rec.set_steady(true);
    const int n = kWlGrid * kWlGrid;
    for (int r = 0; r < kWlSteadyRounds; ++r) {
      rec.BeginRound();
      std::set<int> churned;
      while (static_cast<int>(churned.size()) < kWlChurnNodes) {
        churned.insert(static_cast<int>(rng_.UniformInt(0, n - 1)));
      }
      for (int v : churned) {
        COLOGNE_RETURN_IF_ERROR(Block(rec, v));
        const int oldest = blocked_[v].front();
        blocked_[v].pop_front();
        COLOGNE_RETURN_IF_ERROR(Fact(rec, "DeleteFact", v, "primaryUser",
                                     {N(v), I(oldest)}, -1));
        pending.insert(incident_[v].begin(), incident_[v].end());
      }
      Negotiate(rec, &pending);
      rec.EndRound();
    }
    rec.set_steady(false);
    COLOGNE_RETURN_IF_ERROR(Drain(rec, &pending));
    rec.Quiesce();
    return rec.first_error();
  }

  Outcome Check() override {
    Outcome o = check_;
    std::map<apps::Link, int> channel;
    for (const DcLink& l : links_) {
      const NodeId init = l.second, peer = l.first;  // higher id initiates
      const int c = ChannelAt(init, peer);
      o.Require(c > 0, StrFormat("wireless: link %d-%d has no channel", peer,
                                 init));
      if (c <= 0) continue;
      o.Require(c <= kWlChannels,
                StrFormat("wireless: link %d-%d channel %d out of range",
                          peer, init, c));
      o.Require(ChannelAt(peer, init) == c,
                StrFormat("wireless: link %d-%d asymmetric", peer, init));
      for (NodeId v : {init, peer}) {
        const auto& b = blocked_[static_cast<size_t>(v)];
        o.Require(std::find(b.begin(), b.end(), c) == b.end(),
                  StrFormat("wireless: link %d-%d uses channel %d blocked "
                            "at %d",
                            peer, init, c, v));
      }
      channel[{peer, init}] = c;
      o.output_hash = o.output_hash * 31 + static_cast<uint64_t>(c);
    }
    // Interference recounted from the final channels by the scenario model,
    // independently of the solver's objective.
    apps::WirelessConfig cfg;
    cfg.grid_w = cfg.grid_h = kWlGrid;
    cfg.num_channels = kWlChannels;
    o.objective = apps::WirelessScenario(cfg).InterferenceCost(channel);
    return o;
  }


 private:
  Status Fact(Recorder& rec, const char* name, NodeId v, const char* table,
              Row row, int sign) {
    Instance& inst = sys_->node(v);
    return rec.Fact(name, inst, [&] {
      return sign > 0 ? inst.InsertFact(table, std::move(row))
                      : inst.DeleteFact(table, std::move(row));
    });
  }

  /// Block one more channel at `v` (a primary user appears).
  Status Block(Recorder& rec, int v) {
    auto& b = blocked_[static_cast<size_t>(v)];
    int c = 0;
    do {
      c = static_cast<int>(rng_.UniformInt(1, kWlChannels));
    } while (std::find(b.begin(), b.end(), c) != b.end());
    b.push_back(c);
    return Fact(rec, "InsertFact", v, "primaryUser", {N(v), I(c)}, +1);
  }

  int ChannelAt(NodeId x, NodeId y) {
    const datalog::Table* t = sys_->node(x).engine().GetTable("assign");
    const Row* row = t->FindByKey({N(x), N(y)});
    return row == nullptr ? 0 : static_cast<int>((*row)[2].as_int());
  }

  Status Drain(Recorder& rec, std::set<DcLink>* pending) {
    for (int r = 0; !pending->empty(); ++r) {
      if (r == kMaxRoundsPerDrain) {
        check_.Require(false, "wireless: drain abandoned links");
        return Status::OK();
      }
      rec.BeginRound();
      Negotiate(rec, pending);
      rec.EndRound();
    }
    return Status::OK();
  }

  // One round of the apps::WirelessScenario protocol: one link per node,
  // the higher id initiates and solves.
  void Negotiate(Recorder& rec, std::set<DcLink>* pending) {
    for (const auto& batch : apps::ClaimBatches(
             links_, pending, kWlGrid * kWlGrid, false, 0,
             [](const DcLink&) { return apps::LinkClaim::kClaim; })) {
      const NodeId init = batch.init, peer = batch.peers.front();
      sys_->sim().ScheduleAt(round_start_ + 0.1, [this, &rec, init, peer] {
        (void)Fact(rec, "InsertFact", init, "setLink", {N(init), N(peer)}, +1);
      });
      sys_->sim().ScheduleAt(round_start_ + 2.0, [this, &rec, init] {
        (void)rec.Solve(sys_->node(init), SolveRequest{});
      });
      sys_->sim().ScheduleAt(round_start_ + 4.0, [this, &rec, init, peer] {
        (void)Fact(rec, "DeleteFact", init, "setLink", {N(init), N(peer)}, -1);
      });
    }
    round_start_ += kRoundPeriodS;
    rec.Advance(round_start_);
  }

  uint64_t seed_;
  Rng rng_;
  std::vector<DcLink> links_;
  std::vector<std::vector<DcLink>> incident_;
  std::vector<std::deque<int>> blocked_;  // oldest first
  double round_start_ = 0;
  Outcome check_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "acloud") return std::make_unique<ACloud>(seed);
  if (name == "fts") return std::make_unique<FollowTheSun>(seed, false);
  if (name == "fts_incr") return std::make_unique<FollowTheSun>(seed, true);
  if (name == "wireless") return std::make_unique<Wireless>(seed);
  return nullptr;
}

// ---- Episodes, metrics, output ----------------------------------------------

struct Episode {
  bool traced = false;
  double run_s = 0, compile_ms = 0;
  uint64_t rounds = 0;
  SolveTotals solve;
  LayerCounters counters;
  LayerTotals layers;
  Outcome outcome;
  std::string fingerprint;
  /// Steady-phase latencies in the order they ran. Episodes are
  /// deterministic, so sample i is the same COP (or round) in every episode
  /// of a run.
  std::vector<double> cop_ms, round_ms;
};

std::string Fingerprint(const Episode& e) {
  // Objective, output tables and the work counts: equal fingerprints mean
  // equal outputs reached by equal work.
  return StrFormat("obj=%.6f out=%016llx solves=%llu nodes=%llu deltas=%llu "
                   "msgs=%llu steady=%zu/%zu",
                   e.outcome.objective,
                   static_cast<unsigned long long>(e.outcome.output_hash),
                   static_cast<unsigned long long>(e.solve.attempted),
                   static_cast<unsigned long long>(e.solve.nodes),
                   static_cast<unsigned long long>(e.counters.deltas),
                   static_cast<unsigned long long>(e.counters.messages),
                   e.round_ms.size(), e.cop_ms.size());
}

/// Set up `workload` into `*w`, appending the set-up time to `setups`.
Status TimedSetup(const std::string& workload, uint64_t seed, Recorder& rec,
                  std::unique_ptr<Workload>* w, std::vector<double>* setups) {
  *w = MakeWorkload(workload, seed);
  const Clock::time_point t0 = Clock::now();
  COLOGNE_RETURN_IF_ERROR((*w)->Setup(rec));
  setups->push_back(MsSince(t0) / 1000.0);
  return Status::OK();
}

Status RunEpisode(const std::string& workload, uint64_t seed,
                  SpanTrace* trace, Episode* e, std::vector<double>* setups) {
  // Set-up samples are spread over the run, a few per episode; the last
  // set-up of an episode is the one it runs on.
  std::unique_ptr<Workload> w;
  double sampled_s = 0;
  for (size_t i = 1; i < kMinSetups ||
                     (sampled_s < kSetupSampleS && i < kMaxSetups);
       ++i) {
    Recorder untraced(nullptr);
    COLOGNE_RETURN_IF_ERROR(TimedSetup(workload, seed, untraced, &w, setups));
    sampled_s += setups->back();
  }
  Recorder rec(trace);
  COLOGNE_RETURN_IF_ERROR(TimedSetup(workload, seed, rec, &w, setups));
  e->compile_ms = rec.compile_ms();
  Clock::time_point t0;
  const size_t first_span = trace == nullptr ? 0 : trace->size();
  t0 = Clock::now();
  COLOGNE_RETURN_IF_ERROR(w->Run(rec));
  e->run_s = MsSince(t0) / 1000.0;
  if (trace != nullptr) e->layers = trace->Summarize(first_span);
  e->traced = trace != nullptr;
  e->rounds = rec.rounds();
  e->solve = rec.solve();
  e->counters = w->Counters();
  e->cop_ms = rec.cop_ms();
  e->round_ms = rec.round_ms();
  e->outcome = w->Check();
  e->fingerprint = Fingerprint(*e);
  return Status::OK();
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 50); }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

class MetricsJson {
 public:
  void Add(const char* name, double value, const char* unit) {
    body_ += StrFormat("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                       body_.empty() ? "" : ", ", name, value, unit);
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

// The machine this runs on changes speed by 10-30% over seconds to minutes
// (other tenants share its cores and caches), and the work is identical in
// every episode. So a run reports the least disturbed measurement of each
// piece of work: run_s is the fastest episode's, and each COP or round takes
// its fastest time over the episodes before the percentiles are taken.
// Set-up samples are many and short, so setup_s is their median.
double Fastest(const std::vector<Episode>& eps, double Episode::*field) {
  double best = eps.front().*field;
  for (const Episode& e : eps) best = std::min(best, e.*field);
  return best;
}

std::vector<double> FastestSamples(const std::vector<Episode>& eps,
                                   std::vector<double> Episode::*field) {
  std::vector<double> best = eps.front().*field;
  for (const Episode& e : eps) {
    const std::vector<double>& xs = e.*field;
    // Episodes with other sample counts already fail the fingerprint check.
    for (size_t i = 0; i < std::min(best.size(), xs.size()); ++i) {
      best[i] = std::min(best[i], xs[i]);
    }
  }
  return best;
}

void EndToEndMetrics(const std::vector<Episode>& eps,
                     const std::vector<double>& setups, MetricsJson* m) {
  const std::vector<double> cops = FastestSamples(eps, &Episode::cop_ms);
  m->Add("setup_s", Median(setups), "s");
  m->Add("run_s", Fastest(eps, &Episode::run_s), "s");
  m->Add("cop_p50_ms", Percentile(cops, 50), "ms");
  m->Add("cop_p95_ms", Percentile(cops, 95), "ms");
  m->Add("round_p95_ms",
         Percentile(FastestSamples(eps, &Episode::round_ms), 95), "ms");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// The per-layer split of the fastest traced episode. Counts are the same in
/// every episode (the fingerprint check enforces it).
void PerLayerMetrics(const std::vector<Episode>& eps, MetricsJson* m) {
  std::vector<Episode> traced, plain;
  for (const Episode& x : eps) (x.traced ? traced : plain).push_back(x);
  const Episode& e = *std::min_element(
      traced.begin(), traced.end(),
      [](const Episode& x, const Episode& y) { return x.run_s < y.run_s; });
  const SolveTotals& s = e.solve;
  const LayerCounters& c = e.counters;
  const uint64_t searched = s.attempted - s.reused;
  auto self_ms = [&](Layer l) {
    return e.layers.self_ms[static_cast<size_t>(l)];
  };
  const double search_ms = s.search_ms;
  const double bridge_ms = self_ms(Layer::kRuntime);
  const double advance_ms = self_ms(Layer::kNet);
  const uint64_t rx_deltas =
      e.layers.self_deltas[static_cast<size_t>(Layer::kNet)];

  m->Add("colog.compile_ms", e.compile_ms, "ms");
  m->Add("datalog.fact_ms", self_ms(Layer::kDatalog), "ms");
  m->Add("datalog.deltas", static_cast<double>(c.deltas), "count");
  m->Add("datalog.rule_firings", static_cast<double>(c.rule_firings), "count");
  m->Add("datalog.tuples_sent", static_cast<double>(c.tuples_sent), "count");
  m->Add("datalog.firings_per_delta",
         Ratio(static_cast<double>(c.rule_firings),
               static_cast<double>(c.deltas)),
         "ratio");
  m->Add("datalog.table_mb", static_cast<double>(c.table_bytes) / 1e6, "MB");

  m->Add("runtime.solve_ms", search_ms + bridge_ms, "ms");
  m->Add("runtime.bridge_ms", bridge_ms, "ms");
  m->Add("runtime.solves", static_cast<double>(s.attempted), "count");
  m->Add("runtime.reused", static_cast<double>(s.reused), "count");
  m->Add("runtime.reused_frac",
         Ratio(static_cast<double>(s.reused), static_cast<double>(s.attempted)),
         "ratio");
  m->Add("runtime.model_vars", static_cast<double>(s.vars), "count");
  m->Add("runtime.model_vars_mean",
         Ratio(static_cast<double>(s.vars), static_cast<double>(searched)),
         "count");
  m->Add("runtime.model_props_mean",
         Ratio(static_cast<double>(s.props), static_cast<double>(searched)),
         "count");
  m->Add("runtime.bridge_us_per_var",
         Ratio(bridge_ms * 1000.0, static_cast<double>(s.vars)), "us/var");

  m->Add("solver.search_ms", search_ms, "ms");
  m->Add("solver.nodes", static_cast<double>(s.nodes), "count");
  m->Add("solver.failures", static_cast<double>(s.failures), "count");
  m->Add("solver.propagations", static_cast<double>(s.propagations), "count");
  m->Add("solver.nodes_per_s",
         Ratio(static_cast<double>(s.nodes), search_ms / 1000.0), "1/s");
  m->Add("solver.props_per_node",
         Ratio(static_cast<double>(s.propagations),
               static_cast<double>(s.nodes)),
         "ratio");
  m->Add("solver.wakes_filtered", static_cast<double>(s.wakes_filtered),
         "count");
  m->Add("solver.props_skipped_entailed",
         static_cast<double>(s.props_skipped_entailed), "count");
  m->Add("solver.limit_frac",
         Ratio(static_cast<double>(s.limit_hits),
               static_cast<double>(searched)),
         "ratio");
  m->Add("solver.peak_mem_kb", static_cast<double>(s.peak_mem_bytes) / 1024.0,
         "KiB");

  m->Add("net.advance_ms", advance_ms, "ms");
  m->Add("net.rx_deltas", static_cast<double>(rx_deltas), "count");
  m->Add("net.messages", static_cast<double>(c.messages), "count");
  m->Add("net.bytes", static_cast<double>(c.bytes), "bytes");
  m->Add("net.drops", static_cast<double>(c.drops), "count");
  m->Add("net.retransmits", static_cast<double>(c.retransmits), "count");
  m->Add("net.acks", static_cast<double>(c.acks), "count");
  m->Add("net.sim_events", static_cast<double>(c.sim_events), "count");
  m->Add("net.goodput_frac",
         Ratio(static_cast<double>(c.data_sent),
               static_cast<double>(c.messages)),
         "ratio");
  m->Add("net.us_per_event",
         Ratio(advance_ms * 1000.0, static_cast<double>(c.sim_events)),
         "us/event");

  const double traced_s = Fastest(traced, &Episode::run_s);
  const double plain_s = Fastest(plain, &Episode::run_s);
  m->Add("trace.coverage", Ratio(e.layers.top_level_ms, e.run_s * 1000.0),
         "ratio");
  m->Add("trace.run_s_traced", traced_s, "s");
  m->Add("trace.run_s_untraced", plain_s, "s");
  m->Add("trace.overhead_pct", (Ratio(traced_s, plain_s) - 1.0) * 100.0,
         "%");
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload acloud|fts|fts_incr|wireless "
               "--seed N --seconds S [--trace FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, trace_file;
  uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return Usage();
    } else if (a == "--seconds") {
      seconds = std::strtod(v, &end);
      if (*end != '\0' || !(seconds > 0)) return Usage();
    } else if (a == "--trace") {
      trace_file = v;
    } else {
      return Usage();
    }
  }
  if (MakeWorkload(workload, seed) == nullptr) return Usage();
  const bool tracing = !trace_file.empty();

  SpanTrace trace(Clock::now());
  std::vector<double> setups;
  // Episodes run while another one (at the mean length so far) still fits
  // in --seconds. Traced runs alternate untraced and traced episodes, so the
  // tracing overhead is measured in the same process.
  std::vector<Episode> eps;
  double measured_s = 0;
  auto want_more = [&] {
    if (eps.size() < (tracing ? 2u : 1u)) return true;
    return measured_s * (1.0 + 1.0 / static_cast<double>(eps.size())) <=
           seconds;
  };
  while (want_more()) {
    Episode e;
    const bool traced = tracing && eps.size() % 2 == 1;
    trace.set_episode(static_cast<int>(eps.size()));
    Status s =
        RunEpisode(workload, seed, traced ? &trace : nullptr, &e, &setups);
    if (!s.ok()) {
      std::fprintf(stderr, "episode %zu failed: %s\n", eps.size(),
                   s.ToString().c_str());
      return 1;
    }
    measured_s += e.run_s;
    eps.push_back(std::move(e));
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const Episode& e : eps) {
    attempted += e.solve.attempted;
    failed += e.solve.failed;
    for (const std::string& v : e.outcome.violations) {
      std::fprintf(stderr, "check failed: %s\n", v.c_str());
      correct = false;
    }
    if (e.fingerprint != eps.front().fingerprint) {
      std::fprintf(stderr, "nondeterministic: episode fingerprint %s != %s\n",
                   e.fingerprint.c_str(), eps.front().fingerprint.c_str());
      correct = false;
    }
  }
  if (tracing && !trace.WriteChromeJson(trace_file)) {
    std::fprintf(stderr, "cannot write trace %s\n", trace_file.c_str());
    return 1;
  }

  const Episode& e0 = eps.front();
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"episodes\": %zu, "
      "\"objective\": %.6f, \"fingerprint\": \"%s\", \"rounds\": %" PRIu64
      ", \"steady_rounds\": %zu, \"cops\": %" PRIu64
      ", \"steady_cops\": %zu, \"run_s\": [",
      workload.c_str(), seed, eps.size(), e0.outcome.objective,
      e0.fingerprint.c_str(), e0.rounds, e0.round_ms.size(),
      e0.solve.attempted, e0.cop_ms.size());
  for (size_t i = 0; i < eps.size(); ++i) {
    std::printf("%s%.6f", i == 0 ? "" : ", ", eps[i].run_s);
  }
  std::printf("]}\n");

  MetricsJson metrics;
  if (tracing) {
    PerLayerMetrics(eps, &metrics);
  } else {
    EndToEndMetrics(eps, setups, &metrics);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %"
              PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.body().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cologne::bench_e2e

int main(int argc, char** argv) {
  return cologne::bench_e2e::Main(argc, argv);
}
