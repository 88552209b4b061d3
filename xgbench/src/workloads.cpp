#include "workloads.hpp"

#include <map>
#include <memory>
#include <set>

#include "conform/canonical.hpp"
#include "graph/rmat_csr.hpp"
#include "host/thread_pool.hpp"

namespace xgb {

using xg::AlgorithmId;
using xg::BackendId;
using xg::RunReport;
using xg::graph::CSRGraph;
using xg::host::Workspace;
namespace graph = xg::graph;

namespace {

/// The conformance harness's float epsilon for SSSP / PageRank payloads.
constexpr double kFloatEps = 1e-9;
/// Set-up is repeated and its median reported, so one slow build does not
/// move setup_s.
constexpr std::size_t kSetupReps = 3;

double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

/// Index of the first op of each group, in sequence order.
std::vector<std::size_t> first_of_each_group(const std::vector<Op>& seq) {
  std::vector<std::size_t> out;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seen.insert(seq[i].group).second) out.push_back(i);
  }
  return out;
}

RunReport run_op(const CSRGraph& g, const Op& op, Workspace* ws) {
  xg::RunOptions opt = op.options;
  opt.workspace = ws;
  return xg::run(op.algorithm, op.backend, g, opt);
}

/// Warm-up for set-up: one run of each distinct op on the workload's
/// Workspace, so its arenas and cached engines are grown before timing.
void warm_up(const CSRGraph& g, const std::vector<Op>& seq, Workspace& ws,
             Result& r) {
  for (std::size_t i : first_of_each_group(seq)) {
    const RunReport rep = run_op(g, seq[i], &ws);
    ++r.attempted;
    if (!rep.ok()) {
      r.mismatch(seq[i].group + " warm-up: " + rep.status_detail);
    }
  }
}

void count_ops(Result& r, const Passes& p) {
  r.attempted += p.ops;
  r.failed += p.failed_ops;
  r.attempted += p.digest_checks - p.digest_diffs.size();
  for (const std::string& d : p.digest_diffs) {
    r.mismatch(d + ": payload digest differs from pass 0");
  }
}

/// Compare the 1-thread reports with the nproc ones, bit for bit.
void check_digests(Result& r, const std::vector<Op>& seq,
                   const std::vector<std::size_t>& ops,
                   const std::vector<RunReport>& nproc,
                   const std::vector<RunReport>& one_thread) {
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const std::size_t i = ops[k];
    if (report_digest(nproc[i]) != report_digest(one_thread[k])) {
      r.mismatch(seq[i].group + " op " + std::to_string(i) +
                 ": 1-thread payload digest differs from the nproc run");
    } else {
      r.checked();
    }
  }
}

/// The first op of each algorithm against the reference backend.
void check_against_reference(Result& r, const CSRGraph& g,
                             const std::vector<Op>& seq,
                             const std::vector<RunReport>& first,
                             Spans& spans) {
  for (std::size_t i : first_of_each_group(seq)) {
    auto s = spans.scope("check", "reference " + seq[i].group);
    const RunReport ref =
        xg::run(seq[i].algorithm, BackendId::kReference, g, seq[i].options);
    const std::string d = canonical_diff(first[i], ref);
    if (!d.empty()) {
      r.mismatch(seq[i].group + " vs reference: " + d);
    } else {
      r.checked();
    }
  }
}

/// The cold (fresh-Workspace) first run of each algorithm in `seq`.
std::map<AlgorithmId, double> cold_runs(const CSRGraph& g,
                                        const std::vector<Op>& seq, Result& r,
                                        Spans& spans) {
  std::map<AlgorithmId, double> out;
  for (std::size_t i : first_of_each_group(seq)) {
    auto s = spans.scope("host", "cold run " + seq[i].group);
    Workspace fresh;
    const auto t0 = Clock::now();
    const RunReport rep = run_op(g, seq[i], &fresh);
    out[seq[i].algorithm] = ms_since(t0);
    ++r.attempted;
    if (!rep.ok()) r.mismatch(seq[i].group + " cold run: " + rep.status_detail);
  }
  return out;
}

void record_setup(Result& r, const std::vector<double>& setup_s,
                  const std::vector<double>& build_s, const CSRGraph& g,
                  const std::string& input) {
  r.metric("setup_s", median(setup_s), "s", setup_s.size(), "", input);
  r.metric("graph.build_s", median(build_s), "s", build_s.size(),
           "setup_s on native-rmat20", input);
  r.metric("graph.build_marcs_per_s",
           static_cast<double>(g.num_arcs()) / median(build_s) / 1e6,
           "Marcs/s", build_s.size(), "setup_s on native-rmat20", input);
  r.meta.set("graph_vertices", static_cast<std::uint64_t>(g.num_vertices()));
  r.meta.set("graph_arcs", static_cast<std::uint64_t>(g.num_arcs()));
  r.meta.set("graph_bytes", g.memory_footprint_bytes());
}

/// run_s from the untraced passes, and the traced/untraced ratio.
void record_run(Result& r, const std::vector<Op>& seq, const Passes& timed,
                bool traced_alternate, const std::string& input) {
  std::vector<double> plain, traced;
  for (std::size_t k = 0; k < timed.wall_s.size(); ++k) {
    (traced_alternate && k % 2 == 1 ? traced : plain).push_back(timed.wall_s[k]);
  }
  r.metric("run_s", median(plain), "s", plain.size(), "", input);
  xg::api::Json passes = xg::api::Json::array();
  for (double w : timed.wall_s) passes.push(w);
  r.meta.set("pass_s", std::move(passes));
  xg::api::Json op_ms = xg::api::Json::object();
  for (std::size_t i = 0; i < seq.size(); ++i) {
    op_ms.set(seq[i].group, median(timed.op_ms[i]));
  }
  r.meta.set("op_median_ms", std::move(op_ms));
  if (!traced.empty()) {
    r.metric("obs.trace_overhead", median(traced) / median(plain) - 1.0,
             "ratio", traced.size(), "none (validity of the traced run)",
             input);
  }
}

/// Build a graph the timed phase will use, kSetupReps times over, timing
/// the build and the warm-up; keeps the last graph and Workspace.
struct Setup {
  std::unique_ptr<CSRGraph> graph;
  std::unique_ptr<Workspace> ws;
  std::vector<Op> seq;
};

template <typename MakeSeq>
Setup set_up(const graph::RmatParams& p, MakeSeq make_seq, Result& r,
             Spans& spans, const std::string& input) {
  Setup s;
  std::vector<double> setup_s, build_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    s.graph.reset();
    s.ws.reset();
    auto span = spans.scope("setup", "setup " + std::to_string(rep));
    const auto t0 = Clock::now();
    {
      auto b = spans.scope("graph", "graph::rmat_csr");
      s.graph = std::make_unique<CSRGraph>(graph::rmat_csr(p));
    }
    build_s.push_back(seconds_since(t0));
    s.ws = std::make_unique<Workspace>();
    s.seq = make_seq(*s.graph);
    warm_up(*s.graph, s.seq, *s.ws, r);
    setup_s.push_back(seconds_since(t0));
  }
  record_setup(r, setup_s, build_s, *s.graph, input);
  return s;
}

/// The timed phase on the set-up graph, and the end-to-end metrics it
/// gives besides setup_s.
Passes timed_phase(const Config& cfg, const Setup& s, Result& r, Spans& spans,
                   const std::string& input) {
  const CpuTicks before = cpu_ticks();
  Passes timed = run_passes(*s.graph, s.seq, *s.ws, cfg.seconds,
                            cfg.trace ? 4 : 3, spans, cfg.trace);
  r.meta.set("contention", contention(before, cpu_ticks()));
  r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1, "", input);
  count_ops(r, timed);
  record_run(r, s.seq, timed, cfg.trace, input);
  return timed;
}

/// One pass of `seq` at one thread (outputs and the .speedup baseline).
Passes one_thread_pass(const CSRGraph& g, const std::vector<Op>& seq,
                       Workspace& ws, unsigned threads, Result& r,
                       Spans& spans) {
  xg::host::set_threads(1);
  Passes p = run_passes(g, seq, ws, 0.0, 1, spans, false);
  xg::host::set_threads(threads);
  count_ops(r, p);
  return p;
}

std::vector<std::size_t> all_ops(const std::vector<Op>& seq) {
  std::vector<std::size_t> all(seq.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

}  // namespace

Passes run_passes(const CSRGraph& g, const std::vector<Op>& seq,
                  Workspace& ws, double seconds, std::size_t min_passes,
                  Spans& spans, bool alternate_trace) {
  Passes p;
  p.op_ms.resize(seq.size());
  std::vector<xg::RunOptions> opts;
  for (const Op& op : seq) {
    opts.push_back(op.options);
    opts.back().workspace = &ws;
  }
  Spans off(false);
  std::vector<RunReport> reps(seq.size());
  std::vector<std::uint64_t> digests;
  const auto t0 = Clock::now();
  for (std::size_t pass = 0;
       pass < min_passes || seconds_since(t0) < seconds; ++pass) {
    Spans& sp = alternate_trace && pass % 2 == 0 ? off : spans;
    {
      auto pass_span = sp.scope("pass", "pass " + std::to_string(pass));
      const auto tp = Clock::now();
      for (std::size_t i = 0; i < seq.size(); ++i) {
        const auto to = Clock::now();
        {
          auto s = sp.scope("api", "xg::run " + seq[i].group);
          reps[i] = xg::run(seq[i].algorithm, seq[i].backend, g, opts[i]);
        }
        p.op_ms[i].push_back(ms_since(to));
        ++p.ops;
        if (!reps[i].ok()) ++p.failed_ops;
      }
      p.wall_s.push_back(seconds_since(tp));
    }
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const std::uint64_t d = report_digest(reps[i]);
      if (pass == 0) {
        digests.push_back(d);
      } else {
        ++p.digest_checks;
        if (d != digests[i]) {
          p.digest_diffs.push_back(seq[i].group + " op " + std::to_string(i) +
                                   " pass " + std::to_string(pass));
        }
      }
    }
    if (pass == 0) p.first = reps;
  }
  return p;
}

std::vector<Op> native_sequence() {
  std::vector<Op> seq;
  for (AlgorithmId a : kNativeAlgorithms) {
    Op op;
    op.group = "native." + xg::algorithm_name(a);
    op.algorithm = a;
    op.backend = BackendId::kNative;
    op.options.pagerank_iters = 20;
    op.options.pagerank_epsilon = 0.0;
    seq.push_back(op);
  }
  return seq;
}

unsigned xmt_threads(unsigned nproc) { return nproc > 1 ? nproc - 1 : 1; }

std::vector<Op> table1_sequence(const CSRGraph& g) {
  std::vector<Op> seq;
  for (AlgorithmId a : {AlgorithmId::kConnectedComponents, AlgorithmId::kBfs,
                        AlgorithmId::kTriangleCount}) {
    for (BackendId b : {BackendId::kGraphct, BackendId::kBsp}) {
      Op op;
      op.group = "xmt." + xg::backend_name(b) + "." + xg::algorithm_name(a);
      op.algorithm = a;
      op.backend = b;
      op.options.source = g.max_degree_vertex();
      op.options.sim.processors = 128;
      seq.push_back(op);
    }
  }
  return seq;
}

std::uint64_t report_digest(const RunReport& rep) {
  auto bytes = [](std::uint64_t h, const auto& v) {
    return fnv1a(v.data(), v.size() * sizeof(v[0]), h);
  };
  std::uint64_t h = fnv1a(&rep.status, sizeof rep.status);
  h = bytes(h, rep.components);
  h = bytes(h, rep.distance);
  h = bytes(h, rep.sssp_distance);
  h = bytes(h, rep.pagerank_scores);
  const std::uint64_t scalars[] = {rep.triangles, rep.reached,
                                   rep.num_components, rep.cycles,
                                   rep.messages, rep.rounds.size()};
  h = fnv1a(scalars, sizeof scalars, h);
  for (const xg::RoundRecord& round : rep.rounds) {
    const std::uint64_t rr[] = {round.active, round.messages, round.cycles};
    h = fnv1a(rr, sizeof rr, h);
  }
  return h;
}

std::string canonical_diff(const RunReport& a, const RunReport& b) {
  if (!a.ok() || !b.ok()) {
    return std::string("status ") + xg::status_name(a.status) + " vs " +
           xg::status_name(b.status);
  }
  std::optional<std::string> d;
  switch (a.algorithm) {
    case AlgorithmId::kConnectedComponents:
      d = xg::conform::first_diff(
          xg::conform::canonical_components(a.components),
          xg::conform::canonical_components(b.components));
      break;
    case AlgorithmId::kBfs:
      d = xg::conform::first_diff(a.distance, b.distance);
      break;
    case AlgorithmId::kTriangleCount:
      if (a.triangles != b.triangles) {
        d = std::to_string(a.triangles) + " vs " +
            std::to_string(b.triangles) + " triangles";
      }
      break;
    case AlgorithmId::kSssp:
      d = xg::conform::first_diff_eps(a.sssp_distance, b.sssp_distance,
                                      kFloatEps);
      break;
    case AlgorithmId::kPageRank:
      d = xg::conform::first_diff_eps(a.pagerank_scores, b.pagerank_scores,
                                      kFloatEps);
      break;
  }
  return d.value_or("");
}

void native_layer_metrics(Result& r, const CSRGraph& g,
                          const std::vector<Op>& seq, const Passes& nproc,
                          const Passes& one_thread,
                          const std::map<AlgorithmId, double>& cold_ms,
                          const std::string& input) {
  const std::string to_run = "run_s on native-rmat20";
  for (const auto& [a, cold] : cold_ms) {
    const std::string name = xg::algorithm_name(a);
    std::vector<double> fast, slow;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i].algorithm != a) continue;
      fast.insert(fast.end(), nproc.op_ms[i].begin(), nproc.op_ms[i].end());
      slow.insert(slow.end(), one_thread.op_ms[i].begin(),
                  one_thread.op_ms[i].end());
    }
    const double ms = median(fast);
    r.metric("native." + name + ".ms", ms, "ms", fast.size(), to_run, input);
    r.metric("native." + name + ".speedup", median(slow) / ms, "x",
             slow.size(), to_run, input);
    r.metric("host.warm_gain." + name, cold / ms, "x", 1,
             "setup_s/run_s on native-rmat20; p50_ms.* on xgd-mixed", input);
  }

  // PageRank: bytes a pull sweep touches, computed from the array sizes
  // (offsets + adjacency + one gathered contribution per arc + rank and
  // contribution writes), times the sweep count, over the median time.
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i].algorithm != AlgorithmId::kPageRank) continue;
    const double n = g.num_vertices();
    const double arcs = static_cast<double>(g.num_arcs());
    const double sweep = (n + 1) * sizeof(graph::eid_t) +
                         arcs * (sizeof(graph::vid_t) + sizeof(double)) +
                         2 * n * sizeof(double);
    const double bytes = sweep * seq[i].options.pagerank_iters;
    r.metric("native.pagerank.gbs_computed",
             bytes / (median(nproc.op_ms[i]) * 1e-3) / 1e9, "GB/s",
             nproc.op_ms[i].size(), to_run, input);
    break;
  }
}

void xmt_layer_metrics(Result& r, const std::vector<Op>& seq,
                       const Passes& nproc, const Passes& one_thread,
                       const std::string& input) {
  const std::string to_run = "run_s on xmt-table1";
  double cycles = 0.0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const double ms = median(nproc.op_ms[i]);
    const RunReport& rep = nproc.first[i];
    r.metric(seq[i].group + ".host_ms", ms, "ms", nproc.op_ms[i].size(),
             to_run, input);
    r.metric(seq[i].group + ".speedup", median(one_thread.op_ms[i]) / ms, "x",
             one_thread.op_ms[i].size(), to_run, input);
    r.metric(seq[i].group + ".cycles", static_cast<double>(rep.cycles),
             "cycles", 1, to_run, input);
    if (seq[i].backend == BackendId::kBsp) {
      r.metric("bsp." + xg::algorithm_name(seq[i].algorithm) + ".messages",
               static_cast<double>(rep.messages), "count", 1, to_run, input);
    }
    cycles += static_cast<double>(rep.cycles);
  }
  r.metric("xmt.mcycles_per_s", cycles / median(nproc.wall_s) / 1e6,
           "Mcycles/s", nproc.wall_s.size(), to_run, input);
}

void probe_native(Result& r, const CSRGraph& g, const Config& cfg,
                  Spans& spans, const std::string& input) {
  auto s = spans.scope("probe", "native layer probe");
  const std::vector<Op> seq = native_sequence();
  Workspace ws;
  warm_up(g, seq, ws, r);
  const Passes fast = run_passes(g, seq, ws, 1.0, 3, spans, false);
  count_ops(r, fast);
  const Passes slow = one_thread_pass(g, seq, ws, cfg.threads, r, spans);
  native_layer_metrics(r, g, seq, fast, slow, cold_runs(g, seq, r, spans),
                       input);
}

void probe_xmt(Result& r, const Config& cfg, Spans& spans) {
  auto s = spans.scope("probe", "xmt layer probe");
  graph::RmatParams p;
  p.scale = 10;
  p.edgefactor = 16;
  p.seed = cfg.seed;
  const CSRGraph g = graph::rmat_csr(p);
  const std::vector<Op> seq = table1_sequence(g);
  const unsigned threads = xmt_threads(cfg.threads);
  r.meta.set("xmt_threads", static_cast<std::uint64_t>(threads));
  xg::host::set_threads(threads);
  Workspace ws;
  warm_up(g, seq, ws, r);
  const Passes fast = run_passes(g, seq, ws, 1.0, 3, spans, false);
  count_ops(r, fast);
  const Passes slow = one_thread_pass(g, seq, ws, threads, r, spans);
  xg::host::set_threads(cfg.threads);
  xmt_layer_metrics(r, seq, fast, slow, "rmat10 xmt probe graph");
}

void native_rmat20(const Config& cfg, Result& r, Spans& spans) {
  const std::string input = "rmat20 ef16 weighted";
  xg::host::set_threads(cfg.threads);
  graph::RmatParams p;
  p.scale = 20;
  p.edgefactor = 16;
  p.weighted = true;
  p.seed = cfg.seed;
  Setup s = set_up(
      p, [](const CSRGraph&) { return native_sequence(); }, r, spans, input);
  const CSRGraph& g = *s.graph;
  const Passes timed = timed_phase(cfg, s, r, spans, input);

  // Output checks, outside the timed phase.
  check_against_reference(r, g, s.seq, timed.first, spans);
  if (cfg.trace) {
    const Passes slow =
        one_thread_pass(g, s.seq, *s.ws, cfg.threads, r, spans);
    check_digests(r, s.seq, all_ops(s.seq), timed.first, slow.first);
    native_layer_metrics(r, g, s.seq, timed, slow,
                         cold_runs(g, s.seq, r, spans), input);
    probe_host(r, cfg.threads);
    probe_api(r, cfg, spans);
    probe_svc(r, cfg, spans);
    probe_xmt(r, cfg, spans);
  } else {
    const std::vector<std::size_t> firsts = first_of_each_group(s.seq);
    std::vector<RunReport> slow;
    xg::host::set_threads(1);
    for (std::size_t i : firsts) {
      slow.push_back(run_op(g, s.seq[i], s.ws.get()));
      ++r.attempted;
    }
    xg::host::set_threads(cfg.threads);
    check_digests(r, s.seq, firsts, timed.first, slow);
  }
}

void xmt_table1(const Config& cfg, Result& r, Spans& spans) {
  const std::string input = "rmat13 ef16";
  const unsigned threads = xmt_threads(cfg.threads);
  r.meta.set("xmt_threads", static_cast<std::uint64_t>(threads));
  xg::host::set_threads(threads);
  graph::RmatParams p;
  p.scale = 13;
  p.edgefactor = 16;
  p.seed = cfg.seed;
  Setup s = set_up(p, table1_sequence, r, spans, input);
  const CSRGraph& g = *s.graph;
  const Passes timed = timed_phase(cfg, s, r, spans, input);

  // Output checks: the two programming models agree, and a 1-thread pass
  // reproduces every answer and every simulated cycle count.
  for (std::size_t i = 0; i + 1 < s.seq.size(); i += 2) {
    const std::string d = canonical_diff(timed.first[i], timed.first[i + 1]);
    if (!d.empty()) {
      r.mismatch(s.seq[i].group + " vs " + s.seq[i + 1].group + ": " + d);
    } else {
      r.checked();
    }
  }
  const Passes slow = one_thread_pass(g, s.seq, *s.ws, threads, r, spans);
  check_digests(r, s.seq, all_ops(s.seq), timed.first, slow.first);

  if (cfg.trace) {
    xg::host::set_threads(cfg.threads);
    xmt_layer_metrics(r, s.seq, timed, slow, input);
    probe_host(r, cfg.threads);
    probe_api(r, cfg, spans);
    probe_svc(r, cfg, spans);
    probe_native(r, g, cfg, spans, input);
  }
}

}  // namespace xgb
