#pragma once

// The xgbench workloads and the layer passes they share. A workload is a
// fixed, seeded sequence of xg::run calls over one graph; the same pass
// and metric code measures the native layer on native-rmat20 and, as a
// probe in the traced run, on xmt-table1's graph (and the XMT layers the
// other way round), so every traced run reports the same per-layer set.

#include <map>
#include <string>
#include <vector>

#include "api/request.hpp"
#include "api/run.hpp"
#include "graph/csr.hpp"
#include "harness.hpp"
#include "host/arena.hpp"

namespace xgb {

/// One call of a workload's sequence.
struct Op {
  std::string group;  ///< metric prefix, e.g. "native.bfs", "xmt.bsp.cc"
  xg::AlgorithmId algorithm = xg::AlgorithmId::kBfs;
  xg::BackendId backend = xg::BackendId::kNative;
  xg::RunOptions options;  ///< workspace and threads are set per pass
};

/// Timings of repeated passes over one sequence at one thread count.
struct Passes {
  std::vector<double> wall_s;               ///< one per pass
  std::vector<std::vector<double>> op_ms;   ///< [op][pass]
  std::vector<xg::RunReport> first;         ///< reports of the first pass
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  /// Later passes' payload digests compared with pass 0's, and the ones
  /// that differed ("op I pass K").
  std::uint64_t digest_checks = 0;
  std::vector<std::string> digest_diffs;
};

/// Run `seq` through xg::run on `ws` again and again until `seconds` have
/// passed and at least `min_passes` passes ran. `traced` passes record a
/// span per call into `spans`; the others record nothing. After each pass,
/// outside its timers, every report's digest is compared with pass 0's.
Passes run_passes(const xg::graph::CSRGraph& g, const std::vector<Op>& seq,
                  xg::host::Workspace& ws, double seconds,
                  std::size_t min_passes, Spans& spans, bool alternate_trace);

/// The native algorithms the benchmark runs. BFS and SSSP are left out
/// until ROADMAP item 1 (concurrent use of the host pool and its arenas)
/// lands: at 4 threads native SSSP returns wrong distances and can crash
/// the process, and BFS on a reused Workspace returns a wrong level about
/// once in 100 runs (xgbench/README.md).
inline constexpr xg::AlgorithmId kNativeAlgorithms[] = {
    xg::AlgorithmId::kConnectedComponents, xg::AlgorithmId::kPageRank};

/// The native-rmat20 sequence: CC, then PageRank (20 sweeps, epsilon 0).
std::vector<Op> native_sequence();

/// Thread count of the simulated-XMT passes: nproc - 1, at least 1. The
/// engine's parallel backend meets at a spin barrier thousands of times
/// per region, so at nproc threads any other runnable thread on the host
/// stalls every phase: one busy neighbour thread made a Table I pass 2.6x
/// slower at 4 threads on 4 vCPUs, and 1.2x slower at 3 (xgbench/README.md).
unsigned xmt_threads(unsigned nproc);

/// The Table I sequence: {graphct, bsp} x {cc, bfs, triangles} on the
/// 128-processor simulated XMT, BFS from the highest-degree vertex.
std::vector<Op> table1_sequence(const xg::graph::CSRGraph& g);

/// Per-layer native metrics (native.*, host.warm_gain.*) from a nproc
/// pass set, a 1-thread pass set, and one cold (fresh-Workspace) run per
/// algorithm, all over `seq` on `g`.
void native_layer_metrics(Result& r, const xg::graph::CSRGraph& g,
                          const std::vector<Op>& seq, const Passes& nproc,
                          const Passes& one_thread,
                          const std::map<xg::AlgorithmId, double>& cold_ms,
                          const std::string& input);

/// Per-layer simulated-XMT metrics (xmt.*, bsp.*.messages).
void xmt_layer_metrics(Result& r, const std::vector<Op>& seq,
                       const Passes& nproc, const Passes& one_thread,
                       const std::string& input);

/// Digest of a report's payload and simulated costs: equal digests mean
/// bit-identical answers (and cycles/messages where the backend prices).
std::uint64_t report_digest(const xg::RunReport& rep);

/// Compare two answers in their canonical forms (epsilon for SSSP and
/// PageRank); returns a description of the first difference, or "".
std::string canonical_diff(const xg::RunReport& a, const xg::RunReport& b);

/// Workload entry points; each fills `r` and returns normally even when a
/// check fails (the mismatch is recorded in `r`).
void native_rmat20(const Config& cfg, Result& r, Spans& spans);
void xmt_table1(const Config& cfg, Result& r, Spans& spans);

/// Layer probes every traced run reports.
void probe_host(Result& r, unsigned threads);
void probe_api(Result& r, const Config& cfg, Spans& spans);
void probe_native(Result& r, const xg::graph::CSRGraph& g, const Config& cfg,
                  Spans& spans, const std::string& input);
void probe_xmt(Result& r, const Config& cfg, Spans& spans);
void probe_svc(Result& r, const Config& cfg, Spans& spans);

}  // namespace xgb
