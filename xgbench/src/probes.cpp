// Layer probes of the traced run: the host pool's dispatch cost, the api
// layer (xg::run dispatch and the JSON serde), and the svc and net layers
// (an in-process svc::Server behind svc::TcpServer on loopback), all on the
// g0 graph the xgd-mixed workload serves.

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "api/serde.hpp"
#include "host/thread_pool.hpp"
#include "native/algorithms.hpp"
#include "svc/graph_loader.hpp"
#include "svc/net.hpp"
#include "svc/server.hpp"
#include "workloads.hpp"

namespace xgb {

using xg::AlgorithmId;
using xg::BackendId;

namespace {

constexpr int kDispatchCalls = 2000;
constexpr int kSerdeReps = 15;
constexpr int kOverheadPairs = 51;
constexpr int kRttProbes = 200;
/// Rounds of the svc request sequence (see probe_svc).
constexpr std::uint32_t kSvcRounds = 12;
/// The admission burst: this many requests against a paused server whose
/// queue holds kBurstQueue of them.
constexpr std::size_t kBurst = 8;
constexpr std::size_t kBurstQueue = 6;
constexpr double kBurstWaitSeconds = 10.0;

const std::string kG0Input = "rmat14 ef8 weighted (xgd-mixed g0)";

double us_since(Clock::time_point t0) { return 1e6 * seconds_since(t0); }

/// g0 of xgd-mixed: weighted R-MAT SCALE 14, edgefactor 8, seeded 3N+1.
xg::svc::GraphSpec load_g0(std::uint64_t seed) {
  return xg::svc::load_graph_spec("g0=rmat:scale=14,edgefactor=8,seed=" +
                                  std::to_string(seed * 3 + 1) + ",weighted");
}

/// A request of the xgd_load mix for `algorithm` on g0 (native backend,
/// PageRank at 10 sweeps); `source` applies to BFS and SSSP.
xg::Request g0_request(AlgorithmId algorithm, xg::graph::vid_t source) {
  xg::Request req;
  req.graph = "g0";
  req.algorithm = algorithm;
  req.backend = BackendId::kNative;
  if (algorithm == AlgorithmId::kBfs) req.options.source = source;
  if (algorithm == AlgorithmId::kSssp) req.options.sssp_source = source;
  req.options.pagerank_iters = 10;
  return req;
}

/// The direct native:: call xg::run makes for `req`, on the same pool and
/// arena, without validation, dispatch or report assembly.
void run_direct(const xg::Request& req, const xg::graph::CSRGraph& g,
                xg::host::Workspace& ws) {
  auto& pool = xg::host::pool();
  ws.begin_run(nullptr);
  xg::host::Arena* arena = &ws.arena();
  switch (req.algorithm) {
    case AlgorithmId::kConnectedComponents:
      (void)xg::native::connected_components(pool, g, nullptr, arena);
      break;
    case AlgorithmId::kPageRank: {
      xg::native::PageRankOptions opt;
      opt.iterations = req.options.pagerank_iters;
      opt.arena = arena;
      (void)xg::native::pagerank(pool, g, opt);
      break;
    }
    default:
      throw std::logic_error("run_direct: " +
                             xg::algorithm_name(req.algorithm) +
                             " is not a benchmarked native algorithm");
  }
  ws.end_run();
}

/// The exact bytes of a response frame's "report" member, which
/// xg::api::serialize_response_envelope always writes last; "" when the
/// frame carries no report.
std::string report_bytes(const std::string& frame) {
  static const std::string kReport = ",\"report\":";
  const std::size_t at = frame.rfind(kReport);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + kReport.size();
  return frame.substr(begin, frame.size() - 1 - begin);
}

}  // namespace

void probe_host(Result& r, unsigned threads) {
  auto& pool = xg::host::pool();
  const auto empty = [](std::uint64_t) {};
  std::vector<double> us;
  for (int i = 0; i < kDispatchCalls + 200; ++i) {
    const auto t0 = Clock::now();
    pool.parallel_for_tasks(threads, empty);
    if (i >= 200) us.push_back(us_since(t0));
  }
  r.metric("host.dispatch_us", median(us), "us", us.size(),
           "run_s on native-rmat20 and xmt-table1",
           "empty parallel_for_tasks(nproc)");
}

void probe_api(Result& r, const Config& cfg, Spans& spans) {
  auto s = spans.scope("probe", "api layer probe");
  const xg::svc::GraphSpec spec = load_g0(cfg.seed);
  const xg::graph::CSRGraph& g = spec.graph;
  const std::string to_latency = "p50_ms.*/p99_ms.* on xgd-mixed";
  xg::host::Workspace ws;

  for (AlgorithmId a : xg::all_algorithms()) {
    const xg::Request req = g0_request(a, /*source=*/1);
    // The payload to serialize comes from the sequential reference backend:
    // same shape and size as the native one, and no multi-threaded SSSP.
    const xg::RunReport rep = xg::run(a, BackendId::kReference, g, req.options);
    ++r.attempted;
    if (!rep.ok()) r.mismatch("api probe " + xg::algorithm_name(a));
    const std::string name = xg::algorithm_name(a);

    std::vector<double> ms;
    std::size_t bytes = 0;
    for (int i = 0; i < kSerdeReps; ++i) {
      auto sp = spans.scope("api", "serialize_report " + name);
      const auto t0 = Clock::now();
      bytes = xg::api::serialize_report(rep).size();
      ms.push_back(us_since(t0) / 1e3);
    }
    r.metric("api.serialize_report_ms." + name, median(ms), "ms", ms.size(),
             to_latency, kG0Input);
    r.metric("api.report_kb." + name, static_cast<double>(bytes) / 1024.0,
             "KB", 1, to_latency, kG0Input);

    if (a == AlgorithmId::kBfs) {
      xg::Response resp;
      resp.report = rep;
      const std::string frame = xg::api::serialize_response(resp);
      std::vector<double> parse_ms;
      for (int i = 0; i < kSerdeReps; ++i) {
        auto sp = spans.scope("api", "parse_response bfs");
        const auto t0 = Clock::now();
        const xg::Response back = xg::api::parse_response(frame);
        parse_ms.push_back(us_since(t0) / 1e3);
        if (i == 0 && report_digest(back.report) != report_digest(rep)) {
          r.mismatch("api probe: parse_response(serialize_response) differs");
        }
      }
      r.metric("api.parse_response_ms", median(parse_ms), "ms",
               parse_ms.size(), to_latency, kG0Input + ", bfs response frame");
    }
  }

  // xg::run minus the direct kernel call: paired, alternating which goes
  // first, median of the differences. At one thread: the difference is
  // microseconds, and pool wake-ups at nproc threads vary by milliseconds.
  xg::host::set_threads(1);
  for (AlgorithmId a : kNativeAlgorithms) {
    const xg::Request req = g0_request(a, /*source=*/1);
    const std::string name = xg::algorithm_name(a);
    xg::RunOptions opt = req.options;
    opt.workspace = &ws;
    std::vector<double> diff;
    for (int i = 0; i < kOverheadPairs; ++i) {
      double run_us = 0.0;
      double direct_us = 0.0;
      for (int k = 0; k < 2; ++k) {
        const auto t0 = Clock::now();
        if ((i + k) % 2 == 0) {
          auto sp = spans.scope("api", "xg::run " + name);
          (void)xg::run(a, BackendId::kNative, g, opt);
          run_us = us_since(t0);
        } else {
          auto sp = spans.scope("native", "direct " + name);
          run_direct(req, g, ws);
          direct_us = us_since(t0);
        }
      }
      diff.push_back(run_us - direct_us);
    }
    r.metric("api.overhead_us." + name, median(diff), "us", diff.size(),
             "run_s on native-rmat20 (small); p50_ms.* on xgd-mixed",
             kG0Input + ", 1 thread");
  }
  xg::host::set_threads(cfg.threads);
}

void probe_svc(Result& r, const Config& cfg, Spans& spans) {
  auto s = spans.scope("probe", "svc and net layer probe");
  xg::svc::GraphSpec g0 = load_g0(cfg.seed);

  // The request sequence: each round a PageRank with a sweep count no
  // earlier round used (a cache miss that runs), the same request again (a
  // hit), and CC (a miss in the first round, a hit after). The expected
  // payload of each distinct request comes from an in-process xg::run.
  std::vector<xg::Request> seq;
  for (std::uint32_t i = 0; i < kSvcRounds; ++i) {
    xg::Request pr = g0_request(AlgorithmId::kPageRank, 0);
    pr.options.pagerank_iters = 1 + i;
    seq.push_back(pr);
    seq.push_back(pr);
    seq.push_back(g0_request(AlgorithmId::kConnectedComponents, 0));
  }
  // The burst's requests: PageRank at sweep counts the sequence never used.
  std::vector<xg::Request> burst;
  for (std::size_t k = 0; k < kBurst; ++k) {
    xg::Request pr = g0_request(AlgorithmId::kPageRank, 0);
    pr.options.pagerank_iters = kSvcRounds + 1 + static_cast<std::uint32_t>(k);
    burst.push_back(pr);
  }
  std::map<std::string, std::string> expected;
  {
    auto sp = spans.scope("check", "in-process xg::run");
    for (const std::vector<xg::Request>* reqs : {&seq, &burst}) {
      for (const xg::Request& req : *reqs) {
        const std::string key = xg::api::serialize_request(req);
        if (!expected.count(key)) {
          expected[key] =
              xg::api::serialize_report(xg::run(req, g0.graph).report);
        }
      }
    }
  }
  const auto check_payload = [&](const xg::Request& req,
                                 const std::string& payload,
                                 const std::string& what) {
    if (payload != expected.at(xg::api::serialize_request(req))) {
      r.mismatch("svc probe: " + what +
                 " payload differs from the in-process xg::run");
    } else {
      r.checked();
    }
  };

  // Default options: two workers, queue, cache and batching as xgd runs.
  {
    xg::svc::Server server(xg::svc::ServerOptions{}, {g0});
    xg::svc::TcpServer tcp(server, xg::svc::TcpServer::Options{});
    xg::svc::TcpClient client("127.0.0.1", tcp.port());

    // net.rtt_us: a not_found round trip (framing and parsing, no kernel).
    xg::Request miss = g0_request(AlgorithmId::kConnectedComponents, 0);
    miss.graph = "no-such-graph";
    const std::string miss_line = xg::api::serialize_request(miss);
    std::vector<double> rtt_us;
    for (int i = 0; i < kRttProbes; ++i) {
      auto sp = spans.scope("net", "TcpClient::call not_found");
      const auto t0 = Clock::now();
      const std::string reply = client.call(miss_line);
      rtt_us.push_back(us_since(t0));
      ++r.attempted;
      if (xg::api::parse_response(reply).code != xg::ServiceCode::kNotFound) {
        r.mismatch("net probe: expected not_found, got " + reply);
        break;
      }
    }
    r.metric("net.rtt_us", median(rtt_us), "us", rtt_us.size(),
             "p50_ms.low on xgd-mixed", "not_found request over loopback");

    std::vector<double> queue_ms, run_ms, payload_kb;
    std::uint64_t hits = 0;
    for (const xg::Request& req : seq) {
      std::string reply;
      {
        auto sp = spans.scope("svc", "TcpClient::call " +
                                         xg::algorithm_name(req.algorithm));
        reply = client.call(xg::api::serialize_request(req));
      }
      const xg::Response resp = xg::api::parse_response(reply);
      ++r.attempted;
      if (!resp.ok()) {
        r.mismatch("svc probe: " + xg::algorithm_name(req.algorithm) +
                   " answered " + xg::service_code_name(resp.code));
        continue;
      }
      const std::string payload = report_bytes(reply);
      check_payload(req, payload, xg::algorithm_name(req.algorithm));
      queue_ms.push_back(resp.queue_ms);
      payload_kb.push_back(static_cast<double>(payload.size()) / 1024.0);
      if (resp.cache_hit) {
        ++hits;
      } else {
        run_ms.push_back(resp.run_ms);
      }
    }
    const std::string to_p50 = "p50_ms.* on xgd-mixed";
    r.metric("svc.run_ms", median(run_ms), "ms", run_ms.size(), to_p50,
             kG0Input + ", cache misses");
    r.metric("svc.cache_hit_ratio",
             static_cast<double>(hits) / static_cast<double>(seq.size()),
             "ratio", seq.size(), to_p50, kG0Input);
    r.metric("svc.payload_kb", median(payload_kb), "KB", payload_kb.size(),
             to_p50, kG0Input);
    r.metric("svc.queue_wait_ms", median(queue_ms), "ms", queue_ms.size(),
             "p99_ms.*, sustained_rps on xgd-mixed",
             kG0Input + ", one request at a time");
  }

  // Admission and batching: kBurst callers against a paused server whose
  // queue holds kBurstQueue. The overflow is shed as rejected; on release
  // one worker claims the whole queue as one same-graph batch, so a single
  // worker runs kernels at a time.
  xg::svc::ServerOptions opt;
  opt.queue_limit = kBurstQueue;
  opt.start_paused = true;
  xg::svc::Server server(opt, {std::move(g0)});
  std::vector<xg::Response> out(kBurst);
  std::atomic<std::size_t> returned{0};
  std::vector<std::thread> callers;
  auto sp = spans.scope("svc", "admission burst");
  for (std::size_t k = 0; k < kBurst; ++k) {
    callers.emplace_back([&, k] {
      out[k] = server.call(burst[k]);
      returned.fetch_add(1);
    });
  }
  const auto t0 = Clock::now();
  while ((server.queue_depth() < kBurstQueue ||
          returned.load() < kBurst - kBurstQueue) &&
         seconds_since(t0) < kBurstWaitSeconds) {
    std::this_thread::yield();
  }
  server.resume();
  for (std::thread& t : callers) t.join();
  std::uint64_t rejected = 0;
  for (std::size_t k = 0; k < kBurst; ++k) {
    ++r.attempted;
    if (out[k].code == xg::ServiceCode::kRejected) {
      ++rejected;
    } else if (!out[k].ok()) {
      r.mismatch("svc burst: request " + std::to_string(k) + " answered " +
                 xg::service_code_name(out[k].code));
    } else {
      check_payload(burst[k], xg::api::serialize_report(out[k].report),
                    "burst request " + std::to_string(k));
    }
  }
  if (rejected != kBurst - kBurstQueue) {
    r.mismatch("svc burst: " + std::to_string(rejected) + " of " +
               std::to_string(kBurst) + " rejected, expected " +
               std::to_string(kBurst - kBurstQueue));
  }
  const xg::obs::MetricsRegistry m = server.metrics();
  const std::uint64_t batches = m.counter_value("svc.batches");
  r.metric("svc.batch_size",
           batches == 0 ? 0.0
                        : static_cast<double>(
                              m.counter_value("svc.batched_requests")) /
                              static_cast<double>(batches),
           "requests", batches, "p99_ms.*, sustained_rps on xgd-mixed",
           kG0Input + ", paused burst (exact)");
  r.metric("svc.rejected", static_cast<double>(rejected), "count", kBurst,
           "failed_share on xgd-mixed",
           kG0Input + ", paused burst (exact)");
}

}  // namespace xgb
