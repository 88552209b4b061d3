// xgbench — one workload of the repository's benchmark per invocation.
// xgbench/run.py builds this binary and turns the result file into the
// benchmark's output line.
//
//   xgbench --workload native-rmat20|xmt-table1 --seed N --seconds S
//           --trace 0|1 --out DIR [--threads N]
//
// Writes DIR/result.json (metrics with units, sample counts and the
// end-to-end metric each should move; output checks; run metadata) and,
// with --trace 1, DIR/trace.json (Chrome trace of the wall-clock spans).

#include <cstdio>
#include <exception>
#include <thread>

#include "exp/args.hpp"
#include "harness.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace xgb;
  try {
    const xg::exp::Args args(
        argc, argv,
        "xgbench: one benchmark workload (see xgbench/README.md).\n"
        "Options: --workload NAME --seed N --seconds S --trace 0|1 "
        "--out DIR [--threads N]");
    args.handle_help();
    Config cfg;
    cfg.workload = args.get("workload", "");
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    cfg.seconds = args.get_double("seconds", 10.0);
    cfg.trace = args.get_int("trace", 0) != 0;
    cfg.threads = static_cast<unsigned>(
        args.get_int("threads", std::thread::hardware_concurrency()));
    cfg.out_dir = args.get("out", ".");

    Result r;
    Spans spans(cfg.trace);
    r.meta.set("workload", cfg.workload);
    r.meta.set("seed", cfg.seed);
    r.meta.set("threads", static_cast<std::uint64_t>(cfg.threads));
    r.meta.set("seconds", cfg.seconds);
    r.meta.set("trace", cfg.trace);
    r.meta.set("nproc", static_cast<std::uint64_t>(
                            std::thread::hardware_concurrency()));
    r.meta.set("compiler", XGB_COMPILER);
    r.meta.set("build_type", XGB_BUILD_TYPE);

    if (cfg.workload == "native-rmat20") {
      native_rmat20(cfg, r, spans);
    } else if (cfg.workload == "xmt-table1") {
      xmt_table1(cfg, r, spans);
    } else {
      std::fprintf(stderr, "xgbench: unknown --workload '%s'\n",
                   cfg.workload.c_str());
      return 2;
    }
    r.meta.set("spans", static_cast<std::uint64_t>(spans.size()));
    r.write(cfg.out_dir + "/result.json");
    if (cfg.trace) spans.write_chrome_trace(cfg.out_dir + "/trace.json");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xgbench: %s\n", e.what());
    return 1;
  }
}
