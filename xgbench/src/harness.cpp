#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "gov/rss.hpp"

namespace xgb {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

Spans::Scope::Scope(Spans* spans, const char* cat, std::string name)
    : spans_(spans) {
  if (spans_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.cat = cat;
  s.parent = spans_->open_.empty()
                 ? -1
                 : static_cast<std::int64_t>(spans_->open_.back());
  s.start_us = spans_->now_us();
  index_ = spans_->spans_.size();
  spans_->spans_.push_back(std::move(s));
  spans_->open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  Span& s = spans_->spans_[index_];
  s.dur_us = spans_->now_us() - s.start_us;
  spans_->open_.pop_back();
}

double Spans::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

void Spans::write_chrome_trace(const std::string& path) const {
  xg::api::Json events = xg::api::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    xg::api::Json e = xg::api::Json::object();
    e.set("name", s.name);
    e.set("cat", s.cat);
    e.set("ph", "X");
    e.set("ts", s.start_us);
    e.set("dur", s.dur_us);
    e.set("pid", std::uint64_t{1});
    e.set("tid", std::uint64_t{1});
    xg::api::Json args = xg::api::Json::object();
    args.set("id", static_cast<std::uint64_t>(i));
    if (s.parent >= 0) args.set("parent", static_cast<std::uint64_t>(s.parent));
    args.set("clock", "wall");
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  xg::api::Json doc = xg::api::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << doc.dump() << "\n";
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples,
                    const std::string& moves, const std::string& input) {
  if (!std::isfinite(value)) {
    mismatch("metric " + name + " is not finite");
    value = 0.0;
  }
  xg::api::Json m = xg::api::Json::object();
  m.set("value", value);
  m.set("unit", unit);
  m.set("samples", samples);
  m.set("moves", moves);
  m.set("input", input);
  metrics.set(name, std::move(m));
}

void Result::mismatch(std::string what) {
  ++attempted;
  ++failed;
  std::fprintf(stderr, "xgbench: MISMATCH %s\n", what.c_str());
  mismatches.push_back(std::move(what));
}

void Result::write(const std::string& path) const {
  xg::api::Json doc = xg::api::Json::object();
  doc.set("correct", mismatches.empty());
  doc.set("attempted", attempted);
  doc.set("failed", failed);
  xg::api::Json mm = xg::api::Json::array();
  for (const std::string& m : mismatches) mm.push(m);
  doc.set("mismatches", std::move(mm));
  doc.set("meta", meta);
  doc.set("metrics", metrics);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << doc.dump() << "\n";
}

double peak_rss_mb() {
  return static_cast<double>(xg::gov::peak_rss_bytes()) / (1024.0 * 1024.0);
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat; ++field) {
    std::uint64_t v = 0;
    stat >> v;
    t.total += v;
    if (field != 3 && field != 4) t.busy += v;
    if (field == 7) t.steal = v;
  }
  // Fields 14 and 15 of /proc/self/stat; the command name (field 2) is in
  // parentheses and may hold spaces, so count from the closing one.
  std::ifstream self("/proc/self/stat");
  std::string line;
  std::getline(self, line);
  const std::size_t close = line.rfind(')');
  if (close != std::string::npos) {
    std::istringstream rest(line.substr(close + 1));
    std::string skip;
    for (int field = 3; field < 14 && rest; ++field) rest >> skip;
    std::uint64_t utime = 0;
    std::uint64_t stime = 0;
    rest >> utime >> stime;
    t.self = utime + stime;
  }
  return t;
}

xg::api::Json contention(const CpuTicks& before, const CpuTicks& after) {
  xg::api::Json j = xg::api::Json::object();
  const double total = static_cast<double>(after.total - before.total);
  if (total <= 0.0) return j;
  const double others = static_cast<double>(after.busy - before.busy) -
                        static_cast<double>(after.self - before.self);
  j.set("steal_share", static_cast<double>(after.steal - before.steal) / total);
  j.set("others_share", std::max(0.0, others - static_cast<double>(
                                                   after.steal - before.steal)) /
                            total);
  return j;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace xgb
