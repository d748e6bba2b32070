// perfbench: runs one benchmark workload and prints its result as one JSON
// line (the last line of standard output).
//
//   perfbench --workload link_chaos --seed 1 --seconds 10 --trace 0
//   perfbench --selftest fabric_backlog --seed 1
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer split.
// The exit code is nonzero when a correctness check fails.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <new>
#include <sstream>
#include <string>

#include "trace.h"
#include "workloads.h"

// Counting replacements for the global allocation functions. Counting is
// off unless an AllocWindow is open, so untimed and timed code pay one
// relaxed load per allocation.
namespace {
void* counted(std::size_t n) noexcept {
  using namespace s2d::perfbench;
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n != 0 ? n : 1);
}
void* counted_aligned(std::size_t n, std::size_t align) noexcept {
  using namespace s2d::perfbench;
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (void* p = counted(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace s2d::perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       perfbench --selftest fabric_backlog --seed N\n"
               "workloads: link_chaos fleet_100k fabric_line5 "
               "fuzz_coverage\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

/// Keeps freed heap memory in the process instead of handing it back to
/// the kernel after every rep. On a virtual machine each page fault that
/// re-maps it is an exit to the hypervisor, and that cost swings with the
/// host's load; a run made of many reps would otherwise spend a tenth of
/// its time, and most of its run-to-run spread, re-faulting the same
/// pages. Fixing the mmap threshold also stops glibc from moving it as
/// blocks are freed, so every rep allocates the same way.
void pin_heap() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
}

int run(int argc, char** argv) {
  pin_heap();
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage(("bad argument '" + key + "'").c_str());
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "selftest") {
      return usage(("unknown flag --" + key).c_str());
    }
  }

  RunOptions opts;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  if ((args.count("seed") && !parse_u64(args["seed"], opts.seed)) ||
      (args.count("seconds") && !parse_u64(args["seconds"], seconds)) ||
      (args.count("trace") && !parse_u64(args["trace"], trace)) ||
      trace > 1 || seconds == 0) {
    return usage("--seed, --seconds and --trace take whole numbers "
                 "(--trace 0 or 1, --seconds >= 1)");
  }
  opts.seconds = static_cast<double>(seconds);
  opts.trace = trace == 1;

  if (args.count("selftest")) {
    if (args["selftest"] != "fabric_backlog") {
      return usage("unknown self-test");
    }
    const bool ok = selftest_fabric_backlog(opts.seed);
    std::printf("selftest fabric_backlog: %s\n", ok ? "pass" : "FAIL");
    return ok ? 0 : 1;
  }

  using Runner = Result (*)(const RunOptions&);
  const std::map<std::string, Runner> workloads = {
      {"link_chaos", &run_link_chaos},
      {"fleet_100k", &run_fleet_100k},
      {"fabric_line5", &run_fabric_line5},
      {"fuzz_coverage", &run_fuzz_coverage},
  };
  const auto it = workloads.find(args["workload"]);
  if (it == workloads.end()) return usage("missing or unknown --workload");

  Result out = it->second(opts);
  const std::vector<Metric>& wanted =
      opts.trace ? per_layer_metrics() : end_to_end_metrics();
  std::ostringstream metrics;
  bool first = true;
  for (const Metric& m : wanted) {
    const auto v = out.metrics.find(m.name);
    const double value = v == out.metrics.end() ? 0.0 : v->second;
    if (!opts.trace && !(value > 0.0)) {
      out.fail(std::string("end-to-end metric ") + m.name + " is not positive");
    }
    metrics << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
            << json_number(value) << ", \"unit\": " << json_string(m.unit)
            << "}";
    first = false;
  }
  for (const auto& [name, value] : out.metrics) {
    bool known = false;
    for (const Metric& m : wanted) known = known || name == m.name;
    if (!known) out.fail("unlisted metric " + name);
  }

  std::ostringstream detail;
  first = true;
  for (const auto& [key, value] : out.detail) {
    detail << (first ? "" : ", ") << json_string(key) << ": "
           << json_string(value);
    first = false;
  }
  std::ostringstream errors;
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    errors << (i ? ", " : "") << json_string(out.errors[i]);
    std::cerr << "perfbench: check failed: " << out.errors[i] << "\n";
  }

  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {"
            << metrics.str() << "}, \"detail\": {" << detail.str()
            << "}, \"errors\": [" << errors.str() << "]}" << std::endl;
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace s2d::perfbench

int main(int argc, char** argv) { return s2d::perfbench::run(argc, argv); }
