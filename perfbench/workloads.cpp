// The four workloads. Each run repeats one fixed, seeded unit of work (a
// "rep") until its time budget is spent, so every rep of a run must yield
// the same deterministic outputs; timings are reported as the median over
// reps. With tracing on, a run alternates untraced reps (the overhead
// baseline) with traced reps, then makes one untimed observation pass for
// the deterministic per-layer counts. RepRunner keeps the books all four
// share; each workload supplies its rep and its per-layer metrics.
#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "adversary/adversaries.h"
#include "core/ghm.h"
#include "fleet/fleet.h"
#include "harness/fuzzer.h"
#include "harness/runner.h"
#include "harness/systems.h"
#include "link/datalink.h"
#include "trace.h"
#include "transport/fabric.h"
#include "transport/network.h"
#include "util/fnv.h"

namespace s2d::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double per(std::uint64_t num, std::uint64_t den) {
  return per(static_cast<double>(num), static_cast<double>(den));
}

std::uint64_t status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, len) == 0) {
      std::sscanf(line + len, "%lu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

std::uint64_t rss_bytes() { return status_kb("VmRSS:") * 1024; }
std::uint64_t peak_rss_bytes() { return status_kb("VmHWM:") * 1024; }

std::uint64_t hash_values(const std::vector<std::uint64_t>& xs) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(xs.size()));
  for (std::uint64_t x : xs) h.mix(x);
  return h.value();
}

/// Deterministic outputs of one rep, rendered as "key=value ..." so two
/// reps compare with one string equality and a mismatch prints readably.
class Signature {
 public:
  Signature& add(const char* key, std::uint64_t v) {
    out_ << key << '=' << v << ' ';
    return *this;
  }
  Signature& add(const char* key, const std::string& v) {
    out_ << key << '=' << v << ' ';
    return *this;
  }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

/// Collects rep signatures and flags any rep that differs from the first.
class DeterminismCheck {
 public:
  DeterminismCheck(Result& result, const char* what)
      : result_(result), what_(what) {}

  void check(const std::string& sig, const char* pass) {
    if (first_.empty()) {
      first_ = sig;
      result_.detail["signature"] = sig;
      return;
    }
    if (sig != first_ && !reported_) {
      reported_ = true;
      result_.fail(std::string(what_) + ": " + pass +
                   " rep differs from the first rep: [" + sig + "] vs [" +
                   first_ + "]");
    }
  }

 private:
  Result& result_;
  const char* what_;
  std::string first_;
  bool reported_ = false;
};

volatile std::uint64_t g_reference_sink = 0;  // keeps the job's result live

/// What the reference job keeps resident; 0 until it is built.
std::uint64_t g_reference_resident_bytes = 0;

/// Speed of a fixed reference job, in operations per second. It shares no
/// code with the library and has two timed parts:
///  - far: 5x10^4 pseudo-random increments over a 256 MiB buffer, more
///    than twice the shared cache, so nearly every one goes to memory;
///  - near: 2x10^5 pseudo-random updates of a hash table of about 1.3 MB.
///    A 16 MiB buffer, eight times a core's private cache, is swept first,
///    so the first pass fetches the table from the shared cache and the
///    second runs warm.
/// The speed is the geometric mean of the two parts' speeds. Both start
/// from a state the job sets itself, so what moves them is the machine —
/// other tenants' cache and memory traffic on a shared host — and not what
/// the measured code left behind (measured: after touching 256 KiB the job
/// reads 0.2% faster than after touching 4 MiB, and 3% faster than after
/// touching 256 MiB). The far part tracks memory-bound workloads, the near
/// part cache-bound ones.
double reference_speed() {
  constexpr int kNearOps = 100000;
  constexpr int kFarOps = 50000;
  constexpr std::uint64_t kKeys = 32768;
  constexpr std::size_t kFarWords = std::size_t{1} << 25;  // 256 MiB
  struct Job {
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::vector<std::uint64_t> sweep;
    std::vector<std::uint64_t> far;
    Job() {
      const std::uint64_t before = rss_bytes();
      for (std::uint64_t k = 0; k < kKeys; ++k) table[k] = k;
      sweep.assign(std::size_t{1} << 21, 1);  // 16 MiB, resident
      far.assign(kFarWords, 1);
      const std::uint64_t after = rss_bytes();
      g_reference_resident_bytes = after > before ? after - before : 0;
    }
  };
  static Job job;
  static std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kFarOps; ++i) acc += ++job.far[next() & (kFarWords - 1)];
  const double far_s = seconds_since(t0);
  for (std::size_t i = 0; i < job.sweep.size(); i += 8) acc += ++job.sweep[i];
  const auto t1 = Clock::now();
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kNearOps; ++i) {
      std::uint64_t& v = job.table[next() & (kKeys - 1)];
      v += x;
      acc += v;
    }
  }
  const double near_s = seconds_since(t1);
  g_reference_sink = acc;
  return std::sqrt((kFarOps / far_s) * (2 * kNearOps / near_s));
}

/// The reference job's typical speed on the machine the benchmark was
/// defined on (a 4-vCPU Intel Xeon virtual machine, 2 MiB L2 per core). It
/// only sets the level the scaled figures read at.
constexpr double kNominalReferenceSpeed = 6.5e7;

/// Brackets a rep with reference-speed probes. Over seconds, the shared
/// host this benchmark was defined on slows memory-touching code by up to a
/// third and back; the reference job slows with it. Timed seconds are
/// multiplied by scale() — the reference job's speed during the rep
/// relative to nominal — so the end-to-end rates and set-up times read as
/// at the nominal speed, and a slow spell of the host does not read as a
/// slower program. The raw figures are kept in the result's detail.
class ReferenceWindow {
 public:
  ReferenceWindow() : before_(reference_speed()) {}
  [[nodiscard]] double scale() const {
    return 0.5 * (before_ + reference_speed()) / kNominalReferenceSpeed;
  }

 private:
  double before_;
};

/// Runs `rep` until `budget_s` seconds have passed since `t0`, at least
/// `min_reps` times.
void repeat_for(Clock::time_point t0, double budget_s, int min_reps,
                const std::function<void()>& rep) {
  int done = 0;
  while (done < min_reps || seconds_since(t0) < budget_s) {
    rep();
    ++done;
  }
}

/// Quantile of whole-step latencies, interpolated within the step the
/// quantile falls in (the grouped-data median rule: step k spans
/// [k - 0.5, k + 0.5)). Unlike the nearest rank it moves smoothly when the
/// distribution shifts, so seeds whose quantile sits near a step boundary
/// do not jump a whole step apart.
double grouped_quantile(std::vector<std::uint64_t> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double target = q * static_cast<double>(xs.size());
  const auto k = xs[std::min(static_cast<std::size_t>(target), xs.size() - 1)];
  const auto lo = std::lower_bound(xs.begin(), xs.end(), k) - xs.begin();
  const auto hi = std::upper_bound(xs.begin(), xs.end(), k) - xs.begin();
  return static_cast<double>(k) - 0.5 +
         (target - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

/// The process's peak resident set, less what the reference job keeps
/// resident, in MiB.
double peak_rss_mb() {
  const std::uint64_t peak = peak_rss_bytes();
  return static_cast<double>(peak > g_reference_resident_bytes
                                 ? peak - g_reference_resident_bytes
                                 : peak) /
         (1024.0 * 1024.0);
}

/// The end-to-end metrics that are deterministic for a seed (wire bytes,
/// latency in steps) and the peak resident set.
void fill_guards(Result& r, double wire_bytes_per_msg,
                 const std::vector<std::uint64_t>& latency) {
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.metrics["wire_bytes_per_msg"] = wire_bytes_per_msg;
  r.metrics["msg_latency_steps_p50"] = grouped_quantile(latency, 0.50);
  r.metrics["msg_latency_steps_p99"] = grouped_quantile(latency, 0.99);
}

/// Self time of span kind `k` with the tracing cost taken out: each of
/// its own calls pays span_cost().own_ns inside it, and each span opened
/// directly inside it adds span_cost().parent_ns to its self time.
double corrected_self_ns(const SpanTable& spans, Span k) {
  const SpanStats& s = spans[k];
  const SpanCost& c = span_cost();
  return static_cast<double>(s.self_ns()) -
         static_cast<double>(s.calls) * c.own_ns -
         static_cast<double>(s.child_calls) * c.parent_ns;
}

enum class Mode : std::uint8_t { kPlain, kTraced, kObserved };

/// What every workload's rep records besides its own outputs. A rep type
/// also provides signature() (its deterministic outputs), completed()
/// (messages completed in the timed part), attempted(), failed(), and
/// span_ns(): the thread time the spans of a traced rep cover.
struct RepTimes {
  double setup_s = 0.0;
  double timed_s = 0.0;
  SpanTable spans{};  // traced reps: the spans of the timed part

  [[nodiscard]] double span_ns() const { return timed_s * 1e9; }
};

/// The traced reps of a run, and the untraced reps interleaved with them.
template <class Rep>
struct TracedRun {
  Rep first;  // an untraced rep with its heap allocations counted
  SpanTable spans{};
  double msgs = 0.0;  // completed by the traced reps
  double ns = 0.0;    // thread time of the traced reps
  double untraced_ns_per_msg = 0.0;
};

/// Runs one workload's reps and keeps the books every workload shares:
/// the determinism check, attempted and failed counts, reference scaling,
/// medians, and the interleaving of traced and untraced reps.
template <class Rep>
class RepRunner {
 public:
  using RepFn = std::function<Rep(Mode mode, bool count_allocs)>;

  RepRunner(Result& r, const char* name, RepFn rep)
      : r_(r), det_(r, name), rep_(std::move(rep)) {}

  void account(const Rep& rep, const char* pass) {
    det_.check(rep.signature(), pass);
    r_.attempted += rep.attempted();
    r_.failed += rep.failed();
  }

  /// Untraced reps, each between two reference probes, until `seconds`
  /// have passed (at least 3). Sets msgs_per_s and setup_s, scaled to the
  /// nominal machine speed, and keeps the raw median rate and the median
  /// scale in the detail. Returns the first rep.
  Rep untraced(double seconds) {
    std::vector<double> setup;
    std::vector<double> rate;
    std::vector<double> raw_rate;
    std::vector<double> scales;
    Rep first;
    bool have_first = false;
    repeat_for(Clock::now(), seconds, 3, [&] {
      const ReferenceWindow ref;
      Rep rep = rep_(Mode::kPlain, false);
      const double scale = ref.scale();
      account(rep, "untraced");
      setup.push_back(rep.setup_s * scale);
      rate.push_back(per(rep.completed(), rep.timed_s * scale));
      raw_rate.push_back(per(rep.completed(), rep.timed_s));
      scales.push_back(scale);
      if (!have_first) {
        first = std::move(rep);
        have_first = true;
      }
    });
    r_.metrics["msgs_per_s"] = median(rate);
    r_.metrics["setup_s"] = median(setup);
    r_.detail["raw_msgs_per_s"] = std::to_string(median(raw_rate));
    r_.detail["reference_scale"] = std::to_string(median(scales));
    return first;
  }

  /// One untraced rep that counts heap allocations, then untraced and
  /// traced reps in turn until `seconds` have passed (at least 2 each), so
  /// the two see the same state of the host.
  TracedRun<Rep> traced(double seconds) {
    (void)span_cost();  // calibrate before anything is measured
    const auto t0 = Clock::now();
    TracedRun<Rep> t;
    t.first = rep_(Mode::kPlain, true);
    account(t.first, "untraced");
    double untraced_msgs = 0.0;
    double untraced_ns = 0.0;
    repeat_for(t0, seconds, 2, [&] {
      const Rep plain = rep_(Mode::kPlain, false);
      account(plain, "untraced");
      untraced_msgs += plain.completed();
      untraced_ns += plain.span_ns();
      Rep traced = rep_(Mode::kTraced, false);
      account(traced, "traced");
      t.spans.take(traced.spans);
      t.msgs += traced.completed();
      t.ns += traced.span_ns();
    });
    t.untraced_ns_per_msg = per(untraced_ns, untraced_msgs);
    return t;
  }

 private:
  Result& r_;
  DeterminismCheck det_;
  RepFn rep_;
};

/// Per-message span split shared by the traced runs. The corrected self
/// times of every kind, the residual (time outside any span) and the
/// tracing cost add up to the traced reps' time exactly. The split gap
/// compares what is left once the tracing cost is taken out with the
/// interleaved untraced reps: how far the split over-states the layers.
template <class Rep>
void fill_span_split(Result& r, const TracedRun<Rep>& t) {
  const SpanTable& spans = t.spans;
  double covered = 0.0;  // time inside outermost spans
  double span_calls = 0.0;
  for (const SpanStats& s : spans.by_kind) {
    covered += static_cast<double>(s.self_ns());
    span_calls += static_cast<double>(s.calls);
    if (s.self_ns() < 0) r.fail("a span's children outlast it");
  }
  if (covered > t.ns * 1.001) {
    r.fail("layer self times exceed the traced wall time");
  }
  const SpanCost& c = span_cost();
  const double cost = span_calls * (c.own_ns + c.parent_ns);
  const double residual =
      t.ns - covered - static_cast<double>(spans.root_calls) * c.parent_ns;
  const auto ns = [&](Span k) {
    return per(corrected_self_ns(spans, k), t.msgs);
  };
  r.metrics["core.tm_ns_per_msg"] = ns(Span::kTm);
  r.metrics["core.rm_ns_per_msg"] = ns(Span::kRm);
  r.metrics["core.calls_per_msg"] = per(
      static_cast<double>(spans[Span::kTm].calls + spans[Span::kRm].calls),
      t.msgs);
  r.metrics["adversary.ns_per_msg"] = ns(Span::kAdversary);
  r.metrics["trace.ns_per_msg"] = per(t.ns, t.msgs);
  r.metrics["trace.untraced_ns_per_msg"] = t.untraced_ns_per_msg;
  r.metrics["trace.overhead_ratio"] =
      per(per(t.ns, t.msgs), t.untraced_ns_per_msg) - 1.0;
  r.metrics["trace.span_cost_ns_per_msg"] = per(cost, t.msgs);
  r.metrics["trace.residual_ns_per_msg"] = per(residual, t.msgs);
  r.metrics["trace.split_gap_ratio"] =
      per(per(t.ns - cost, t.msgs), t.untraced_ns_per_msg) - 1.0;
}

std::vector<std::string> make_payload_pool(std::size_t count,
                                           std::size_t bytes, Rng rng) {
  std::vector<std::string> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pool.push_back(make_payload(bytes, rng));
  }
  return pool;
}

constexpr std::uint64_t kAdversarySalt = 0x616476ULL;   // "adv"
constexpr std::uint64_t kPayloadSalt = 0x7061796cULL;   // "payl"
constexpr std::uint64_t kHopFaultSalt = 0x686f70ULL;    // "hop"

// The ε of every GHM link in every workload. At the library's default
// 2^-16 the protocol's permitted §2.6 violations show up: a fleet_100k rep
// (1.6M messages) has one on about a quarter of the seeds and a
// fuzz_coverage rep on about one in twenty, so the failed count would
// depend on the seed and on how many reps fit in a run. At 2^-32 no
// operation fails on any seed.
constexpr double kGhmEpsilon = 0x1p-32;

/// make_module_pair("ghm", seed) at kGhmEpsilon.
ModulePair ghm_pair(std::uint64_t seed) {
  GhmPair pair = make_ghm(GrowthPolicy::geometric(kGhmEpsilon), seed);
  return {std::move(pair.tm), std::move(pair.rm)};
}

// ===================================================================== link

struct LinkParams {
  FaultProfile faults = FaultProfile::chaos(0.05);
  std::uint32_t retry_every = 4;
  std::size_t payload_bytes = 32;
  // A rep drives `links` links one after another, each through
  // `warmup_msgs` untimed and `msgs` timed messages. A link keeps every
  // packet it ever sent, so bounding the messages per link keeps the
  // working set near the core's private cache instead of the shared one,
  // where other tenants' traffic makes timings swing.
  std::uint64_t links = 12;
  std::uint64_t warmup_msgs = 500;
  std::uint64_t msgs = 5000;
  std::uint64_t max_steps_per_msg = 100000;
};

struct LinkRep : RepTimes {
  std::uint64_t offered = 0;
  std::uint64_t oks = 0;
  std::uint64_t aborted = 0;
  std::uint64_t stalled = 0;
  std::uint64_t steps = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t packets = 0;
  std::uint64_t interned = 0;
  std::uint64_t violations = 0;
  std::uint64_t state_bits_max = 0;
  std::uint64_t allocs = 0;
  std::vector<std::uint64_t> latency;

  [[nodiscard]] double completed() const { return static_cast<double>(oks); }
  [[nodiscard]] std::uint64_t attempted() const { return offered; }
  [[nodiscard]] std::uint64_t failed() const {
    return offered - oks + violations;
  }
  [[nodiscard]] std::string signature() const {
    return Signature()
        .add("offered", offered)
        .add("oks", oks)
        .add("aborted", aborted)
        .add("stalled", stalled)
        .add("steps", steps)
        .add("wire_bytes", wire_bytes)
        .add("packets", packets)
        .add("violations", violations)
        .add("latency_hash", hash_values(latency))
        .str();
  }
};

enum class Outcome : std::uint8_t { kOk, kAborted, kStalled };

template <bool kTraced>
Outcome send_one(DataLink& link, const Message& m, std::uint64_t max_steps,
                 std::uint64_t& latency) {
  if constexpr (kTraced) {
    ScopedSpan span(Span::kLink);
    link.offer(m);
  } else {
    link.offer(m);
  }
  const std::uint64_t s0 = link.steps_taken();
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    if constexpr (kTraced) {
      ScopedSpan span(Span::kLink);
      link.step();
    } else {
      link.step();
    }
    if (link.last_step_completed_ok()) {
      latency = link.steps_taken() - s0;
      return Outcome::kOk;
    }
    if (link.last_step_crashed_t()) return Outcome::kAborted;
  }
  return Outcome::kStalled;
}

/// Closed loop: the next message is offered the step the sender goes idle.
template <bool kTraced>
void drive_link(DataLink& link, const std::vector<std::string>& pool,
                std::uint64_t& next_id, std::uint64_t msgs,
                const LinkParams& p, LinkRep* rep) {
  Message m;
  for (std::uint64_t i = 0; i < msgs; ++i) {
    m.id = next_id++;
    m.payload = pool[m.id % pool.size()];
    std::uint64_t latency = 0;
    const Outcome o = send_one<kTraced>(link, m, p.max_steps_per_msg, latency);
    if (rep == nullptr) {
      if (o == Outcome::kStalled) return;
      continue;
    }
    ++rep->offered;
    if (o == Outcome::kOk) {
      ++rep->oks;
      rep->latency.push_back(latency);
    } else if (o == Outcome::kAborted) {
      ++rep->aborted;
    } else {
      ++rep->stalled;
      return;  // Axiom 1: nothing more may be offered
    }
  }
}

/// One link of a rep: build it, warm it up, drive the timed messages.
void run_one_link(const LinkParams& p, std::uint64_t seed, Mode mode,
                  bool count_allocs, ObserverSink* sink, QueueLog* qlog,
                  LinkRep& rep) {
  const auto t0 = Clock::now();
  const std::vector<std::string> pool =
      make_payload_pool(64, p.payload_bytes, Rng(seed).fork(kPayloadSalt));
  ModulePair pair = ghm_pair(seed);
  OwnedPtr<ITransmitter> tm(std::move(pair.tm));
  OwnedPtr<IReceiver> rm(std::move(pair.rm));
  OwnedPtr<Adversary> adv(std::make_unique<RandomFaultAdversary>(
      p.faults, Rng(seed).fork(kAdversarySalt)));
  const bool traced = mode == Mode::kTraced;
  if (traced) {
    tm = std::make_unique<TimedTransmitter>(std::move(tm));
    rm = std::make_unique<TimedReceiver>(std::move(rm));
    adv = std::make_unique<TimedAdversary>(std::move(adv));
  } else if (mode == Mode::kObserved) {
    adv = std::make_unique<QueueRecordingAdversary>(std::move(adv), qlog);
  }
  DataLinkConfig cfg;
  cfg.retry_every = p.retry_every;
  cfg.keep_trace = false;
  DataLink link(std::move(tm), std::move(rm), std::move(adv), cfg);

  std::uint64_t next_id = 1;
  if (traced) {
    drive_link<true>(link, pool, next_id, p.warmup_msgs, p, nullptr);
  } else {
    drive_link<false>(link, pool, next_id, p.warmup_msgs, p, nullptr);
  }
  rep.setup_s += seconds_since(t0);

  const std::uint64_t steps0 = link.steps_taken();
  const auto wire = [&] {
    return link.tr_channel().bytes_sent() + link.rt_channel().bytes_sent();
  };
  const auto packets = [&] {
    return link.tr_channel().packets_sent() + link.rt_channel().packets_sent();
  };
  const auto interned = [&] {
    return link.tr_channel().interned_sends() +
           link.rt_channel().interned_sends();
  };
  const std::uint64_t wire0 = wire();
  const std::uint64_t packets0 = packets();
  const std::uint64_t interned0 = interned();
  const std::uint64_t viol0 = link.violations().safety_total();
  if (sink != nullptr) link.bus().attach(sink);
  if (traced) (void)collect_spans();

  const auto t1 = Clock::now();
  {
    std::unique_ptr<AllocWindow> allocs;
    if (count_allocs) allocs = std::make_unique<AllocWindow>();
    if (traced) {
      drive_link<true>(link, pool, next_id, p.msgs, p, &rep);
    } else {
      drive_link<false>(link, pool, next_id, p.msgs, p, &rep);
    }
    if (allocs) rep.allocs += allocs->count();
  }
  rep.timed_s += seconds_since(t1);
  if (traced) {
    SpanTable got = collect_spans();
    rep.spans.take(got);
  }

  rep.steps += link.steps_taken() - steps0;
  rep.wire_bytes += wire() - wire0;
  rep.packets += packets() - packets0;
  rep.interned += interned() - interned0;
  rep.violations += link.violations().safety_total() - viol0;
  rep.state_bits_max =
      std::max({rep.state_bits_max, link.stats().max_tm_state_bits,
                link.stats().max_rm_state_bits});
  if (sink != nullptr) link.bus().detach(sink);
}

/// Link i of every rep is seeded fleet_session_seed(seed, i).
LinkRep link_rep(const LinkParams& p, std::uint64_t seed, Mode mode,
                 bool count_allocs, ObserverSink* sink,
                 std::vector<QueueLog>* qlogs) {
  LinkRep rep;
  rep.latency.reserve(p.links * p.msgs);
  for (std::uint64_t i = 0; i < p.links; ++i) {
    run_one_link(p, fleet_session_seed(seed, i), mode, count_allocs, sink,
                 qlogs != nullptr ? &(*qlogs)[i] : nullptr, rep);
  }
  return rep;
}

}  // namespace

Result run_link_chaos(const RunOptions& opts) {
  const LinkParams p;
  Result r;
  r.detail["params"] =
      "ghm eps=2^-32 adversary=chaos(0.05) retry_every=4 payload=32B; "
      "a rep drives 12 links in turn, each 500 warm-up + 5000 timed msgs; "
      "threads=1";
  const auto rep = [&](Mode mode, bool count_allocs) {
    return link_rep(p, opts.seed, mode, count_allocs, nullptr, nullptr);
  };
  RepRunner<LinkRep> runner(r, "link_chaos", rep);

  if (!opts.trace) {
    const LinkRep first = runner.untraced(opts.seconds);
    fill_guards(r, per(first.wire_bytes, first.oks), first.latency);
    return r;
  }

  const TracedRun<LinkRep> t = runner.traced(opts.seconds);
  ObserverSink sink;
  std::vector<QueueLog> qlogs(p.links);
  runner.account(
      link_rep(p, opts.seed, Mode::kObserved, false, &sink, &qlogs),
      "observed");
  const QueueSummary q = summarize_queues(qlogs);

  const LinkRep& f = t.first;
  fill_span_split(r, t);
  r.metrics["link.self_ns_per_msg"] =
      per(corrected_self_ns(t.spans, Span::kLink), t.msgs);
  r.metrics["core.state_bits_max"] = static_cast<double>(f.state_bits_max);
  r.metrics["adversary.backlog_max"] = static_cast<double>(q.backlog_max);
  r.metrics["adversary.backlog_mean"] = q.backlog_mean;
  r.metrics["adversary.queue_wait_steps_p99"] =
      static_cast<double>(q.wait_p99);
  r.metrics["link.allocs_per_msg"] = per(f.allocs, f.oks);
  r.metrics["link.interned_send_ratio"] = per(f.interned, f.packets);
  r.metrics["link.pkts_per_msg"] = per(f.packets, f.oks);
  r.metrics["obs.events_per_msg"] = per(sink.events, sink.oks);
  return r;
}

// ==================================================================== fleet

namespace {

struct FleetParams {
  std::uint64_t sessions = 100000;
  unsigned shards = 2;
  std::uint64_t msgs_per_session = 16;
  std::size_t payload_bytes = 32;
};

// The derivation make_ghm_fleet_factory uses (salts included), rebuilt
// here so the traced run can slip timing wrappers around each session's
// modules. The traced fleet's fingerprint must equal the untraced one,
// which checks that this copy still matches the library's factory.
constexpr std::uint64_t kFleetProtocolSalt = 0x70726f746f636f6cULL;
constexpr std::uint64_t kFleetAdversarySalt = 0x61647665727361ULL;

SessionFactory traced_fleet_factory(const GhmFleetOptions& opts) {
  auto policy = std::make_shared<const GrowthPolicy>(
      GrowthPolicy::geometric(opts.epsilon));
  auto profile = std::make_shared<const FaultProfile>(opts.faults);
  auto link_cfg = std::make_shared<DataLinkConfig>();
  link_cfg->retry_every = static_cast<std::uint32_t>(opts.retry_every);
  link_cfg->keep_trace = opts.keep_trace;
  return [policy, profile, link_cfg](const SessionSpec& spec) {
    ScopedSpan span(Span::kFleetFactory);
    Rng root(spec.rng(kFleetProtocolSalt).next_u64());
    Rng tx_rng = root.fork(0x7472616e736d6974ULL);  // "transmit"
    Rng rx_rng = root.fork(0x7265636569766572ULL);  // "receiver"
    OwnedPtr<ITransmitter> tm = spec.create<TimedTransmitter>(
        OwnedPtr<ITransmitter>(
            spec.create<GhmTransmitter>(policy.get(), tx_rng)));
    OwnedPtr<IReceiver> rm = spec.create<TimedReceiver>(
        OwnedPtr<IReceiver>(spec.create<GhmReceiver>(policy.get(), rx_rng)));
    OwnedPtr<Adversary> adv = spec.create<TimedAdversary>(
        OwnedPtr<Adversary>(spec.create<RandomFaultAdversary>(
            profile.get(), spec.rng(kFleetAdversarySalt))));
    return std::make_unique<DataLink>(std::move(tm), std::move(rm),
                                      std::move(adv), link_cfg.get(),
                                      spec.shared);
  };
}

struct FleetRep : RepTimes {
  FleetResult result;
  unsigned shards = 1;
  std::uint64_t rss_before = 0;
  std::uint64_t allocs = 0;

  [[nodiscard]] double completed() const {
    return static_cast<double>(result.report.completed);
  }
  [[nodiscard]] std::uint64_t attempted() const {
    return result.report.offered;
  }
  [[nodiscard]] std::uint64_t failed() const {
    const FleetReport& f = result.report;
    return f.offered - f.completed + f.violations.safety_total();
  }
  /// The spans cover construction as well as stepping, on every shard's
  /// thread, so a traced fleet's time is thread time: wall time x shards.
  [[nodiscard]] double span_ns() const {
    return (setup_s + timed_s) * 1e9 * shards;
  }
  [[nodiscard]] std::string signature() const {
    const FleetReport& f = result.report;
    return Signature()
        .add("fingerprint", f.fingerprint())
        .add("offered", f.offered)
        .add("completed", f.completed)
        .add("aborted", f.aborted)
        .add("stalled", f.stalled)
        .add("steps", f.link.steps)
        .add("wire_bytes", f.tr_bytes + f.rt_bytes)
        .add("violations", f.violations.safety_total())
        .str();
  }
};

FleetRep fleet_rep(const FleetParams& p, std::uint64_t seed, bool traced,
                   bool count_allocs) {
  FleetRep rep;
  rep.shards = p.shards;
  FleetConfig cfg;
  cfg.sessions = p.sessions;
  cfg.threads = p.shards;
  cfg.root_seed = seed;
  cfg.workload.messages = p.msgs_per_session;
  cfg.workload.payload_bytes = p.payload_bytes;
  cfg.engine = FleetEngine::kSlab;

  GhmFleetOptions ghm;
  ghm.epsilon = kGhmEpsilon;
  const SessionFactory inner =
      traced ? traced_fleet_factory(ghm) : make_ghm_fleet_factory(ghm);
  // Setup ends when the last session is built: every shard then steps.
  std::atomic<std::int64_t> built_ns{0};
  const SessionFactory factory = [&](const SessionSpec& spec) {
    std::unique_ptr<DataLink> link = inner(spec);
    const std::int64_t t = detail::now_ns();
    std::int64_t prev = built_ns.load(std::memory_order_relaxed);
    while (prev < t && !built_ns.compare_exchange_weak(
                           prev, t, std::memory_order_relaxed)) {
    }
    return link;
  };

  rep.rss_before = rss_bytes();
  if (traced) (void)collect_spans();
  std::unique_ptr<AllocWindow> allocs;
  if (count_allocs) allocs = std::make_unique<AllocWindow>();
  const std::int64_t t0 = detail::now_ns();
  if (traced) {
    ScopedSpan span(Span::kFleetRun);
    rep.result = run_fleet(cfg, factory);
  } else {
    rep.result = run_fleet(cfg, factory);
  }
  const std::int64_t t1 = detail::now_ns();
  if (allocs) rep.allocs = allocs->count();
  if (traced) rep.spans = collect_spans();
  rep.setup_s = static_cast<double>(built_ns.load() - t0) * 1e-9;
  rep.timed_s = static_cast<double>(t1 - built_ns.load()) * 1e-9;
  return rep;
}

std::vector<std::uint64_t> fleet_latency(const FleetReport& report) {
  std::vector<std::uint64_t> out;
  out.reserve(report.steps_per_ok.count());
  for (double x : report.steps_per_ok.values()) {
    out.push_back(static_cast<std::uint64_t>(x));
  }
  return out;
}

}  // namespace

Result run_fleet_100k(const RunOptions& opts) {
  const FleetParams p;
  Result r;
  r.detail["params"] =
      "slab engine, 100000 live ghm sessions (make_ghm_fleet_factory "
      "defaults but eps=2^-32: chaos(0.05) retry_every=4), 16 msgs/session, "
      "payload=32B, shards=2";
  const auto rep = [&](Mode mode, bool count_allocs) {
    return fleet_rep(p, opts.seed, mode == Mode::kTraced, count_allocs);
  };
  RepRunner<FleetRep> runner(r, "fleet_100k", rep);

  if (!opts.trace) {
    const FleetRep first = runner.untraced(opts.seconds);
    const FleetReport& f = first.result.report;
    fill_guards(r, per(f.tr_bytes + f.rt_bytes, f.completed),
                fleet_latency(f));
    return r;
  }

  TracedRun<FleetRep> t = runner.traced(opts.seconds);
  // run_fleet's own span sits on the calling thread only; the engine's
  // self time on every shard is what the factory, core and adversary
  // spans leave of the thread time, i.e. the residual.
  // Its children then count as top-level spans of their thread.
  const SpanStats run_span = t.spans[Span::kFleetRun];
  t.spans.root_calls += run_span.child_calls - run_span.calls;
  t.spans[Span::kFleetRun] = {};

  const FleetRep& first = t.first;
  const FleetReport& f = first.result.report;
  const double sessions = static_cast<double>(p.sessions);
  fill_span_split(r, t);
  r.metrics["fleet.factory_ns_per_session"] =
      per(corrected_self_ns(t.spans, Span::kFleetFactory),
          static_cast<double>(run_span.calls) * sessions);
  r.metrics["fleet.engine_self_ns_per_msg"] =
      r.metrics["trace.residual_ns_per_msg"];
  r.metrics["core.state_bits_max"] = static_cast<double>(
      std::max(f.link.max_tm_state_bits, f.link.max_rm_state_bits));
  r.metrics["fleet.arena_bytes_per_session"] =
      per(static_cast<double>(first.result.slab_bytes_reserved), sessions);
  r.metrics["fleet.rss_bytes_per_session"] = per(
      static_cast<double>(first.result.rss_live_bytes > first.rss_before
                              ? first.result.rss_live_bytes - first.rss_before
                              : 0),
      sessions);
  Samples batch = first.result.batch_latency_us;
  r.metrics["fleet.batch_visit_us_p99"] = batch.quantile(0.99);
  r.metrics["fleet.allocs_per_step"] = per(first.allocs, f.link.steps);
  r.metrics["link.pkts_per_msg"] =
      per(f.tr_packets + f.rt_packets, f.completed);
  return r;
}

// =================================================================== fabric

namespace {

struct FabricParams {
  std::string topology = "line:5";
  std::size_t payload_bytes = 1024;
  FaultProfile faults = FaultProfile::lossy(0.05);
  std::uint32_t retry_every = 4;
  std::uint64_t warmup_ticks = 2000;
  std::uint64_t ticks = 40000;  // timed fabric ticks per rep
  // Messages a conversation may have offered and not yet seen delivered.
  // The fabric has no back-pressure: the source's OK fires at the first
  // hop's custody commit, so without a window the relay queues of a
  // saturated path grow without bound and latency grows with run length.
  std::uint64_t window = 8;
};

struct FabricRep : RepTimes {
  std::uint64_t offered = 0;
  std::uint64_t delivered_unique = 0;
  std::uint64_t delivered_dup = 0;
  std::uint64_t e2e_violations = 0;
  std::uint64_t link_violations = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t hop_forwards = 0;
  std::uint64_t custody_high_water = 0;
  std::uint64_t custody_high_water_mid = 0;  // halfway through the timed part
  std::uint64_t state_bits_max = 0;
  std::uint64_t allocs = 0;
  std::vector<std::uint64_t> latency;  // offer -> delivery, fabric ticks

  [[nodiscard]] double completed() const {
    return static_cast<double>(delivered_unique);
  }
  [[nodiscard]] std::uint64_t attempted() const { return offered; }
  /// A message the fabric delivers twice, or a §2.6 violation on any
  /// checker, is a failure; messages still in flight when the rep ends
  /// are not.
  [[nodiscard]] std::uint64_t failed() const {
    return delivered_dup + e2e_violations + link_violations;
  }
  [[nodiscard]] std::string signature() const {
    return Signature()
        .add("offered", offered)
        .add("delivered", delivered_unique)
        .add("duplicates", delivered_dup)
        .add("e2e_violations", e2e_violations)
        .add("link_violations", link_violations)
        .add("wire_bytes", wire_bytes)
        .add("hop_forwards", hop_forwards)
        .add("custody_high_water", custody_high_water)
        .add("latency_hash", hash_values(latency))
        .str();
  }
};

struct Conversation {
  std::uint64_t id = 0;
  std::uint64_t next_msg = 1;
  std::uint64_t outstanding = 0;  // offered, not yet delivered
  std::vector<std::uint64_t> offer_tick;  // by message id - 1
  std::vector<char> seen;                 // by message id - 1
};

template <bool kTraced>
void fabric_tick(TransportFabric& fabric, std::vector<Conversation>& convs,
                 const std::vector<std::string>& pool, std::uint64_t window,
                 FabricRep* rep) {
  for (Conversation& c : convs) {
    if (!fabric.tm_ready(c.id) || c.outstanding >= window) continue;
    ++c.outstanding;
    Message m{c.next_msg++, pool[(c.next_msg + c.id) % pool.size()]};
    c.offer_tick.push_back(fabric.now());
    c.seen.push_back(0);
    if (rep != nullptr) ++rep->offered;
    if constexpr (kTraced) {
      ScopedSpan span(Span::kTransportOffer);
      fabric.offer(c.id, std::move(m));
    } else {
      fabric.offer(c.id, std::move(m));
    }
  }
  if constexpr (kTraced) {
    ScopedSpan span(Span::kTransportStep);
    fabric.step();
  } else {
    fabric.step();
  }
  for (Conversation& c : convs) {
    std::vector<Message> delivered;
    if constexpr (kTraced) {
      ScopedSpan span(Span::kTransportTake);
      delivered = fabric.take_delivered(c.id);
    } else {
      delivered = fabric.take_delivered(c.id);
    }
    for (const Message& m : delivered) {
      const std::size_t i = static_cast<std::size_t>(m.id - 1);
      if (c.seen[i] != 0) {
        if (rep != nullptr) ++rep->delivered_dup;
        continue;
      }
      c.seen[i] = 1;
      --c.outstanding;
      if (rep != nullptr) {
        ++rep->delivered_unique;
        rep->latency.push_back(fabric.now() - c.offer_tick[i]);
      }
    }
  }
}

FabricRep fabric_rep(const FabricParams& p, std::uint64_t seed, Mode mode,
                     bool count_allocs, std::uint64_t ticks,
                     ObserverSink* sink, std::deque<QueueLog>* qlogs) {
  FabricRep rep;
  const auto t0 = Clock::now();
  const std::vector<std::string> pool =
      make_payload_pool(64, p.payload_bytes, Rng(seed).fork(kPayloadSalt));
  const bool traced = mode == Mode::kTraced;
  const HopLinkBuilder links = [&](std::uint32_t link,
                                   std::unique_ptr<Adversary> adv) {
    ModulePair pair = ghm_pair(seed + link);
    OwnedPtr<ITransmitter> tm(std::move(pair.tm));
    OwnedPtr<IReceiver> rm(std::move(pair.rm));
    if (traced) {
      tm = std::make_unique<TimedTransmitter>(std::move(tm));
      rm = std::make_unique<TimedReceiver>(std::move(rm));
    }
    DataLinkConfig cfg;
    cfg.retry_every = p.retry_every;
    cfg.keep_trace = false;
    cfg.collect_deliveries = true;
    DataLink out(std::move(tm), std::move(rm), std::move(adv), cfg);
    if (sink != nullptr) out.bus().attach(sink);
    return out;
  };
  const HopAdversaryBuilder faults =
      [&](std::uint32_t link) -> std::unique_ptr<Adversary> {
    auto adv = std::make_unique<RandomFaultAdversary>(
        p.faults, Rng(seed).fork(kHopFaultSalt + link));
    if (traced) {
      return std::make_unique<TimedAdversary>(
          OwnedPtr<Adversary>(std::move(adv)));
    }
    if (qlogs != nullptr) {
      qlogs->emplace_back();
      return std::make_unique<QueueRecordingAdversary>(
          OwnedPtr<Adversary>(std::move(adv)), &qlogs->back());
    }
    return adv;
  };
  auto graph = parse_topology(p.topology, nullptr);
  TransportFabric fabric(std::move(*graph), links, faults);
  const NodeId last = static_cast<NodeId>(fabric.graph().node_count() - 1);
  std::vector<Conversation> convs(2);
  convs[0].id = fabric.add_session(0, last);
  convs[1].id = fabric.add_session(last, 0);
  if (sink != nullptr) fabric.bus().attach(sink);

  for (std::uint64_t i = 0; i < p.warmup_ticks; ++i) {
    fabric_tick<false>(fabric, convs, pool, p.window, nullptr);
  }
  rep.setup_s = seconds_since(t0);

  const auto sum_links = [&](const auto& f) {
    std::uint64_t total = 0;
    for (std::uint32_t L = 0; L < fabric.link_count(); ++L) {
      total += f(fabric.link(L));
    }
    return total;
  };
  const auto wire = [&] {
    return sum_links([](const DataLink& l) {
      return l.tr_channel().bytes_sent() + l.rt_channel().bytes_sent();
    });
  };
  const auto e2e_violations = [&] {
    std::uint64_t total = 0;
    for (const Conversation& c : convs) {
      total += fabric.checker(c.id).violations().safety_total();
    }
    return total;
  };
  const auto link_violations = [&] {
    return sum_links([](const DataLink& l) {
      return l.checker().violations().safety_total();
    });
  };
  const std::uint64_t wire0 = wire();
  const std::uint64_t e2e0 = e2e_violations();
  const std::uint64_t link0 = link_violations();
  const std::uint64_t hops0 = fabric.counters().fabric().hop_forwards;
  rep.latency.reserve(ticks / 8);
  if (traced) (void)collect_spans();

  const auto t1 = Clock::now();
  {
    std::unique_ptr<AllocWindow> allocs;
    if (count_allocs) allocs = std::make_unique<AllocWindow>();
    for (std::uint64_t i = 0; i < ticks; ++i) {
      if (i == ticks / 2) {
        rep.custody_high_water_mid = fabric.custody_high_water();
      }
      if (traced) {
        fabric_tick<true>(fabric, convs, pool, p.window, &rep);
      } else {
        fabric_tick<false>(fabric, convs, pool, p.window, &rep);
      }
    }
    if (allocs) rep.allocs = allocs->count();
  }
  rep.timed_s = seconds_since(t1);
  if (traced) rep.spans = collect_spans();

  rep.wire_bytes = wire() - wire0;
  rep.e2e_violations = e2e_violations() - e2e0;
  rep.link_violations = link_violations() - link0;
  rep.hop_forwards = fabric.counters().fabric().hop_forwards - hops0;
  rep.custody_high_water = fabric.custody_high_water();
  for (std::uint32_t L = 0; L < fabric.link_count(); ++L) {
    const LinkStats& st = fabric.link(L).stats();
    rep.state_bits_max = std::max(
        {rep.state_bits_max, st.max_tm_state_bits, st.max_rm_state_bits});
  }
  if (sink != nullptr) {
    fabric.bus().detach(sink);
  }
  return rep;
}

/// How much fuller a fabric's queues may get between the middle and the
/// end of a run, or from the shortest to a longer run, and still count as
/// flat. A path whose relay queues grow like a random walk grows by about
/// sqrt(2) from the middle of a run to its end.
constexpr double kFlat = 1.25;

/// Empty when the fabric's queues stay flat over the rep's timed part:
/// the adversary backlog, the custody high water and the median latency
/// are each no more than kFlat times higher in the second half than in the
/// first. Otherwise says which one grew.
std::string fabric_growth(const FabricRep& rep, const QueueSummary& q) {
  std::string out;
  const auto check = [&](const char* what, double first, double second) {
    if (second > kFlat * first) {
      out += std::string(out.empty() ? "" : ", ") + what + " " +
             std::to_string(first) + " -> " + std::to_string(second);
    }
  };
  const std::size_t half = rep.latency.size() / 2;
  check("adversary backlog", q.backlog_mean_first, q.backlog_mean_second);
  check("custody high water",
        static_cast<double>(rep.custody_high_water_mid),
        static_cast<double>(rep.custody_high_water));
  check("median latency",
        grouped_quantile({rep.latency.begin(), rep.latency.begin() + half},
                         0.5),
        grouped_quantile({rep.latency.begin() + half, rep.latency.end()},
                         0.5));
  if (q.late > 0) check("late packets", 0.0, static_cast<double>(q.late));
  return out;
}

}  // namespace

Result run_fabric_line5(const RunOptions& opts) {
  const FabricParams p;
  Result r;
  r.detail["params"] =
      "line:5 fabric (4 hops), sessions 0->4 and 4->0, payload=1024B, every "
      "hop ghm under loss=0.05, retry_every=4, window=8 msgs in flight, "
      "warmup_ticks=2000 ticks_per_rep=40000 threads=1";
  const auto rep = [&](Mode mode, bool count_allocs) {
    return fabric_rep(p, opts.seed, mode, count_allocs, p.ticks, nullptr,
                      nullptr);
  };
  RepRunner<FabricRep> runner(r, "fabric_line5", rep);

  if (!opts.trace) {
    const FabricRep first = runner.untraced(opts.seconds);
    fill_guards(r, per(first.wire_bytes, first.delivered_unique),
                first.latency);
    return r;
  }

  const TracedRun<FabricRep> t = runner.traced(opts.seconds);
  ObserverSink sink;
  std::deque<QueueLog> qlogs;
  const FabricRep observed = fabric_rep(p, opts.seed, Mode::kObserved, false,
                                        p.ticks, &sink, &qlogs);
  runner.account(observed, "observed");
  const QueueSummary q = summarize_queues({qlogs.begin(), qlogs.end()});
  if (const std::string grew = fabric_growth(observed, q); !grew.empty()) {
    r.fail("fabric_line5: queues grow with run length: " + grew);
  }

  const FabricRep& f = t.first;
  fill_span_split(r, t);
  const auto self = [&](Span k) {
    return per(corrected_self_ns(t.spans, k), t.msgs);
  };
  r.metrics["transport.offer_ns_per_msg"] = self(Span::kTransportOffer);
  r.metrics["transport.step_self_ns_per_msg"] = self(Span::kTransportStep);
  r.metrics["transport.take_delivered_ns_per_msg"] = self(Span::kTransportTake);
  r.metrics["transport.custody_high_water_bytes"] =
      static_cast<double>(f.custody_high_water);
  r.metrics["transport.hop_forwards_per_msg"] =
      per(f.hop_forwards, f.delivered_unique);
  r.metrics["transport.allocs_per_msg"] = per(f.allocs, f.delivered_unique);
  r.metrics["core.state_bits_max"] = static_cast<double>(f.state_bits_max);
  r.metrics["adversary.backlog_max"] = static_cast<double>(q.backlog_max);
  r.metrics["adversary.backlog_mean"] = q.backlog_mean;
  r.metrics["adversary.queue_wait_steps_p99"] =
      static_cast<double>(q.wait_p99);
  r.metrics["obs.events_per_msg"] =
      per(sink.events, observed.delivered_unique);
  return r;
}

bool selftest_fabric_backlog(std::uint64_t seed) {
  const FabricParams p;
  bool ok = true;
  double base_backlog = 0.0;
  double base_custody = 0.0;
  double base_latency = 0.0;
  for (const std::uint64_t ticks : {10000, 40000, 160000}) {
    std::deque<QueueLog> qlogs;
    const FabricRep rep = fabric_rep(p, seed, Mode::kObserved, false, ticks,
                                     nullptr, &qlogs);
    const QueueSummary q = summarize_queues({qlogs.begin(), qlogs.end()});
    const double custody = static_cast<double>(rep.custody_high_water);
    const double latency = grouped_quantile(rep.latency, 0.5);
    if (base_custody == 0.0) {
      base_backlog = q.backlog_mean;
      base_custody = custody;
      base_latency = latency;
    }
    // Flat against the shortest run, and within this run.
    const std::string grew = fabric_growth(rep, q);
    const bool flat = q.backlog_mean <= kFlat * base_backlog &&
                      custody <= kFlat * base_custody &&
                      latency <= kFlat * base_latency && grew.empty();
    ok = ok && flat;
    std::printf(
        "fabric_line5 ticks=%lu delivered=%lu backlog_mean=%.3f "
        "(first half %.3f, second half %.3f) backlog_max=%lu "
        "queue_wait_p99=%lu late=%lu custody_high_water=%lu "
        "latency_p50=%.2f %s%s\n",
        static_cast<unsigned long>(ticks),
        static_cast<unsigned long>(rep.delivered_unique), q.backlog_mean,
        q.backlog_mean_first, q.backlog_mean_second,
        static_cast<unsigned long>(q.backlog_max),
        static_cast<unsigned long>(q.wait_p99),
        static_cast<unsigned long>(q.late),
        static_cast<unsigned long>(rep.custody_high_water), latency,
        flat ? "flat" : "GROWING",
        grew.empty() ? "" : (" (" + grew + ")").c_str());
  }
  return ok;
}

// ===================================================================== fuzz

namespace {

struct FuzzParams {
  std::uint32_t depth = 150;
  // A rep runs `campaigns` fuzz campaigns of `scripts` scripts each,
  // campaign i rooted at fleet_session_seed(seed, i). One campaign's
  // corpus drifts with its root seed; several per rep keep a seed's
  // figures close to every other seed's.
  std::uint64_t campaigns = 16;
  std::uint64_t scripts = 1024;
  std::uint64_t warmup_scripts = 256;
};

FuzzerConfig fuzz_config(const FuzzParams& p, std::uint64_t root_seed,
                         std::uint64_t scripts) {
  FuzzerConfig cfg;
  cfg.scripts = scripts;
  cfg.depth = p.depth;
  cfg.root_seed = root_seed;
  cfg.threads = 1;
  cfg.mode = FuzzMode::kCoverage;
  return cfg;
}

/// make_seeded_system("ghm") at kGhmEpsilon, with `sink` (if any)
/// attached to every link it builds.
SeededSystem ghm_system(ObserverSink* sink) {
  return [sink](std::uint64_t seed) -> AdversaryLinkFactory {
    return [seed, sink](std::unique_ptr<Adversary> adv) {
      ModulePair pair = ghm_pair(seed);
      DataLink link(std::move(pair.tm), std::move(pair.rm), std::move(adv),
                    script_link_config(false));
      if (sink != nullptr) link.bus().attach(sink);
      return link;
    };
  };
}

/// ghm_system with timing wrappers around the modules and the fuzzer's
/// scheduler. The traced fuzz fingerprint must equal the untraced one,
/// which checks that the composition matches.
SeededSystem traced_ghm_system() {
  return [](std::uint64_t seed) -> AdversaryLinkFactory {
    ScopedSpan span(Span::kHarnessFactory);
    return [seed](std::unique_ptr<Adversary> adv) {
      ScopedSpan build(Span::kHarnessFactory);
      ModulePair pair = ghm_pair(seed);
      return DataLink(
          std::make_unique<TimedTransmitter>(
              OwnedPtr<ITransmitter>(std::move(pair.tm))),
          std::make_unique<TimedReceiver>(
              OwnedPtr<IReceiver>(std::move(pair.rm))),
          std::make_unique<TimedAdversary>(OwnedPtr<Adversary>(std::move(adv))),
          script_link_config(false));
    };
  };
}

struct FuzzRep : RepTimes {
  std::uint64_t scripts = 0;
  std::uint64_t violating = 0;
  std::uint64_t steps = 0;
  std::uint64_t oks = 0;
  std::uint64_t coverage_bits = 0;  // summed over campaigns
  std::uint64_t corpus = 0;         // summed over campaigns
  std::uint64_t allocs = 0;
  Fnv1a fingerprints;  // of every campaign's report, in campaign order

  [[nodiscard]] double completed() const { return static_cast<double>(oks); }
  [[nodiscard]] std::uint64_t attempted() const { return scripts; }
  [[nodiscard]] std::uint64_t failed() const { return violating; }
  [[nodiscard]] std::string signature() const {
    return Signature()
        .add("fingerprints", fingerprints.hex())
        .add("scripts", scripts)
        .add("violating", violating)
        .add("steps", steps)
        .add("oks", oks)
        .add("coverage_bits", coverage_bits)
        .add("corpus", corpus)
        .str();
  }
};

FuzzRep fuzz_rep(const FuzzParams& p, std::uint64_t seed, Mode mode,
                 bool count_allocs, ObserverSink* sink) {
  FuzzRep rep;
  const auto t0 = Clock::now();
  const SeededSystem system =
      mode == Mode::kTraced ? traced_ghm_system() : ghm_system(sink);
  // Warm-up on a disjoint root seed: allocator, caches and code paths.
  (void)run_fuzz(system, fuzz_config(p, ~seed, p.warmup_scripts));
  rep.setup_s = seconds_since(t0);
  if (sink != nullptr) sink->reset();

  if (mode == Mode::kTraced) (void)collect_spans();
  std::unique_ptr<AllocWindow> allocs;
  if (count_allocs) allocs = std::make_unique<AllocWindow>();
  const auto t1 = Clock::now();
  for (std::uint64_t i = 0; i < p.campaigns; ++i) {
    const FuzzerConfig cfg =
        fuzz_config(p, fleet_session_seed(seed, i), p.scripts);
    FuzzReport report;
    if (mode == Mode::kTraced) {
      ScopedSpan span(Span::kHarnessRun);
      report = run_fuzz(system, cfg);
    } else {
      report = run_fuzz(system, cfg);
    }
    rep.scripts += report.scripts;
    rep.violating += report.violating_scripts;
    rep.steps += report.steps_total;
    rep.oks += report.oks_total;
    rep.coverage_bits += report.coverage_bits;
    rep.corpus += report.corpus_kept;
    rep.fingerprints.mix(static_cast<std::uint64_t>(
        std::stoull(report.fingerprint(), nullptr, 16)));
  }
  rep.timed_s = seconds_since(t1);
  if (allocs) rep.allocs = allocs->count();
  if (mode == Mode::kTraced) rep.spans = collect_spans();
  return rep;
}

}  // namespace

Result run_fuzz_coverage(const RunOptions& opts) {
  const FuzzParams p;
  Result r;
  r.detail["params"] =
      "run_fuzz coverage mode on ghm (eps=2^-32), depth=150, 4 msgs of 2B "
      "per script, round_size=64; a rep is 16 campaigns x 1024 scripts; "
      "warmup_scripts=256; threads=1";
  const auto rep = [&](Mode mode, bool count_allocs) {
    return fuzz_rep(p, opts.seed, mode, count_allocs, nullptr);
  };
  RepRunner<FuzzRep> runner(r, "fuzz_coverage", rep);
  // The fuzzer keeps its links to itself, so wire bytes, latencies and
  // event counts come from one untimed pass with an observing sink.
  ObserverSink sink;
  const auto observe = [&] {
    const FuzzRep observed =
        fuzz_rep(p, opts.seed, Mode::kObserved, false, &sink);
    runner.account(observed, "observed");
    if (sink.oks != observed.oks) {
      r.fail("fuzz_coverage: observed OKs disagree with the fuzz report");
    }
  };

  if (!opts.trace) {
    (void)runner.untraced(opts.seconds);
    const double rss_mb = peak_rss_mb();
    observe();
    fill_guards(r, per(sink.wire_bytes, sink.oks), sink.ok_latency_steps);
    r.metrics["peak_rss_mb"] = rss_mb;
    return r;
  }

  const TracedRun<FuzzRep> t = runner.traced(opts.seconds);
  observe();

  const FuzzRep& f = t.first;
  const double traced_scripts = t.msgs * per(f.scripts, f.oks);
  fill_span_split(r, t);
  const auto per_script = [&](Span k) {
    return per(corrected_self_ns(t.spans, k), traced_scripts);
  };
  r.metrics["harness.factory_ns_per_script"] =
      per_script(Span::kHarnessFactory);
  r.metrics["harness.self_ns_per_script"] = per_script(Span::kHarnessRun);
  r.metrics["harness.corpus_size"] = per(f.corpus, p.campaigns);
  // From the untraced reps of this run; scripts per OK is fixed for a seed.
  r.metrics["harness.scripts_per_s"] =
      per(1e9, t.untraced_ns_per_msg) * per(f.scripts, f.oks);
  r.metrics["harness.coverage_bits"] = per(f.coverage_bits, p.campaigns);
  r.metrics["harness.allocs_per_script"] = per(f.allocs, f.scripts);
  r.metrics["core.state_bits_max"] = static_cast<double>(sink.state_bits_max);
  r.metrics["link.interned_send_ratio"] = per(sink.interned, sink.packets);
  r.metrics["link.pkts_per_msg"] = per(sink.packets, sink.oks);
  r.metrics["obs.events_per_msg"] = per(sink.events, sink.oks);
  return r;
}

}  // namespace s2d::perfbench
