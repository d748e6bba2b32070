// Outside-in tracing for the benchmark.
//
// Every layer is timed from outside, through its public interface:
// ScopedSpan brackets a call into a layer, and the forwarding wrappers
// below put spans around the ITransmitter / IReceiver / Adversary calls an
// executor makes. Spans nest on a per-thread stack; each span adds its
// duration to its own kind and to its parent's child time, so a span's
// self time is its duration minus the part its child spans cover, and the
// self times of every span plus the untraced residual add up to the wall
// time of the traced region.
//
// The Observer is the untimed counterpart: an event sink plus a queue
// recorder used by a separate, untimed pass that collects the
// deterministic per-layer counts (events, packets, queue waits).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "link/adversary.h"
#include "link/module.h"
#include "obs/event.h"
#include "util/owned.h"

namespace s2d::perfbench {

enum class Span : std::uint8_t {
  kTm,              // core: ITransmitter input actions
  kRm,              // core: IReceiver input actions
  kAdversary,       // adversary: Adversary::next
  kLink,            // link: DataLink::offer / DataLink::step
  kFleetRun,        // fleet: run_fleet
  kFleetFactory,    // fleet: SessionFactory calls
  kTransportOffer,  // transport: TransportFabric::offer
  kTransportStep,   // transport: TransportFabric::step
  kTransportTake,   // transport: TransportFabric::take_delivered
  kHarnessRun,      // harness: run_fuzz
  kHarnessFactory,  // harness: SeededSystem / AdversaryLinkFactory calls
  kCount,
};

inline constexpr std::size_t kSpanCount = static_cast<std::size_t>(Span::kCount);

struct SpanStats {
  std::uint64_t calls = 0;
  std::uint64_t child_calls = 0;  // spans opened directly inside this kind
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;

  [[nodiscard]] std::int64_t self_ns() const noexcept {
    return total_ns - child_ns;
  }
};

struct SpanTable {
  std::array<SpanStats, kSpanCount> by_kind{};
  std::uint64_t root_calls = 0;  // spans opened with no enclosing span

  SpanStats& operator[](Span k) { return by_kind[static_cast<std::size_t>(k)]; }
  const SpanStats& operator[](Span k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }
  /// Adds `other` in and leaves it zeroed.
  void take(SpanTable& other);
};

/// Returns the span totals of every thread since the last call and
/// resets them. Worker threads fold their totals in when they exit, so
/// call this after joining them.
[[nodiscard]] SpanTable collect_spans();

/// What one span costs the measurement, calibrated once per process on
/// empty spans: `own_ns` lands inside the span's own duration, `parent_ns`
/// in the self time of whatever encloses it (a parent span, or the
/// untraced loop around the spans).
struct SpanCost {
  double own_ns = 0.0;
  double parent_ns = 0.0;
};
[[nodiscard]] const SpanCost& span_cost();

namespace detail {

/// Child time and child count of the innermost open span.
struct OpenSpan {
  std::int64_t child_ns = 0;
  std::uint64_t child_calls = 0;
};

struct ThreadSpans {
  SpanTable table;
  OpenSpan* open = nullptr;  // innermost open span; null at top level
  ~ThreadSpans();
};

ThreadSpans& thread_spans();

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace detail

class ScopedSpan {
 public:
  explicit ScopedSpan(Span kind) noexcept
      : spans_(detail::thread_spans()),
        kind_(kind),
        parent_(spans_.open),
        start_(detail::now_ns()) {
    spans_.open = &mine_;
  }
  ~ScopedSpan() {
    const std::int64_t d = detail::now_ns() - start_;
    SpanStats& s = spans_.table[kind_];
    ++s.calls;
    s.total_ns += d;
    s.child_ns += mine_.child_ns;
    s.child_calls += mine_.child_calls;
    if (parent_ != nullptr) {
      parent_->child_ns += d;
      ++parent_->child_calls;
    } else {
      ++spans_.table.root_calls;
    }
    spans_.open = parent_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  detail::ThreadSpans& spans_;
  Span kind_;
  detail::OpenSpan* parent_;
  std::int64_t start_;
  detail::OpenSpan mine_;
};

// --- Allocation counting ------------------------------------------------

/// Heap allocations counted while counting is enabled (main.cpp's
/// replacement operator new checks the flag, so disabled counting costs
/// one relaxed load per allocation).
inline std::atomic<bool> g_count_allocs{false};
inline std::atomic<std::uint64_t> g_allocs{0};

class AllocWindow {
 public:
  AllocWindow() noexcept : start_(g_allocs.load(std::memory_order_relaxed)) {
    g_count_allocs.store(true, std::memory_order_relaxed);
  }
  ~AllocWindow() { g_count_allocs.store(false, std::memory_order_relaxed); }
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return g_allocs.load(std::memory_order_relaxed) - start_;
  }

 private:
  std::uint64_t start_;
};

// --- Forwarding wrappers --------------------------------------------------

class TimedTransmitter final : public ITransmitter {
 public:
  explicit TimedTransmitter(OwnedPtr<ITransmitter> inner)
      : inner_(std::move(inner)) {}

  void bind_bus(EventBus* bus) override { inner_->bind_bus(bus); }
  void on_send_msg(const Message& m, TxOutbox& out) override {
    ScopedSpan span(Span::kTm);
    inner_->on_send_msg(m, out);
  }
  void on_receive_pkt(std::span<const std::byte> pkt, TxOutbox& out) override {
    ScopedSpan span(Span::kTm);
    inner_->on_receive_pkt(pkt, out);
  }
  void on_timer(TxOutbox& out) override {
    ScopedSpan span(Span::kTm);
    inner_->on_timer(out);
  }
  void on_crash() override {
    ScopedSpan span(Span::kTm);
    inner_->on_crash();
  }
  [[nodiscard]] bool busy() const override { return inner_->busy(); }
  [[nodiscard]] std::size_t state_bits() const override {
    return inner_->state_bits();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  OwnedPtr<ITransmitter> inner_;
};

class TimedReceiver final : public IReceiver {
 public:
  explicit TimedReceiver(OwnedPtr<IReceiver> inner)
      : inner_(std::move(inner)) {}

  void bind_bus(EventBus* bus) override { inner_->bind_bus(bus); }
  void on_receive_pkt(std::span<const std::byte> pkt, RxOutbox& out) override {
    ScopedSpan span(Span::kRm);
    inner_->on_receive_pkt(pkt, out);
  }
  void on_retry(RxOutbox& out) override {
    ScopedSpan span(Span::kRm);
    inner_->on_retry(out);
  }
  void on_crash() override {
    ScopedSpan span(Span::kRm);
    inner_->on_crash();
  }
  [[nodiscard]] std::size_t state_bits() const override {
    return inner_->state_bits();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  OwnedPtr<IReceiver> inner_;
};

class TimedAdversary final : public Adversary {
 public:
  explicit TimedAdversary(OwnedPtr<Adversary> inner)
      : inner_(std::move(inner)) {}

  Decision next(const AdversaryView& view) override {
    ScopedSpan span(Span::kAdversary);
    return inner_->next(view);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  OwnedPtr<Adversary> inner_;
};

// --- Untimed observation ----------------------------------------------------

/// Counts what the untimed observation pass needs from a link's event bus:
/// every event, channel sends and bytes, send_msg -> OK latency in steps,
/// and the largest station state. Safe to share across links that run one
/// after another on one thread (a link's first event is its send_msg).
class ObserverSink final : public EventSink {
 public:
  void on_event(const Event& ev) override;
  void reset() { *this = ObserverSink{}; }

  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t interned = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t oks = 0;
  std::uint64_t state_bits_max = 0;
  std::vector<std::uint64_t> ok_latency_steps;

 private:
  std::uint64_t send_step_ = 0;
};

/// Send -> first-delivery bookkeeping for the packets one adversary
/// schedules, reconstructed from its view and its decisions alone.
struct QueueLog {
  std::uint64_t steps = 0;  // last step the adversary was asked about
  struct Channel {
    std::vector<std::uint64_t> sent_step;
    std::vector<std::uint64_t> first_delivery;  // 0 = never delivered
  };
  std::array<Channel, 2> ch;  // [0] T->R, [1] R->T
};

/// Wraps an adversary and records, without timing, when each packet was
/// sent and first delivered. The backlog at a step is the number of
/// packets sent and not yet delivered that are delivered later; packets
/// the adversary drops never count.
class QueueRecordingAdversary final : public Adversary {
 public:
  QueueRecordingAdversary(OwnedPtr<Adversary> inner, QueueLog* log)
      : inner_(std::move(inner)), log_(log) {}

  Decision next(const AdversaryView& view) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  OwnedPtr<Adversary> inner_;
  QueueLog* log_;
};

/// A first delivery this many steps after the send is not counted as
/// queueing: under a duplicating adversary it is a lost packet picked out
/// of the whole history, and counting it would make the backlog grow with
/// the history instead of with the queue. Such packets count as `late`.
inline constexpr std::uint64_t kMaxQueueWait = 4096;

struct QueueSummary {
  std::uint64_t backlog_max = 0;
  double backlog_mean = 0.0;        // over steps, whole run
  double backlog_mean_first = 0.0;  // over the first half of the steps
  double backlog_mean_second = 0.0;  // over the second half
  std::uint64_t wait_p99 = 0;  // steps from send to first delivery
  std::uint64_t delivered = 0;
  std::uint64_t late = 0;  // first delivered more than kMaxQueueWait late
};

/// Folds the logs of a run's links: the backlog is taken per link (max
/// of the maxima, mean of the per-link means), the waits are pooled.
[[nodiscard]] QueueSummary summarize_queues(const std::vector<QueueLog>& logs);

}  // namespace s2d::perfbench
