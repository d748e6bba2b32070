#include "trace.h"

#include <algorithm>
#include <mutex>

#include "link/channel.h"

namespace s2d::perfbench {
namespace {

std::mutex g_exited_mu;
SpanTable g_exited;  // totals folded in by threads that have exited

}  // namespace

namespace detail {

ThreadSpans::~ThreadSpans() {
  const std::lock_guard<std::mutex> lock(g_exited_mu);
  g_exited.take(table);
}

ThreadSpans& thread_spans() {
  thread_local ThreadSpans spans;
  return spans;
}

}  // namespace detail

void SpanTable::take(SpanTable& other) {
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    SpanStats& to = by_kind[i];
    const SpanStats& from = other.by_kind[i];
    to.calls += from.calls;
    to.child_calls += from.child_calls;
    to.total_ns += from.total_ns;
    to.child_ns += from.child_ns;
  }
  root_calls += other.root_calls;
  other = SpanTable{};
}

SpanTable collect_spans() {
  SpanTable out;
  out.take(detail::thread_spans().table);
  const std::lock_guard<std::mutex> lock(g_exited_mu);
  out.take(g_exited);
  return out;
}

const SpanCost& span_cost() {
  static const SpanCost cost = [] {
    // An enclosing span around batches of empty spans: the empty spans'
    // own durations give own_ns, what the enclosing span's self time
    // gains per child gives parent_ns. Median of several batches.
    constexpr int kBatches = 15;
    constexpr int kInner = 4000;
    (void)collect_spans();
    std::vector<double> own;
    std::vector<double> parent;
    for (int b = 0; b < kBatches; ++b) {
      {
        ScopedSpan outer(Span::kLink);
        for (int i = 0; i < kInner; ++i) ScopedSpan inner(Span::kTm);
      }
      const SpanTable t = collect_spans();
      const double inner_own =
          static_cast<double>(t[Span::kTm].total_ns) / kInner;
      own.push_back(inner_own);
      parent.push_back(
          (static_cast<double>(t[Span::kLink].self_ns()) - inner_own) /
          kInner);
    }
    std::sort(own.begin(), own.end());
    std::sort(parent.begin(), parent.end());
    return SpanCost{own[kBatches / 2], parent[kBatches / 2]};
  }();
  return cost;
}

void ObserverSink::on_event(const Event& ev) {
  ++events;
  switch (ev.kind) {
    case EventKind::kSendMsg:
      send_step_ = ev.step;
      break;
    case EventKind::kOk:
      ++oks;
      ok_latency_steps.push_back(ev.step - send_step_);
      break;
    case EventKind::kChannelSend:
      ++packets;
      wire_bytes += ev.value;
      break;
    case EventKind::kChannelIntern:
      ++interned;
      break;
    case EventKind::kStateSample:
      state_bits_max = std::max({state_bits_max, ev.value, ev.aux});
      break;
    default:
      break;
  }
}

Decision QueueRecordingAdversary::next(const AdversaryView& view) {
  const PacketLog logs[2] = {view.tr_packets(), view.rt_packets()};
  for (std::size_t c = 0; c < 2; ++c) {
    QueueLog::Channel& ch = log_->ch[c];
    for (std::size_t i = ch.sent_step.size(); i < logs[c].size(); ++i) {
      ch.sent_step.push_back(logs[c][i].sent_step);
      ch.first_delivery.push_back(0);
    }
  }
  log_->steps = view.step();
  const Decision d = inner_->next(view);
  const bool tr = d.kind == Decision::Kind::kDeliverTR;
  if (tr || d.kind == Decision::Kind::kDeliverRT) {
    QueueLog::Channel& ch = log_->ch[tr ? 0 : 1];
    if (d.pkt < ch.first_delivery.size() && ch.first_delivery[d.pkt] == 0) {
      ch.first_delivery[d.pkt] = view.step();
    }
  }
  return d;
}

QueueSummary summarize_queues(const std::vector<QueueLog>& logs) {
  QueueSummary out;
  std::vector<std::uint64_t> waits;
  std::size_t counted = 0;
  for (const QueueLog& log : logs) {
    const std::uint64_t steps = log.steps;
    if (steps < 2) continue;
    // Backlog per step via a difference array: +1 the step a packet is
    // sent, -1 the step it is first delivered.
    std::vector<std::int64_t> delta(steps + 2, 0);
    for (const QueueLog::Channel& ch : log.ch) {
      for (std::size_t i = 0; i < ch.sent_step.size(); ++i) {
        const std::uint64_t sent = ch.sent_step[i];
        const std::uint64_t done = ch.first_delivery[i];
        if (done == 0) continue;
        if (done - sent > kMaxQueueWait) {
          ++out.late;
          continue;
        }
        ++delta[std::min(sent, steps)];
        --delta[std::min(done, steps + 1)];
        waits.push_back(done - sent);
      }
    }
    std::int64_t backlog = 0;
    double sum_first = 0.0;
    double sum_second = 0.0;
    for (std::uint64_t s = 1; s <= steps; ++s) {
      backlog += delta[s];
      out.backlog_max =
          std::max(out.backlog_max, static_cast<std::uint64_t>(backlog));
      (s <= steps / 2 ? sum_first : sum_second) += static_cast<double>(backlog);
    }
    const double half = static_cast<double>(steps / 2);
    out.backlog_mean += (sum_first + sum_second) / static_cast<double>(steps);
    out.backlog_mean_first += sum_first / half;
    out.backlog_mean_second += sum_second / (static_cast<double>(steps) - half);
    ++counted;
  }
  if (counted > 0) {
    out.backlog_mean /= static_cast<double>(counted);
    out.backlog_mean_first /= static_cast<double>(counted);
    out.backlog_mean_second /= static_cast<double>(counted);
  }
  out.delivered = waits.size();
  if (!waits.empty()) {
    // Nearest rank: the ceil(0.99 n)-th smallest wait.
    const std::size_t rank = (waits.size() * 99 + 99) / 100;
    std::nth_element(waits.begin(), waits.begin() + (rank - 1), waits.end());
    out.wait_p99 = waits[rank - 1];
  }
  return out;
}

}  // namespace s2d::perfbench
