#include "seams.hpp"

#include <algorithm>

#include "ledger.hpp"
#include "net/messages.hpp"

namespace perfbench {

// ---- TerminalLedger ----------------------------------------------------------

TerminalLedger::TerminalLedger(std::size_t n) : slots_(n) {}

void TerminalLedger::sent(std::uint64_t seq, double at) {
  std::lock_guard<std::mutex> lk(mu_);
  if (seq >= slots_.size()) {
    ++unknown_;
    return;
  }
  Slot& s = slots_[seq];
  ++s.sent;
  s.scheduled = at;
}

void TerminalLedger::terminal(const engine::Query& q, double time,
                              bool dropped) {
  std::lock_guard<std::mutex> lk(mu_);
  if (q.seq >= slots_.size()) {
    ++unknown_;
    return;
  }
  Slot& s = slots_[q.seq];
  if (s.terminals < 255) ++s.terminals;
  s.time = time;
  s.budget = q.deadline - q.arrival_time;
  s.dropped = dropped;
}

void TerminalLedger::decode_error() {
  std::lock_guard<std::mutex> lk(mu_);
  ++decode_errors_;
}

TerminalLedger::Summary TerminalLedger::summarize() const {
  std::lock_guard<std::mutex> lk(mu_);
  Summary out;
  out.unknown = unknown_;
  out.decode_errors = decode_errors_;
  out.latencies.reserve(slots_.size());
  for (const Slot& s : slots_) {
    if (s.sent == 0) {
      if (s.terminals > 0) ++out.unknown;
      continue;
    }
    ++out.sent;
    if (s.sent > 1) ++out.duplicated;
    if (s.terminals == 0) {
      ++out.lost;
      continue;
    }
    if (s.terminals > 1) ++out.duplicated;
    if (s.dropped) {
      ++out.dropped;
      continue;
    }
    ++out.completed;
    if (s.time <= s.scheduled + s.budget) ++out.on_time;
    out.latencies.push_back(s.time - s.scheduled);
  }
  return out;
}

// ---- TimedBackend ------------------------------------------------------------

TimedBackend::TimedBackend(engine::ExecutionBackend& inner, double time_scale,
                           bool tick_applies_plan)
    : inner_(inner),
      time_scale_(time_scale),
      tick_applies_plan_(tick_applies_plan) {}

engine::TimerHandle TimedBackend::defer(double delay_seconds,
                                        std::function<void()> fn) {
  Span span(SpanKind::kBackendCall);
  const double due = inner_.now() + std::max(delay_seconds, 0.0);
  return inner_.defer(delay_seconds, [this, due, fn = std::move(fn)] {
    if (time_scale_ > 0.0)
      Recorder::instance().sample(
          SampleKind::kTimerLateUs,
          (inner_.now() - due) / time_scale_ * 1e6);
    Span cb(SpanKind::kEngineCallback);
    fn();
  });
}

bool TimedBackend::cancel(engine::TimerHandle h) {
  Span span(SpanKind::kBackendCall);
  return inner_.cancel(h);
}

void TimedBackend::execute(int worker_id, double exec_seconds,
                           std::function<void()> done) {
  Span span(SpanKind::kBackendCall);
  const double due = inner_.now() + exec_seconds;
  inner_.execute(worker_id, exec_seconds,
                 [this, due, done = std::move(done)] {
                   if (time_scale_ > 0.0)
                     Recorder::instance().sample(
                         SampleKind::kExecLateUs,
                         (inner_.now() - due) / time_scale_ * 1e6);
                   Span cb(SpanKind::kEngineCallback);
                   done();
                 });
}

std::unique_lock<std::mutex> TimedBackend::guard() {
  // The DES guard is an empty lock: nothing to wait for, nothing to time.
  if (time_scale_ <= 0.0) return inner_.guard();
  Span span(SpanKind::kGuardWait);
  const std::int64_t t0 = now_ns();
  auto lock = inner_.guard();
  Recorder::instance().sample(SampleKind::kGuardWaitUs,
                              static_cast<double>(now_ns() - t0) / 1e3);
  return lock;
}

void TimedBackend::offload(std::function<void()> fn) {
  inner_.offload([this, fn = std::move(fn)] {
    run_control_tick(fn, tick_applies_plan_);
  });
}

// ---- control plane ----------------------------------------------------------

namespace {
// Wall stamp of the last allocator return on this thread; a tick and its
// solve always share a thread.
thread_local std::int64_t last_solve_return_ns = -1;
}  // namespace

void run_control_tick(const std::function<void()>& tick, bool applies_plan) {
  last_solve_return_ns = -1;
  {
    Span span(SpanKind::kControlTick);
    tick();
  }
  if (applies_plan && tracing() && last_solve_return_ns >= 0)
    Recorder::instance().sample(
        SampleKind::kApplyUs,
        static_cast<double>(now_ns() - last_solve_return_ns) / 1e3);
}

control::AllocationDecision TimedAllocator::allocate(
    const control::AllocationInput& input) {
  if (!tracing()) return inner_->allocate(input);
  control::AllocationDecision d;
  const std::int64_t t0 = now_ns();
  {
    Span span(SpanKind::kControlSolve);
    d = inner_->allocate(input);
  }
  last_solve_return_ns = now_ns();
  Recorder::instance().sample(
      SampleKind::kSolveUs,
      static_cast<double>(last_solve_return_ns - t0) / 1e3);
  return d;
}

// ---- TimedEndpoint -----------------------------------------------------------

namespace {
/// Encoded size of a frame on the wire, length prefix included.
std::size_t wire_bytes(const net::Frame& f) {
  return 4 + net::kBodyHeaderLen + f.topic.size() + f.payload.size();
}
}  // namespace

void FrameCapture::add(const net::Frame& f) {
  std::vector<net::Frame>* into = nullptr;
  if (f.topic == net::kTopicQuery) into = &queries;
  if (f.topic == net::kTopicTerminal) into = &terminals;
  if (into == nullptr) return;
  std::lock_guard<std::mutex> lk(mu);
  if (into->size() < kPerTopic) into->push_back(f);
}

TimedEndpoint::TimedEndpoint(std::unique_ptr<net::Endpoint> inner, Side side,
                             Direction& out, Direction& in,
                             FrameCapture* capture, TerminalLedger* ledger,
                             std::function<double()> clock_now)
    : inner_(std::move(inner)),
      side_(side),
      out_(out),
      in_(in),
      capture_(capture),
      ledger_(ledger),
      clock_now_(std::move(clock_now)) {}

void TimedEndpoint::send(const net::Frame& f) {
  if (!tracing()) {
    inner_->send(f);
    return;
  }
  Span span(SpanKind::kNetSend);
  std::int64_t t0 = 0, t1 = 0;
  {
    // Held across the send so stamps land in wire order.
    std::lock_guard<std::mutex> lk(out_.mu);
    t0 = now_ns();
    inner_->send(f);
    t1 = now_ns();
    out_.sent_ns.push_back(t0);
    ++out_.frames;
    out_.bytes += wire_bytes(f);
  }
  Recorder::instance().sample(SampleKind::kSendUs,
                              static_cast<double>(t1 - t0) / 1e3);
  if (capture_ != nullptr) capture_->add(f);
}

void TimedEndpoint::set_receiver(std::function<void(net::Frame)> receiver) {
  inner_->set_receiver([this, receiver = std::move(receiver)](net::Frame f) {
    const bool traced = tracing();
    // One reader thread per endpoint: recv_ns has a single writer.
    if (traced) in_.recv_ns.push_back(now_ns());
    if (ledger_ != nullptr && f.topic == net::kTopicTerminal) {
      net::TerminalMsg m;
      if (decode(f, &m))
        ledger_->terminal(m.query, clock_now_(), m.dropped);
      else
        ledger_->decode_error();
    }
    Span span(SpanKind::kNetReceive);
    if (traced && side_ == Side::kShard && f.topic == net::kTopicPlan) {
      const std::int64_t t0 = now_ns();
      {
        Span apply(SpanKind::kEngineApply);
        receiver(std::move(f));
      }
      Recorder::instance().sample(SampleKind::kApplyUs,
                                  static_cast<double>(now_ns() - t0) / 1e3);
      return;
    }
    if (side_ == Side::kShard && f.topic == net::kTopicQuery) {
      Span submit(SpanKind::kEngineSubmit);
      receiver(std::move(f));
      return;
    }
    receiver(std::move(f));
  });
}

}  // namespace perfbench
