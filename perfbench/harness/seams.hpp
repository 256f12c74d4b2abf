// Wrappers around the library's public seams. Each one forwards to the
// real implementation and, while tracing is on, records spans and samples
// around the call — so every layer is measured from the outside and
// nothing in src/ changes.
//
//   TimedBackend   engine::ExecutionBackend (DES or threaded): callback
//                  spans, backend-call spans, guard wait, timer and
//                  execution lateness.
//   TimedAllocator control::Allocator: solve spans and solve times.
//   TimedEndpoint  net::Endpoint: send time, frames and bytes, per-frame
//                  send/receive stamps for hop times, captured frames for
//                  codec replay, and (frontend side) terminal tracking.
//   TerminalLedger every query's scheduled arrival and terminal outcome,
//                  keyed by seq: lost and duplicated terminals, latency
//                  from the scheduled arrival, on-time completions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "control/allocator.hpp"
#include "engine/backend.hpp"
#include "engine/query.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"

namespace perfbench {

using namespace diffserve;

class TerminalLedger {
 public:
  /// Sized for `n` queries with seq 0..n-1.
  explicit TerminalLedger(std::size_t n);

  /// The generator admitted query `seq`, scheduled at trace time `at`.
  void sent(std::uint64_t seq, double at);
  /// A terminal outcome for `q` at trace time `time` (thread-safe).
  void terminal(const engine::Query& q, double time, bool dropped);
  /// A frame that should have carried a terminal failed to decode.
  void decode_error();

  struct Summary {
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t lost = 0;        ///< sent, no terminal
    std::uint64_t duplicated = 0;  ///< more than one terminal
    std::uint64_t unknown = 0;     ///< terminal for a seq never sent
    std::uint64_t decode_errors = 0;
    std::uint64_t on_time = 0;  ///< completed by the scheduled deadline
    std::vector<double> latencies;  ///< completed, from scheduled arrival
    std::uint64_t failed() const {
      return lost + duplicated + unknown + decode_errors;
    }
  };
  Summary summarize() const;

 private:
  struct Slot {
    double scheduled = 0.0;
    double time = 0.0;
    double budget = 0.0;  ///< deadline - arrival_time of the query
    std::uint8_t sent = 0;
    std::uint8_t terminals = 0;
    bool dropped = false;
  };
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::uint64_t unknown_ = 0;
  std::uint64_t decode_errors_ = 0;
};

class TimedBackend final : public engine::ExecutionBackend {
 public:
  /// `time_scale` > 0 marks a wall-clock backend (trace seconds per wall
  /// second): lateness and guard waits are sampled. 0 for the DES.
  /// `tick_applies_plan`: the controller ticks offloaded here apply their
  /// plan to the engine in-line (control::Controller, not the cluster's).
  TimedBackend(engine::ExecutionBackend& inner, double time_scale,
               bool tick_applies_plan);

  double now() const override { return inner_.now(); }
  engine::TimerHandle defer(double delay_seconds,
                            std::function<void()> fn) override;
  bool cancel(engine::TimerHandle h) override;
  void execute(int worker_id, double exec_seconds,
               std::function<void()> done) override;
  std::unique_lock<std::mutex> guard() override;
  void offload(std::function<void()> fn) override;

 private:
  engine::ExecutionBackend& inner_;
  double time_scale_;
  bool tick_applies_plan_;
};

/// Runs one controller tick under a control.tick span. With
/// `applies_plan`, the wall time from the allocator's return to the tick's
/// end — plan conversion, CascadeEngine::apply, history append — is
/// sampled as the plan application time.
void run_control_tick(const std::function<void()>& tick, bool applies_plan);

class TimedAllocator final : public control::Allocator {
 public:
  explicit TimedAllocator(std::unique_ptr<control::Allocator> inner)
      : inner_(std::move(inner)) {}
  control::AllocationDecision allocate(
      const control::AllocationInput& input) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<control::Allocator> inner_;
};

/// Per-direction wire statistics of one link.
struct Direction {
  std::mutex mu;
  std::vector<std::int64_t> sent_ns;  ///< send start, in wire order
  std::vector<std::int64_t> recv_ns;  ///< receiver entry, in wire order
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

/// Frames kept per topic for codec replay.
struct FrameCapture {
  static constexpr std::size_t kPerTopic = 16384;
  std::mutex mu;
  std::vector<net::Frame> queries, terminals;
  void add(const net::Frame& f);
};

class TimedEndpoint final : public net::Endpoint {
 public:
  enum class Side { kFrontend, kShard };
  /// `out` collects this end's sends and `in` its receives. `ledger`
  /// (frontend side only) sees every terminal frame; `clock_now` stamps
  /// its receipt in trace seconds.
  TimedEndpoint(std::unique_ptr<net::Endpoint> inner, Side side,
                Direction& out, Direction& in, FrameCapture* capture,
                TerminalLedger* ledger, std::function<double()> clock_now);

  void send(const net::Frame& f) override;
  void set_receiver(std::function<void(net::Frame)> receiver) override;
  void start() override { inner_->start(); }
  void stop() override { inner_->stop(); }

 private:
  std::unique_ptr<net::Endpoint> inner_;
  Side side_;
  Direction& out_;
  Direction& in_;
  FrameCapture* capture_;
  TerminalLedger* ledger_;
  std::function<double()> clock_now_;
};

}  // namespace perfbench
