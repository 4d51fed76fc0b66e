#ifndef OIR_SYNC_GATE_H_
#define OIR_SYNC_GATE_H_

// A gate that many short operations pass through concurrently and that one
// closer drains: the index's point operations enter it, and the offline
// rebuild closes it, waits until every operation inside has left, and
// reopens it after its commit. Passing it costs no lock-manager request,
// which a shared table lock would cost every operation only so that the
// offline baseline could exclude them.
//
// Passing an open gate touches one of 16 cache-line-padded counters (each
// thread is bound to one) and reads the closed flag: no mutex. Enter
// increments its counter before reading the flag, Close sets the flag
// before summing the counters (all sequentially consistent), so either the
// entering operation sees the gate closed and backs out, or the closer
// sees its count and waits for it. The slow paths (waiting at a closed
// gate, waiting for the drain) use Mutex/CondVar.
//
// An operation must not wait for anything a closer may hold while it is
// inside: the index takes its transaction-duration row locks before it
// enters, so a closed gate never waits on an operation that waits on a
// row lock.

#include <atomic>
#include <cstdint>

#include "sync/mutex.h"

namespace oir {

class Gate {
 public:
  Gate() = default;
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  // Waits while the gate is closed, then passes.
  void Enter();
  void Exit();

  // Closes the gate (waiting out another closer first) and waits until
  // every operation that entered has exited.
  void Close();
  void Open();

 private:
  static constexpr int kStripes = 16;
  struct alignas(64) Stripe {
    std::atomic<int64_t> inside{0};
  };

  static int MyStripe();

  Stripe stripes_[kStripes];
  std::atomic<bool> closed_{false};
  Mutex mu_;
  CondVar cv_;  // gate reopened, or a count dropped while closed
};

// Passes the gate for one scope.
class GatePass {
 public:
  explicit GatePass(Gate& gate) : gate_(gate) { gate_.Enter(); }
  ~GatePass() { gate_.Exit(); }
  GatePass(const GatePass&) = delete;
  GatePass& operator=(const GatePass&) = delete;

 private:
  Gate& gate_;
};

// Holds the gate closed for one scope.
class GateClosed {
 public:
  explicit GateClosed(Gate& gate) : gate_(gate) { gate_.Close(); }
  ~GateClosed() { gate_.Open(); }
  GateClosed(const GateClosed&) = delete;
  GateClosed& operator=(const GateClosed&) = delete;

 private:
  Gate& gate_;
};

}  // namespace oir

#endif  // OIR_SYNC_GATE_H_
