#include "sync/gate.h"

#include "obs/waitstate.h"

namespace oir {

int Gate::MyStripe() {
  static std::atomic<int> next{0};
  thread_local const int stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

void Gate::Enter() {
  std::atomic<int64_t>& inside = stripes_[MyStripe()].inside;
  for (;;) {
    inside.fetch_add(1);
    if (!closed_.load()) return;
    // Closed: back out, and wait for the gate to reopen. The wait is
    // attributed as a lock wait.
    inside.fetch_sub(1);
    obs::WaitScope ws(obs::WaitState::kLockWait);
    MutexLock l(mu_);
    cv_.NotifyAll();  // the closer may be waiting for this count
    while (closed_.load(std::memory_order_relaxed)) cv_.Wait(mu_);
  }
}

void Gate::Exit() {
  stripes_[MyStripe()].inside.fetch_sub(1);
  if (closed_.load()) {
    MutexLock l(mu_);
    cv_.NotifyAll();
  }
}

void Gate::Close() {
  obs::WaitScope ws(obs::WaitState::kLockWait);
  MutexLock l(mu_);
  while (closed_.load(std::memory_order_relaxed)) cv_.Wait(mu_);
  closed_.store(true);
  for (;;) {
    int64_t inside = 0;
    for (const Stripe& s : stripes_) inside += s.inside.load();
    if (inside == 0) return;
    cv_.Wait(mu_);
  }
}

void Gate::Open() {
  MutexLock l(mu_);
  closed_.store(false);
  cv_.NotifyAll();
}

}  // namespace oir
