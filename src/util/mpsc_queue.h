// Lock-free multi-producer single-consumer FIFO queue.
//
// This is the unbounded intrusive MPSC algorithm of Vyukov, in its
// non-intrusive (node-per-element) form: producers publish with ONE atomic
// exchange on the shared head plus one release store linking the previous
// head to the new node, and the single consumer pops from a privately owned
// tail with no atomic RMW at all. Producers never wait on each other or on
// the consumer — push() is lock-free and allocation aside runs in a handful
// of instructions — which is exactly the ingress profile the streaming
// admission service needs (many simulator / RPC threads feeding one
// pipeline thread; see orchestrator/streaming.h).
//
// Algorithm notes:
//   * The queue always holds one STUB node; an "empty" queue is the stub
//     alone. pop consumes `tail_->next`, then retires the old tail as the
//     new stub, so element values are moved out exactly once.
//   * Between a producer's exchange on head_ and its store to prev->next
//     the queue is MOMENTARILY UNLINKED: the consumer observes next ==
//     nullptr and reports empty even though the exchange already happened.
//     This window is a few instructions wide and resolves as soon as the
//     producer's store lands; consumers that must not miss work therefore
//     poll (pop_wait below) rather than treat one empty read as a fence.
//     FIFO order per producer is still guaranteed; elements from different
//     producers interleave in exchange order.
//
// Blocking consumption: pop_wait() parks the consumer on an eventcount-lite
// (a parked flag + mutex/condvar). The producer-side wakeup check is two
// relaxed/fenced atomics on the fast path (no lock unless a consumer is
// actually parked). Lost-wakeup windows are closed by a seq_cst barrier on
// both sides (park_fence: a fence normally, a TSan-modeled RMW under
// -fsanitize=thread) AND bounded by the timeout, so a missed notify costs
// one timeout period, never a hang. The barriers synchronize flag
// publication only — element publication rides the acquire/release pair on
// head_/next, which ThreadSanitizer models precisely.
//
// Thread safety: push() from any thread; try_pop()/pop_wait()
// from ONE consumer thread at a time; construction and destruction require
// external quiescence (no concurrent producers or consumer).
//
// Lock discipline: park_mutex_ guards nothing but the condvar sleep — all
// queue state is atomic. It is annotated anyway (util/thread_annotations.h)
// so the clang -Wthread-safety build proves pop_wait's park/unpark protocol.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/thread_annotations.h"

// ThreadSanitizer does not model std::atomic_thread_fence — gcc rejects it
// outright under -fsanitize=thread -Werror, and clang's TSan would miss the
// ordering it provides. Detect TSan here so the park/unpark protocol can
// substitute an equivalent it understands (see MpscQueue::park_fence).
#if defined(__SANITIZE_THREAD__)
#define MECRA_MPSC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MECRA_MPSC_TSAN 1
#endif
#endif
#ifndef MECRA_MPSC_TSAN
#define MECRA_MPSC_TSAN 0
#endif

namespace mecra::util {

/// Unbounded lock-free MPSC FIFO (see file comment for the full contract).
/// `T` must be default-constructible and movable.
template <typename T>
class MpscQueue {
 public:
  MpscQueue() {
    Node* stub = new Node();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  /// Requires quiescence: no concurrent push/pop during destruction.
  ~MpscQueue() {
    Node* node = tail_;
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Enqueues `value`. Safe from any thread; lock-free (one allocation,
  /// one atomic exchange, one release store). Wakes a parked consumer.
  void push(T value) {
    Node* node = new Node();
    node->value = std::move(value);
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
    // Pairs with the barrier in pop_wait(): either this load sees parked_
    // set (and notifies), or the consumer's post-park try_pop sees the
    // element. A race can at worst cost one pop_wait timeout.
    park_fence();
    if (parked_.load(std::memory_order_relaxed)) {
      LockGuard lock(park_mutex_);
      park_cv_.notify_one();
    }
  }

  /// Dequeues into `out` if an element is visible. Consumer thread only.
  /// May report empty during a producer's momentary unlink window (see
  /// file comment) — callers needing completion guarantees poll.
  bool try_pop(T& out) {
    Node* tail = tail_;
    Node* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return false;
    out = std::move(next->value);
    tail_ = next;  // `next` becomes the new stub (value moved out)
    delete tail;
    return true;
  }

  /// Blocking dequeue with a bounded wait. Consumer thread only. Returns
  /// true with an element in `out`, or false after ~`timeout` with the
  /// queue (apparently) empty. Callers loop: a false return is a timeout
  /// OR a spurious/raced wakeup, never a terminal condition.
  bool pop_wait(T& out, std::chrono::nanoseconds timeout) {
    if (try_pop(out)) return true;
    parked_.store(true, std::memory_order_relaxed);
    // Pairs with the barrier in push(); see there.
    park_fence();
    if (try_pop(out)) {
      parked_.store(false, std::memory_order_relaxed);
      return true;
    }
    {
      LockGuard lock(park_mutex_);
      (void)park_cv_.wait_for(park_mutex_, timeout);
    }
    parked_.store(false, std::memory_order_relaxed);
    return try_pop(out);
  }

 private:
  struct Node {
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  /// The Dekker barrier of the park/unpark protocol. Normally a seq_cst
  /// fence; under TSan a seq_cst RMW on a dedicated atomic — a full
  /// barrier on every supported architecture and one the sanitizer can
  /// model (it rejects/ignores bare fences). Either way a lost wakeup is
  /// additionally bounded by the pop_wait timeout, so this choice affects
  /// wakeup promptness, never correctness.
  void park_fence() noexcept {
#if MECRA_MPSC_TSAN
    (void)park_fence_word_.fetch_add(1, std::memory_order_seq_cst);
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }

  /// Producers exchange here; the previous head is linked to the new node.
  alignas(64) std::atomic<Node*> head_;
  /// Consumer-owned: current stub whose `next` is the front element.
  alignas(64) Node* tail_;

  /// Consumer-park protocol (see file comment).
  alignas(64) std::atomic<bool> parked_{false};
#if MECRA_MPSC_TSAN
  std::atomic<std::uint64_t> park_fence_word_{0};
#endif
  Mutex park_mutex_;
  CondVar park_cv_;
};

}  // namespace mecra::util
