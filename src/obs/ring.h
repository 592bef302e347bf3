#ifndef CAPPLAN_OBS_RING_H_
#define CAPPLAN_OBS_RING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace capplan::obs {

// The one monotonic clock (nanoseconds) every obs record is stamped with,
// so trace spans and wide events share a timeline.
std::uint64_t NowNs();

// Injects a deterministic clock for tests; nullptr restores steady_clock.
using ClockFn = std::uint64_t (*)();
void SetClockForTest(ClockFn fn);

// Small per-thread id (1-based, stable for the thread's life). Spans and
// wide events from one thread carry the same id, so a /v1/debug/events
// record joins the Chrome trace's row for its thread.
std::uint32_t ThisThreadId();

// Bounded per-thread ring recorder — the storage under both obs::Tracer
// (spans) and obs::EventLog (wide events). Each recording thread writes its
// own ring behind an uncontended mutex; a full ring overwrites its oldest
// record and counts the drop. Readers merge every ring into one timeline
// sorted by `T::start_ns`.
//
// Rings are created lazily on a thread's first Record, at the capacity set
// by the latest Enable, so idle threads cost nothing. The thread_local
// handle keeps a ring alive while its thread runs; the registry copy keeps
// its records reachable after the thread exits (selector ThreadPools are
// short-lived) until the next Drain reclaims it.
template <typename T>
class RingRecorder {
 public:
  explicit RingRecorder(std::size_t default_capacity)
      : default_capacity_(default_capacity), capacity_(default_capacity) {}

  RingRecorder(const RingRecorder&) = delete;
  RingRecorder& operator=(const RingRecorder&) = delete;

  // Starts recording; `capacity_per_thread` caps rings created from now on.
  void Enable() { Enable(default_capacity_); }
  void Enable(std::size_t capacity_per_thread) {
    capacity_.store(std::max<std::size_t>(capacity_per_thread, 1),
                    std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_release);
  }
  // Stops recording. Buffered records stay until Drain()/Clear().
  void Disable() { enabled_.store(false, std::memory_order_release); }
  // The whole disabled-path cost: one relaxed load (and the caller's branch).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Appends to the calling thread's ring, overwriting its oldest record
  // when full. Does not check enabled(): callers gate before building `T`.
  void Record(const T& record) {
    Ring& ring = ThisThreadRing();
    std::lock_guard<std::mutex> lock(ring.mu);
    if (ring.records.size() < ring.capacity) {
      ring.records.push_back(record);
      return;
    }
    ring.records[ring.next] = record;
    ring.next = (ring.next + 1) % ring.capacity;
    ++ring.dropped;
    total_dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  // Merged copy of every ring, oldest first, rings left intact. Safe while
  // other threads keep recording.
  std::vector<T> Snapshot() const {
    return Collect(Rings(), /*clear=*/false);
  }

  // Collects and clears every ring, oldest first, and forgets the rings of
  // threads that have exited.
  std::vector<T> Drain() {
    std::vector<std::shared_ptr<Ring>> rings;
    {
      std::lock_guard<std::mutex> lock(rings_mu_);
      rings = rings_;
      std::erase_if(rings_, [](const std::shared_ptr<Ring>& r) {
        return r.use_count() <= 2;  // `rings_` copy + local `rings` copy
      });
    }
    return Collect(rings, /*clear=*/true);
  }
  void Clear() { (void)Drain(); }

  // Records overwritten because a ring was full: since the last Drain, and
  // cumulatively since process start (the `_dropped_total` metric source).
  std::uint64_t dropped() const {
    std::uint64_t total = 0;
    for (const auto& ring : Rings()) {
      std::lock_guard<std::mutex> lock(ring->mu);
      total += ring->dropped;
    }
    return total;
  }
  std::uint64_t total_dropped() const {
    return total_dropped_.load(std::memory_order_relaxed);
  }

  // Live rings, including those of exited threads not yet drained.
  std::size_t ring_count() const {
    std::lock_guard<std::mutex> lock(rings_mu_);
    return rings_.size();
  }

 private:
  struct Ring {
    explicit Ring(std::size_t cap) : capacity(cap) {}
    std::mutex mu;
    std::vector<T> records;  // circular once size() == capacity
    std::size_t capacity;
    std::size_t next = 0;  // overwrite cursor once full
    std::uint64_t dropped = 0;
  };
  using RingList = std::vector<std::shared_ptr<Ring>>;

  RingList Rings() const {
    std::lock_guard<std::mutex> lock(rings_mu_);
    return rings_;
  }

  Ring& ThisThreadRing() {
    // One slot per recorder this thread has written to, keyed by a
    // process-unique recorder id (not `this`, which a later recorder could
    // reuse). Production has one recorder per record type, so the scan is
    // a single compare.
    thread_local std::vector<std::pair<std::uint64_t, std::shared_ptr<Ring>>>
        mine;
    for (const auto& [owner, ring] : mine) {
      if (owner == id_) return *ring;
    }
    auto ring =
        std::make_shared<Ring>(capacity_.load(std::memory_order_relaxed));
    {
      std::lock_guard<std::mutex> lock(rings_mu_);
      rings_.push_back(ring);
    }
    mine.emplace_back(id_, ring);
    return *ring;
  }

  static std::vector<T> Collect(const RingList& rings, bool clear) {
    std::vector<T> out;
    for (const auto& ring : rings) {
      std::lock_guard<std::mutex> lock(ring->mu);
      // Oldest-first: the tail [next, end) precedes [0, next) once wrapped.
      out.insert(out.end(), ring->records.begin() + ring->next,
                 ring->records.end());
      out.insert(out.end(), ring->records.begin(),
                 ring->records.begin() + ring->next);
      if (clear) {
        ring->records.clear();
        ring->next = 0;
        ring->dropped = 0;
      }
    }
    std::stable_sort(out.begin(), out.end(), [](const T& a, const T& b) {
      return a.start_ns < b.start_ns;
    });
    return out;
  }

  static inline std::atomic<std::uint64_t> next_recorder_id_{0};

  const std::uint64_t id_ =
      next_recorder_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t default_capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> capacity_;
  std::atomic<std::uint64_t> total_dropped_{0};
  mutable std::mutex rings_mu_;
  RingList rings_;
};

}  // namespace capplan::obs

#endif  // CAPPLAN_OBS_RING_H_
