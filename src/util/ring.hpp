// ring.hpp — power-of-two ring queue for steady-state zero-allocation paths.
//
// A RingQueue grows geometrically like std::deque but, once warm, push/pop
// never touch the allocator: the fast cell path (link pending queues, switch
// class queues) reuses the same storage forever.  Elements must be movable; FIFO order is preserved across growth.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace xunet::util {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;

  RingQueue(RingQueue&&) noexcept = default;
  RingQueue& operator=(RingQueue&&) noexcept = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  void push_back(T v) {
    if (size_ == cap_) grow_to(cap_ ? cap_ * 2 : 8);
    buf_[(head_ + size_) & (cap_ - 1)] = std::move(v);
    ++size_;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow_to(cap_ ? cap_ * 2 : 8);
    T& slot = buf_[(head_ + size_) & (cap_ - 1)];
    slot = T(std::forward<Args>(args)...);
    ++size_;
    return slot;
  }

  /// Put `v` ahead of the current front (a recalled element goes back
  /// where it came from).
  void push_front(T v) {
    if (size_ == cap_) grow_to(cap_ ? cap_ * 2 : 8);
    head_ = (head_ + cap_ - 1) & (cap_ - 1);
    buf_[head_] = std::move(v);
    ++size_;
  }

  /// Claim the next back slot for in-place writes.  The slot holds a stale
  /// previous value; the caller must overwrite every field it reads later.
  [[nodiscard]] T& push_slot() {
    if (size_ == cap_) grow_to(cap_ ? cap_ * 2 : 8);
    ++size_;
    return buf_[(head_ + size_ - 1) & (cap_ - 1)];
  }

  [[nodiscard]] T& front() noexcept {
    assert(size_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const noexcept {
    assert(size_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] T& back() noexcept {
    assert(size_ > 0);
    return buf_[(head_ + size_ - 1) & (cap_ - 1)];
  }

  /// Indexed access in FIFO order (0 == front).
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }

  void pop_front() {
    assert(size_ > 0);
    scrub(buf_[head_]);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  void pop_back() {
    assert(size_ > 0);
    scrub(buf_[(head_ + size_ - 1) & (cap_ - 1)]);
    --size_;
  }

  void clear() {
    while (size_ > 0) pop_front();
  }

 private:
  /// Release owned resources of a vacated slot promptly; free for PODs.
  static void scrub(T& slot) {
    if constexpr (!std::is_trivially_destructible_v<T>) slot = T{};
  }

  void grow_to(std::size_t new_cap) {
    auto fresh = std::make_unique<T[]>(new_cap);
    for (std::size_t i = 0; i < size_; ++i) fresh[i] = std::move(buf_[(head_ + i) & (cap_ - 1)]);
    buf_ = std::move(fresh);
    cap_ = new_cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace xunet::util
