#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace erms::util {

/// A vector-backed circular FIFO with power-of-two capacity. std::deque
/// allocates fixed-size chunks and walks a chunk map on every access; the
/// CEP engine's window rings push and pop once per event per query, so that
/// indirection (and the chunk churn at the window boundary) shows up in
/// profiles. This ring touches one flat array, and once grown to the window's
/// high-water mark it never allocates again.
template <typename T>
class RingBuffer {
 public:
  void push_back(const T& v) {
    if (count_ == buf_.size()) {
      grow(count_ + 1);
    }
    buf_[(head_ + count_) & (buf_.size() - 1)] = v;
    ++count_;
  }

  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] T& front() { return buf_[head_]; }

  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

  [[nodiscard]] const T& back() const { return (*this)[count_ - 1]; }
  void pop_back() { --count_; }

  /// i-th element counted from the front (0 = front()).
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

  /// Pre-size to at least `n` slots (rounded up to a power of two).
  void reserve(std::size_t n) {
    if (n > buf_.size()) {
      grow(n);
    }
  }

 private:
  void grow(std::size_t min_cap) {
    std::size_t cap = 16;
    while (cap < min_cap) {
      cap <<= 1;
    }
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;   // capacity, always a power of two (or empty)
  std::size_t head_{0};  // index of front()
  std::size_t count_{0};
};

}  // namespace erms::util
