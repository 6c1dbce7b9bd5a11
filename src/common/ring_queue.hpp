// Bounded-window FIFO on a power-of-two ring (common subsystem).
//
// The simulator's per-cycle queues — ROB, write buffer, replay queue,
// scrub FIFO, workload lookahead — are all small sliding windows with a
// configuration-bounded depth. std::deque spends its flexibility budget
// on paged storage (heap blocks, a map of pointers, non-contiguous
// iteration); this ring keeps the window in one contiguous power-of-two
// buffer: push/pop are an index mask away, iteration is cache-linear,
// and a reserve() sized from the bound (robSize, wbCapacity,
// kScrubFifoCapacity) means zero steady-state allocation. Capacity still
// grows by doubling if a caller outruns its reservation, so the
// semantics stay those of an unbounded deque.
//
// API surface: the std::deque subset the simulator uses — push_back /
// emplace_back, pop_front, front/back, operator[], clear, size/empty,
// random-access iterators (so reverse iteration and middle erase work),
// erase(iterator), and assign(first, last).
#pragma once

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace dvmc {

template <class T>
class RingQueue {
 public:
  template <bool Const>
  class Iter {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using reference = std::conditional_t<Const, const T&, T&>;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using Owner = std::conditional_t<Const, const RingQueue, RingQueue>;

    Iter() = default;
    Iter(Owner* q, std::size_t pos) : q_(q), pos_(pos) {}
    /// iterator -> const_iterator conversion.
    template <bool C = Const, class = std::enable_if_t<C>>
    Iter(const Iter<false>& o) : q_(o.q_), pos_(o.pos_) {}

    reference operator*() const { return (*q_)[pos_]; }
    pointer operator->() const { return &(*q_)[pos_]; }
    reference operator[](difference_type d) const {
      return (*q_)[pos_ + static_cast<std::size_t>(d)];
    }

    Iter& operator++() { ++pos_; return *this; }
    Iter operator++(int) { Iter t = *this; ++pos_; return t; }
    Iter& operator--() { --pos_; return *this; }
    Iter operator--(int) { Iter t = *this; --pos_; return t; }
    Iter& operator+=(difference_type d) {
      pos_ = static_cast<std::size_t>(static_cast<difference_type>(pos_) + d);
      return *this;
    }
    Iter& operator-=(difference_type d) { return *this += -d; }
    friend Iter operator+(Iter it, difference_type d) { return it += d; }
    friend Iter operator+(difference_type d, Iter it) { return it += d; }
    friend Iter operator-(Iter it, difference_type d) { return it -= d; }
    friend difference_type operator-(const Iter& a, const Iter& b) {
      return static_cast<difference_type>(a.pos_) -
             static_cast<difference_type>(b.pos_);
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.pos_ == b.pos_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) { return !(a == b); }
    friend bool operator<(const Iter& a, const Iter& b) {
      return a.pos_ < b.pos_;
    }
    friend bool operator>(const Iter& a, const Iter& b) { return b < a; }
    friend bool operator<=(const Iter& a, const Iter& b) { return !(b < a); }
    friend bool operator>=(const Iter& a, const Iter& b) { return !(a < b); }

   private:
    friend class RingQueue;
    template <bool>
    friend class Iter;
    Owner* q_ = nullptr;
    std::size_t pos_ = 0;  // logical index from the queue's front
  };

  using value_type = T;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;
  using reverse_iterator = std::reverse_iterator<iterator>;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  RingQueue() = default;
  explicit RingQueue(std::size_t capacity) { reserve(capacity); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return buf_.size(); }

  /// Grows the ring so `n` elements fit without reallocation.
  void reserve(std::size_t n) {
    if (n > buf_.size()) regrow(capacityFor(n));
  }

  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const { return buf_[(head_ + i) & mask()]; }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == buf_.size()) regrow(capacityFor(size_ + 1));
    T& slot = buf_[(head_ + size_) & mask()];
    slot = T(std::forward<Args>(args)...);
    ++size_;
    return slot;
  }

  void pop_front() {
    DVMC_ASSERT(size_ > 0, "pop_front on empty RingQueue");
    front() = T();  // drop held resources now, not at overwrite time
    head_ = (head_ + 1) & mask();
    --size_;
  }

  void pop_back() {
    DVMC_ASSERT(size_ > 0, "pop_back on empty RingQueue");
    back() = T();
    --size_;
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i] = T();
    head_ = 0;
    size_ = 0;
  }

  /// Removes the element at `it` by shifting the tail forward one slot
  /// (FIFO order preserved). O(distance to back); the queues using this
  /// are a handful of entries deep. Returns the iterator to the next
  /// element, deque-style.
  iterator erase(const_iterator it) {
    const std::size_t pos = it.pos_;
    DVMC_ASSERT(pos < size_, "erase past the end of RingQueue");
    for (std::size_t i = pos; i + 1 < size_; ++i) {
      (*this)[i] = std::move((*this)[i + 1]);
    }
    pop_back();
    return iterator(this, pos);
  }

  template <class It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }
  const_iterator cbegin() const { return begin(); }
  const_iterator cend() const { return end(); }
  reverse_iterator rbegin() { return reverse_iterator(end()); }
  reverse_iterator rend() { return reverse_iterator(begin()); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  std::size_t mask() const { return buf_.size() - 1; }

  static std::size_t capacityFor(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap < n) cap <<= 1;
    return cap;
  }

  void regrow(std::size_t newCap) {
    std::vector<T> next(newCap);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
  }

  // T() placement on pop keeps semantics simple (T is default-constructible
  // POD-ish simulator state everywhere this is used).
  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dvmc
