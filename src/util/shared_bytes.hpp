// Immutable, reference-counted byte buffers and slices of them.
//
// A received Ethernet frame is decoded layer by layer: the Totem frame's
// payload is a byte range of the frame, the Eternal envelope's payload a
// range of that, and the IIOP message handed to the ORB is the envelope's
// payload. A SharedBytes is one such range together with a reference on the
// buffer that holds it, so each layer passes the bytes up without copying
// them. The buffer is freed when its last slice goes away.
//
// The contents are immutable: nothing can write through a SharedBytes, so
// every holder of a slice sees the same bytes for as long as it keeps it.
// The reference count is not atomic; like the simulator, a buffer and all
// its slices belong to one thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "util/bytes.hpp"

namespace eternal::util {

class SharedBytes {
 public:
  SharedBytes() noexcept = default;

  /// Takes ownership of `bytes` without copying the contents (implicit: a
  /// move-in is as cheap as the Bytes it replaces). An empty buffer
  /// allocates nothing.
  SharedBytes(Bytes&& bytes) {
    if (bytes.empty()) return;
    block_ = new Block{1, std::move(bytes)};
    data_ = block_->bytes.data();
    size_ = block_->bytes.size();
  }

  /// A buffer holding a copy of `data`.
  static SharedBytes copy_of(BytesView data) {
    SharedBytes out;
    if (data.empty()) return out;
    out.block_ = new Block{1, Bytes(data.begin(), data.end())};
    out.data_ = out.block_->bytes.data();
    out.size_ = data.size();
    return out;
  }

  SharedBytes(const SharedBytes& other) noexcept
      : block_(other.block_), data_(other.data_), size_(other.size_) {
    if (block_ != nullptr) ++block_->refs;
  }
  SharedBytes(SharedBytes&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  SharedBytes& operator=(const SharedBytes& other) noexcept {
    SharedBytes(other).swap(*this);
    return *this;
  }
  SharedBytes& operator=(SharedBytes&& other) noexcept {
    SharedBytes(std::move(other)).swap(*this);
    return *this;
  }
  ~SharedBytes() {
    if (block_ != nullptr && --block_->refs == 0) delete block_;
  }

  void swap(SharedBytes& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const std::uint8_t* begin() const noexcept { return data_; }
  const std::uint8_t* end() const noexcept { return data_ + size_; }
  std::uint8_t operator[](std::size_t i) const noexcept { return data_[i]; }

  BytesView view() const noexcept { return BytesView(data_, size_); }
  operator BytesView() const noexcept { return view(); }

  /// `length` bytes from `offset`, sharing this buffer. An empty slice
  /// holds no reference, so it never keeps a buffer alive.
  SharedBytes slice(std::size_t offset, std::size_t length) const {
    if (offset > size_ || length > size_ - offset) {
      throw std::out_of_range("SharedBytes::slice past the end");
    }
    if (length == 0) return SharedBytes();
    return SharedBytes(block_, data_ + offset, length);
  }

  /// The slice of this buffer that `part` views; `part` must lie inside it.
  SharedBytes slice(BytesView part) const {
    if (part.empty()) return SharedBytes();
    return slice(static_cast<std::size_t>(part.data() - data_), part.size());
  }

  /// An owning copy of the contents.
  Bytes to_bytes() const { return Bytes(begin(), end()); }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const SharedBytes& a, const Bytes& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  struct Block {
    std::size_t refs;
    Bytes bytes;
  };

  SharedBytes(Block* block, const std::uint8_t* data, std::size_t size) noexcept
      : block_(block), data_(data), size_(size) {
    ++block_->refs;
  }

  Block* block_ = nullptr;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace eternal::util
