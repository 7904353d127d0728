// Dynamic bit vector backed by 64-bit words.
//
// This is the raw storage for every compressed structure in the library:
// the bit-packed CSR arrays, the TCSR frames and the codec outputs all
// bottom out in a BitVector.
//
// Two storage modes share one read path:
//   * owning (default) — the words live in a private heap vector, and the
//     vector is freely mutable/appendable;
//   * borrowed view (`BitVector::view`) — the words live in storage the
//     caller keeps alive (a memory-mapped file region); reads are
//     identical, mutation is refused. This is what lets the packed
//     CSR/TCSR query kernels run zero-copy over an mmap'd artifact.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace pcq::bits {

class BitVector {
 public:
  BitVector() = default;

  /// A vector of `nbits` zero bits.
  explicit BitVector(std::size_t nbits)
      : nbits_(nbits), words_((nbits + 63) / 64, 0) {
    sync();
  }

  // Owned storage may reallocate, so the borrowed-vs-owned data pointer
  // must be re-derived on copy/move instead of blindly copied.
  BitVector(const BitVector& other) { assign(other); }
  BitVector& operator=(const BitVector& other) {
    if (this != &other) assign(other);
    return *this;
  }
  BitVector(BitVector&& other) noexcept { assign_move(std::move(other)); }
  BitVector& operator=(BitVector&& other) noexcept {
    if (this != &other) assign_move(std::move(other));
    return *this;
  }
  ~BitVector() = default;

  /// Adopts a raw word buffer (deserialization); `words` must hold exactly
  /// ceil(nbits / 64) entries.
  static BitVector from_words(std::vector<std::uint64_t> words,
                              std::size_t nbits) {
    PCQ_CHECK(words.size() == (nbits + 63) / 64);
    BitVector bv;
    bv.nbits_ = nbits;
    bv.words_ = std::move(words);
    bv.sync();
    return bv;
  }

  /// Borrows `nbits` of already-packed storage the caller keeps alive
  /// (mapped file payloads). `words` must hold at least ceil(nbits / 64)
  /// entries; the view never mutates and never frees them. Copies of a
  /// view alias the same external words.
  static BitVector view(std::span<const std::uint64_t> words,
                        std::size_t nbits) {
    const std::size_t need = (nbits + 63) / 64;
    PCQ_CHECK_MSG(words.size() >= need,
                  "BitVector::view span shorter than nbits");
    BitVector bv;
    bv.nbits_ = nbits;
    bv.data_ = words.data();
    bv.num_words_ = need;
    bv.owns_ = false;
    return bv;
  }

  /// False for a borrowed view over caller-owned storage.
  [[nodiscard]] bool owns_storage() const { return owns_; }

  /// Number of bits.
  [[nodiscard]] std::size_t size() const { return nbits_; }
  [[nodiscard]] bool empty() const { return nbits_ == 0; }

  /// Payload bytes used (heap for owned storage, mapped bytes for views —
  /// what the size benchmarks report either way).
  [[nodiscard]] std::size_t size_bytes() const { return num_words_ * 8; }

  [[nodiscard]] bool get(std::size_t i) const {
    PCQ_DCHECK(i < nbits_);
    return (data_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool value) {
    PCQ_DCHECK(i < nbits_);
    PCQ_DCHECK_MSG(owns_, "cannot mutate a borrowed BitVector view");
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }

  /// Appends a single bit.
  void push_back(bool value) {
    PCQ_DCHECK_MSG(owns_, "cannot mutate a borrowed BitVector view");
    if ((nbits_ & 63) == 0) words_.push_back(0);
    if (value) words_[nbits_ >> 6] |= 1ULL << (nbits_ & 63);
    ++nbits_;
    sync();
  }

  /// Appends the low `width` bits of `value` (LSB-first layout).
  /// width must be in [0, 64]; width 0 appends nothing.
  void append_bits(std::uint64_t value, unsigned width);

  /// Reads `width` (<= 64) bits starting at bit offset `pos`, LSB-first.
  [[nodiscard]] std::uint64_t read_bits(std::size_t pos, unsigned width) const;

  /// Appends all of `other`'s bits to this vector (concatenating per-chunk
  /// bit streams of variable-width codes, as the WebGraph and k2-tree
  /// builders do).
  void append(const BitVector& other);

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const;

  [[nodiscard]] std::span<const std::uint64_t> words() const {
    return {data_, num_words_};
  }
  /// Mutable word access for the parallel packer (each processor stores
  /// whole words of its own window).
  /// Refused on borrowed views — mapped bytes are read-only.
  [[nodiscard]] std::span<std::uint64_t> mutable_words() {
    PCQ_CHECK_MSG(owns_, "cannot mutate a borrowed BitVector view");
    return words_;
  }

  friend bool operator==(const BitVector& a, const BitVector& b);

 private:
  /// Re-points data_ at the owned vector after any mutation that may have
  /// reallocated it.
  void sync() {
    data_ = words_.data();
    num_words_ = words_.size();
  }

  void assign(const BitVector& other) {
    nbits_ = other.nbits_;
    owns_ = other.owns_;
    if (other.owns_) {
      words_ = other.words_;
      sync();
    } else {
      words_.clear();
      data_ = other.data_;
      num_words_ = other.num_words_;
    }
  }

  void assign_move(BitVector&& other) noexcept {
    nbits_ = other.nbits_;
    owns_ = other.owns_;
    if (other.owns_) {
      words_ = std::move(other.words_);
      sync();
    } else {
      words_.clear();
      data_ = other.data_;
      num_words_ = other.num_words_;
    }
    other.nbits_ = 0;
    other.words_.clear();
    other.owns_ = true;
    other.sync();
  }

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;     ///< owned storage (empty for views)
  const std::uint64_t* data_ = nullptr;  ///< words_.data() or borrowed words
  std::size_t num_words_ = 0;
  bool owns_ = true;
};

/// Minimum width (>= 1) able to represent `max_value`.
inline unsigned bits_for(std::uint64_t max_value) {
  if (max_value == 0) return 1;
  return static_cast<unsigned>(64 - std::countl_zero(max_value));
}

}  // namespace pcq::bits
