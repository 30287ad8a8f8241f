#pragma once
// JStore: the chip-local j-particle memory as a structure of arrays.
//
// The chip pass streams whole j-ranges through flat inner loops, so the
// memory is kept column-wise rather than as an array of 104-byte
// StoredJParticle structs: one contiguous array per hardware field
// (fixed-point position words, predictor-format derivatives, mass, index,
// block time).
// This is the SoA particle-store pattern of CabanaMD's `System` (see
// SNIPPETS.md Snippets 1-2) applied to the GRAPE-6 broadcast j-memory.
//
// Two access planes:
//   * column spans (pos/vel/acc/jerk/snap/mass/index/t0) — the hot path;
//     contiguous, read-only views the batched predictor and force loops
//     iterate with unit stride.
//   * whole-word get/set plus to_aos/from_aos — the compatibility view
//     for everything that thinks in memory words: the fault subsystem's
//     bit-flip injection and scrubbing, the self-test vector swap, and
//     the host-side master copies. A word round-trips through get/set
//     bit-exactly.
//
// Layout changes here are invisible to results by construction: the
// pipeline consumes identical field values either way, and
// tests/grape/pipeline_crosscheck_test.cpp holds the chip pass over the
// columns bit-identical to the scalar reference over get(slot) words.

#include <cstdint>
#include <span>
#include <vector>

#include "hw/formats.hpp"
#include "util/check.hpp"

namespace g6 {

class JStore {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Drop all words but keep the column capacity (uploads reuse it).
  void clear() { resize(0); }

  /// Resize to exactly `n` slots; new slots are zero words.
  void resize(std::size_t n) {
    index_.resize(n);
    mass_.resize(n);
    t0_.resize(n);
    for (int d = 0; d < 3; ++d) {
      pos_[d].resize(n);
      vel_[d].resize(n);
      acc_[d].resize(n);
      jerk_[d].resize(n);
      snap_[d].resize(n);
    }
    size_ = n;
  }

  /// Pre-size the columns without changing size() (upload pre-sizing).
  void reserve(std::size_t n) {
    index_.reserve(n);
    mass_.reserve(n);
    t0_.reserve(n);
    for (int d = 0; d < 3; ++d) {
      pos_[d].reserve(n);
      vel_[d].reserve(n);
      acc_[d].reserve(n);
      jerk_[d].reserve(n);
      snap_[d].reserve(n);
    }
  }

  /// Grow to at least `n` slots (never shrinks).
  void ensure_size(std::size_t n) {
    if (size_ < n) resize(n);
  }

  /// Scatter one memory word into the columns.
  void set(std::size_t slot, const StoredJParticle& p) {
    G6_ASSERT(slot < size_);
    index_[slot] = p.index;
    mass_[slot] = p.mass;
    t0_[slot] = p.t0;
    for (int d = 0; d < 3; ++d) {
      pos_[d][slot] = p.pos[d];
      vel_[d][slot] = p.vel[d];
      acc_[d][slot] = p.acc[d];
      jerk_[d][slot] = p.jerk[d];
      snap_[d][slot] = p.snap[d];
    }
  }

  /// Gather one memory word from the columns (bit-exact round trip).
  StoredJParticle get(std::size_t slot) const {
    G6_ASSERT(slot < size_);
    StoredJParticle p;
    p.index = index_[slot];
    p.mass = mass_[slot];
    p.t0 = t0_[slot];
    for (int d = 0; d < 3; ++d) {
      p.pos[d] = pos_[d][slot];
      p.vel[d] = vel_[d][slot];
      p.acc[d] = acc_[d][slot];
      p.jerk[d] = jerk_[d][slot];
      p.snap[d] = snap_[d][slot];
    }
    return p;
  }

  // --- hot-path column views (contiguous, unit stride) -------------------
  std::span<const std::uint32_t> index() const { return index_; }
  std::span<const double> mass() const { return mass_; }
  std::span<const double> t0() const { return t0_; }
  std::span<const std::int64_t> pos(int d) const { return pos_[d]; }
  std::span<const double> vel(int d) const { return vel_[d]; }
  std::span<const double> acc(int d) const { return acc_[d]; }
  std::span<const double> jerk(int d) const { return jerk_[d]; }
  std::span<const double> snap(int d) const { return snap_[d]; }

  // --- compatibility plane (fault injection, scrub, self-test) -----------
  std::vector<StoredJParticle> to_aos() const {
    std::vector<StoredJParticle> v(size_);
    for (std::size_t s = 0; s < size_; ++s) v[s] = get(s);
    return v;
  }

  static JStore from_aos(std::span<const StoredJParticle> words) {
    JStore m;
    m.resize(words.size());
    for (std::size_t s = 0; s < words.size(); ++s) m.set(s, words[s]);
    return m;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint32_t> index_;
  std::vector<double> mass_;
  std::vector<double> t0_;
  std::vector<std::int64_t> pos_[3];
  std::vector<double> vel_[3];
  std::vector<double> acc_[3];
  std::vector<double> jerk_[3];
  std::vector<double> snap_[3];
};

}  // namespace g6
