// Chip-pass crosscheck: Chip::run_pass (predict_batch + interact_batch
// over the JStore columns) must be BIT-IDENTICAL to the scalar reference
// written out below — PredictorUnit::predict() per stored slot, then
// ForcePipeline::interact() per i-slot, in ascending slot order — on every
// observable hardware word: accumulator mantissas, block exponents,
// overflow flags, neighbor FIFO contents and order, and the nearest-
// neighbor register. Pinned for every number-format preset, with and
// without neighbor collection, on an engine-realistic Plummer state, with
// a fault injector attached, and at any thread count. This is the contract
// that lets the column-wise pass stand in for the operation-by-operation
// emulator without invalidating a single recorded snapshot.
//
// Also verifies the FloatFormat::quantize fast bit-manipulation path
// against quantize_ref(), its independently-derived libm oracle, over
// structured and random bit patterns (the doc comment in util/softfloat.hpp
// points here).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "exec/thread_pool.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "grape/chip.hpp"
#include "grape/engine.hpp"
#include "hermite/direct_engine.hpp"
#include "hermite/integrator.hpp"
#include "hermite/scheme.hpp"
#include "nbody/models.hpp"
#include "util/rng.hpp"

namespace g6 {
namespace {

std::vector<JParticle> random_js(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JParticle> js(n);
  for (auto& p : js) {
    p.mass = 1.0 / static_cast<double>(n);
    p.pos = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    p.vel = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
    p.acc = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
    p.jerk = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
    p.snap = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
  }
  return js;
}

void load(Chip& chip, const std::vector<JParticle>& js, const NumberFormats& fmt) {
  chip.reserve_slots(js.size());
  for (std::size_t i = 0; i < js.size(); ++i) {
    chip.write(i, quantize_j_particle(js[i], static_cast<std::uint32_t>(i), fmt));
  }
}

/// The first min(48, n) j's as i-particles (the self-interaction cut
/// exercises the index compare).
std::vector<IParticlePacket> leading_iblock(const std::vector<JParticle>& js,
                                            const NumberFormats& fmt,
                                            double h2) {
  std::vector<IParticlePacket> iblock;
  for (std::size_t i = 0; i < MachineConfig{}.i_parallelism() && i < js.size(); ++i) {
    PredictedState s;
    s.index = static_cast<std::uint32_t>(i);
    s.pos = js[i].pos;
    s.vel = js[i].vel;
    iblock.push_back(quantize_i_particle(s, fmt));
    iblock.back().h2 = h2;
  }
  return iblock;
}

struct PassResult {
  std::vector<HwAccumulators> acc;
  std::vector<HwNeighborRecorder> nb;
};

/// Reset result banks for `n` i-slots; `fifo_depth` 0 means no neighbors.
PassResult fresh(std::size_t n, const BlockExponents& exps,
                 std::size_t fifo_depth) {
  PassResult r;
  r.acc.resize(n);
  for (auto& a : r.acc) a.reset(exps);
  if (fifo_depth > 0) {
    r.nb.resize(n);
    for (auto& nb : r.nb) nb.reset(fifo_depth);
  }
  return r;
}

/// The scalar reference: predict() each stored word, then interact() it
/// with every i-slot, ascending slot order.
void reference_pass(const Chip& chip, const NumberFormats& fmt, double t,
                    std::span<const IParticlePacket> iblock, double eps2,
                    PassResult& r) {
  const PredictorUnit predictor(fmt);
  const ForcePipeline pipeline(fmt);
  for (std::size_t slot = 0; slot < chip.j_count(); ++slot) {
    const PredictorUnit::Predicted pj = predictor.predict(chip.stored(slot), t);
    for (std::size_t k = 0; k < iblock.size(); ++k) {
      pipeline.interact(pj, iblock[k], eps2, r.acc[k],
                        r.nb.empty() ? nullptr : &r.nb[k]);
    }
  }
}

void chip_pass(Chip& chip, double t, std::span<const IParticlePacket> iblock,
               double eps2, PassResult& r) {
  chip.run_pass(t, iblock, eps2, r.acc,
                r.nb.empty() ? std::span<HwNeighborRecorder>{}
                             : std::span<HwNeighborRecorder>(r.nb));
}

void expect_bit_identical(const PassResult& a, const PassResult& b) {
  ASSERT_EQ(a.acc.size(), b.acc.size());
  for (std::size_t k = 0; k < a.acc.size(); ++k) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(a.acc[k].acc[d].mantissa(), b.acc[k].acc[d].mantissa())
          << "acc i=" << k << " d=" << d;
      EXPECT_EQ(a.acc[k].jerk[d].mantissa(), b.acc[k].jerk[d].mantissa())
          << "jerk i=" << k << " d=" << d;
      EXPECT_EQ(a.acc[k].acc[d].block_exp(), b.acc[k].acc[d].block_exp()) << k;
      EXPECT_EQ(a.acc[k].jerk[d].block_exp(), b.acc[k].jerk[d].block_exp()) << k;
    }
    EXPECT_EQ(a.acc[k].pot.mantissa(), b.acc[k].pot.mantissa()) << k;
    EXPECT_EQ(a.acc[k].pot.block_exp(), b.acc[k].pot.block_exp()) << k;
    EXPECT_EQ(a.acc[k].overflow(), b.acc[k].overflow()) << k;
  }
  ASSERT_EQ(a.nb.size(), b.nb.size());
  for (std::size_t k = 0; k < a.nb.size(); ++k) {
    EXPECT_EQ(a.nb[k].indices, b.nb[k].indices) << k;  // contents AND order
    EXPECT_EQ(a.nb[k].overflow, b.nb[k].overflow) << k;
    EXPECT_EQ(a.nb[k].has_nearest, b.nb[k].has_nearest) << k;
    if (a.nb[k].has_nearest && b.nb[k].has_nearest) {
      EXPECT_EQ(a.nb[k].nearest, b.nb[k].nearest) << k;
      EXPECT_EQ(a.nb[k].nearest_r2, b.nb[k].nearest_r2) << k;
    }
  }
}

TEST(PipelineCrosscheck, BitIdenticalAcrossFormatsEpsAndNeighbors) {
  const auto js = random_js(96, 0x5eed);
  const NumberFormats presets[] = {
      NumberFormats{},            // hardware formats
      NumberFormats::exact(),     // wide path (per-op rounding skipped)
      [] {                        // narrow custom format
        NumberFormats f;
        f.pipeline = FloatFormat(16, -62, 63);
        f.velocity = FloatFormat(16, -62, 63);
        f.predictor = FloatFormat(12, -62, 63);
        return f;
      }(),
  };
  Rng rng(0xe952);
  for (const auto& fmt : presets) {
    Chip chip(MachineConfig{}, fmt);
    load(chip, js, fmt);
    for (bool want_nb : {false, true}) {
      const double eps2 = std::pow(10.0, rng.uniform(-6, -2));
      const auto iblock = leading_iblock(js, fmt, want_nb ? 0.5 : 0.0);
      // A tiny FIFO forces overflow-flag coverage.
      const std::size_t depth = want_nb ? 8 : 0;
      PassResult ref = fresh(iblock.size(), {4, 8, 4}, depth);
      PassResult got = fresh(iblock.size(), {4, 8, 4}, depth);
      reference_pass(chip, fmt, 0.125, iblock, eps2, ref);
      chip_pass(chip, 0.125, iblock, eps2, got);
      expect_bit_identical(ref, got);
    }
  }
}

TEST(PipelineCrosscheck, PlummerStateMatchesReference) {
  // Engine-realistic inputs: a Plummer sphere integrated for a few
  // blocksteps, so the j-memory carries real acc/jerk/snap and mixed t0,
  // predicted at several times; i-particles are host-predicted members.
  constexpr std::size_t kN = 1024;
  constexpr double kEps = 1.0 / 64.0;
  Rng rng(0x91u);
  const ParticleSet ic = make_plummer(kN, rng);
  DirectForceEngine direct(kEps, 1);
  HermiteIntegrator integ(ic, direct);
  integ.evolve(1.0 / 32.0);
  const std::vector<JParticle> js = integ.save_state().particles;
  std::size_t with_snap = 0;
  std::size_t behind = 0;
  for (const auto& p : js) {
    with_snap += norm2(p.snap) > 0.0 ? 1 : 0;
    behind += p.t0 < integ.time() ? 1 : 0;
  }
  ASSERT_GT(with_snap, kN / 2);
  ASSERT_GT(behind, 0u);

  const NumberFormats fmt;
  const MachineConfig mc;
  Chip chip(mc, fmt);
  load(chip, js, fmt);

  std::size_t fifo_overflows = 0;
  std::size_t fifo_fits = 0;
  std::size_t acc_overflows = 0;
  for (const double dt : {0.0, 1.0 / 1024.0, 1.0 / 128.0, 1.0 / 32.0}) {
    const double t = integ.time() + dt;
    std::vector<IParticlePacket> iblock;
    for (std::size_t k = 0; k < mc.i_parallelism(); ++k) {
      const std::size_t i = k * 21;  // spread over the whole set
      PredictedState s;
      s.index = static_cast<std::uint32_t>(i);
      hermite_predict_cubic(js[i], t, s.pos, s.vel);
      iblock.push_back(quantize_i_particle(s, fmt));
      // Radii up to 0.8: slots near the core overflow the 256-deep FIFO.
      iblock.back().h2 = 0.08 * static_cast<double>(1 + k % 8);
    }
    // The engine's starting exponents, then tight ones that overflow.
    for (const BlockExponents& exps :
         {BlockExponents{}, BlockExponents{-6, -5, -6}}) {
      PassResult ref = fresh(iblock.size(), exps, mc.neighbor_buffer_per_chip);
      PassResult got = fresh(iblock.size(), exps, mc.neighbor_buffer_per_chip);
      reference_pass(chip, fmt, t, iblock, kEps * kEps, ref);
      chip_pass(chip, t, iblock, kEps * kEps, got);
      expect_bit_identical(ref, got);
      for (std::size_t k = 0; k < ref.acc.size(); ++k) {
        acc_overflows += ref.acc[k].overflow() ? 1 : 0;
        fifo_overflows += ref.nb[k].overflow ? 1 : 0;
        fifo_fits += !ref.nb[k].overflow && !ref.nb[k].indices.empty() ? 1 : 0;
      }
    }
  }
  // The case must reach both sides of every flag it pins.
  EXPECT_GT(fifo_overflows, 0u);
  EXPECT_GT(fifo_fits, 0u);
  EXPECT_GT(acc_overflows, 0u);
}

TEST(PipelineCrosscheck, FaultedPassMatchesReferencePlusInjector) {
  // Two identically seeded injectors: one rides the chip's pass, the other
  // is applied to the reference bank after the reference loop. Output
  // faults land once, after accumulation, from the same RNG stream.
  const auto js = random_js(96, 7);
  const NumberFormats fmt;
  fault::FaultPlan plan;
  plan.seed = 0x6701;
  plan.compute_rate = 0.5;
  plan.stuck_chips = {1};
  fault::FaultInjector inj_chip(plan);
  fault::FaultInjector inj_ref(plan);
  Chip chip(MachineConfig{}, fmt);
  load(chip, js, fmt);
  const auto iblock = leading_iblock(js, fmt, 0.0);
  for (int pass = 0; pass < 8; ++pass) {
    const double t = 0.125 * pass;
    const int chip_id = pass % 2;
    chip.attach_fault(&inj_chip, chip_id);
    PassResult got = fresh(iblock.size(), {4, 8, 4}, 0);
    chip_pass(chip, t, iblock, 1e-4, got);
    PassResult ref = fresh(iblock.size(), {4, 8, 4}, 0);
    reference_pass(chip, fmt, t, iblock, 1e-4, ref);
    inj_ref.apply_pass_faults(t, chip_id, ref.acc);
    expect_bit_identical(ref, got);
  }
  EXPECT_GT(inj_chip.counts().compute_glitches, 0u);
  EXPECT_GT(inj_chip.counts().stuck_passes, 0u);
  EXPECT_EQ(inj_chip.counts().compute_glitches,
            inj_ref.counts().compute_glitches);
  EXPECT_EQ(inj_chip.counts().stuck_passes, inj_ref.counts().stuck_passes);
}

/// Full-engine forces on every particle (a 2-board machine).
std::vector<Force> run_engine(const std::vector<JParticle>& js) {
  MachineConfig mc;
  mc.boards_per_host = 2;
  GrapeForceEngine hw(mc, NumberFormats{}, 0.01);
  hw.load_particles(js);
  std::vector<PredictedState> block(js.size());
  for (std::size_t i = 0; i < js.size(); ++i) {
    block[i].index = static_cast<std::uint32_t>(i);
    block[i].pos = js[i].pos;
    block[i].vel = js[i].vel;
  }
  std::vector<Force> f(js.size());
  hw.compute_forces(0.0, block, f);
  hw.compute_forces(0.0, block, f);  // steady-state exponents
  return f;
}

TEST(PipelineCrosscheck, BatchedBitIdenticalAcrossThreadCounts) {
  struct GlobalThreadsGuard {
    ~GlobalThreadsGuard() { exec::ThreadPool::set_global_threads(0); }
  } guard;
  const auto js = random_js(128, 99);
  std::vector<Force> ref;
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::ThreadPool::set_global_threads(threads);
    const auto f = run_engine(js);
    if (ref.empty()) {
      ref = f;
      continue;
    }
    ASSERT_EQ(ref.size(), f.size());
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_EQ(ref[i].acc, f[i].acc) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(ref[i].jerk, f[i].jerk) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(ref[i].pot, f[i].pot) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(PipelineCrosscheck, QuantizeFastPathMatchesReferenceOracle) {
  const FloatFormat fmts[] = {formats::pipeline(), formats::velocity(),
                              formats::predictor(), formats::ieee_double(),
                              FloatFormat(4, -8, 7), FloatFormat(16, -62, 63),
                              FloatFormat(51, -1022, 1023)};
  // Structured patterns: powers of two, halfway (tie) cases just below and
  // above, format boundaries, zeros, subnormal doubles, inf.
  std::vector<double> probes = {0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300,
                                -1e-300, 1e300, 5e-324, -5e-324,
                                std::numeric_limits<double>::infinity()};
  for (int e = -40; e <= 40; ++e) {
    const double p = std::ldexp(1.0, e);
    for (double m : {1.0, 1.5, 1.0 + std::ldexp(1.0, -24),
                     1.0 + std::ldexp(3.0, -25), 1.999999}) {
      probes.push_back(m * p);
      probes.push_back(-m * p);
    }
  }
  Rng rng(0xfa57);
  for (int i = 0; i < 200000; ++i) {
    // Random bit patterns spanning the full double range (skip NaN/inf,
    // which pass through by construction and break == comparison).
    const double x = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(x)) continue;
    probes.push_back(x);
  }
  for (const auto& f : fmts) {
    for (double x : probes) {
      if (std::isnan(x)) continue;
      const double fast = f.quantize(x);
      const double ref = f.quantize_ref(x);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fast),
                std::bit_cast<std::uint64_t>(ref))
          << "x=" << std::hexfloat << x << " frac=" << f.frac_bits();
    }
  }
}

}  // namespace
}  // namespace g6
