#ifndef GEOLIC_UTIL_SIMD_KERNELS_H_
#define GEOLIC_UTIL_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace geolic {
namespace simd {

// The data-parallel inner loops of the instance fast-reject over the SoA
// license geometry (geometry/soa_rects.h), factored into per-ISA kernels
// behind function pointers — the call granularity is one whole column
// scan, so the indirection amortizes. (The flat tree's batched equation
// scan needs per-node granularity instead and therefore compiles whole
// per tier in validation/flat_tree_batch_*.cc, sharing this module's
// dispatch probe.) Each kernel exists in two tiers (scalar, AVX2),
// compiled into separate translation units with per-source ISA flags so
// the rest of the tree never emits an instruction the host may lack;
// util/cpu_dispatch.h probes the CPU once and hands out AVX2 where the
// host has it, scalar elsewhere. Both tiers compute the same pure integer
// predicate, so results are bit-identical across tiers by construction —
// the equivalence tests and ablation gates run all available tiers over
// the same inputs.
//
// Bit layout contract: item j of a column maps to bit (j % 64) of
// inout[j / 64], little-endian across words. Kernels AND their predicate
// into `inout` (they never set a bit that was clear), so multi-dimension
// filters chain without scratch masks. Bits at or beyond `n` are left
// unspecified; callers mask the tail.
struct Kernels {
  // inout[j/64] bit j keeps its value only when the closed interval
  // [q_lo, q_hi] is contained in [lo[j], hi[j]] (lo[j] <= q_lo and
  // q_hi <= hi[j]). An empty item cell is encoded (INT64_MAX, INT64_MIN),
  // which fails for every query.
  void (*interval_contain)(const int64_t* lo, const int64_t* hi, size_t n,
                           int64_t q_lo, int64_t q_hi, uint64_t* inout);

  // Same layout for closed-interval overlap: lo[j] <= q_hi and
  // q_lo <= hi[j]. Callers must pre-mask empty item cells — the
  // (INT64_MAX, INT64_MIN) sentinel would pass against a full-range query.
  void (*interval_overlap)(const int64_t* lo, const int64_t* hi, size_t n,
                           int64_t q_lo, int64_t q_hi, uint64_t* inout);

  // Bit j survives only when q_mask ⊆ masks[j] ((q_mask & ~masks[j]) == 0)
  // — the category-set containment test.
  void (*mask_superset)(const uint64_t* masks, size_t n, uint64_t q_mask,
                        uint64_t* inout);

  // Bit j survives only when q_mask ∩ masks[j] ≠ ∅ — category overlap.
  void (*mask_intersects)(const uint64_t* masks, size_t n, uint64_t q_mask,
                          uint64_t* inout);

  // "scalar" or "avx2".
  const char* name;
};

// Column padding: per-item arrays are padded to a multiple of this many
// entries so a full-width vector load starting below `n` never reads
// unowned memory. Pad cells must hold fail-closed sentinel values.
inline constexpr size_t kColumnPad = 8;

// The two tiers. Scalar always runs; the AVX2 kernels must only be
// *called* on hosts where cpu_dispatch reports the tier available (calling
// Avx2Kernels() merely returns the table — safe everywhere).
const Kernels& ScalarKernels();
const Kernels& Avx2Kernels();

}  // namespace simd
}  // namespace geolic

#endif  // GEOLIC_UTIL_SIMD_KERNELS_H_
