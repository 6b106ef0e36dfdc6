// Register-storage policies — the seam contrasting Section 7's bounded
// register regime with the unbounded registers the O(log n) upper bound
// assumes.
//
// The paper's model gives every register "an unbounded size"; S7's width
// audit (core/audit.h) showed the count-based wakeup algorithms actually
// fit in ⌈log₂ n⌉+1 bits while the universal constructions do not. This
// header names the storage policies both substrates (hw's RegisterStorage
// and the simulator's SharedMemory) can run under, plus the 64-bit tagged
// word codec the inline policy uses and the width/overflow counters every
// run reports:
//
//   kBoxed        — every write installs a heap node holding an arbitrary
//                   Value (today's behavior, byte-for-byte preserved).
//   kInline       — a register is one 64-bit atomic word while its values
//                   fit; the first unencodable write demotes that register
//                   (and only it) to boxing, permanently. Every such write
//                   counts in RegisterWidthStats::overflow_events.
//
// Inline word layout (bit 0 is the discriminator; Node pointers are
// 8-byte aligned so bit 0 = 0 always means "pointer"):
//
//   bit      0      : 1  (inline marker)
//   bits  [47:1]    : payload — 0 for nil, v+1 for a u64 v (so any
//                     encodable word is nonzero and v ≤ 2^47 − 2 fits)
//   bits [63:48]    : 16-bit version tag in [1, 65535], wrapping
//                     0xFFFF → 1 (never 0, so an inline word never
//                     collides with the "no link" sentinel 0)
//
// The enum values double as the policy_id emitted in bench counters and
// validated by tools/bench_to_csv.py --check.
#ifndef LLSC_MEMORY_STORAGE_POLICY_H_
#define LLSC_MEMORY_STORAGE_POLICY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "memory/op.h"
#include "memory/value.h"

namespace llsc {

enum class StoragePolicy : int {
  kBoxed = 0,
  kInline = 1,
};

std::string to_string(StoragePolicy policy);
// The policy named `name` ("boxed" | "inline"), or nullopt — for outside
// input such as artifacts, which must report an unknown name as an error.
std::optional<StoragePolicy> parse_storage_policy(const std::string& name);
// As parse_storage_policy, but an unknown name is a fatal usage error.
StoragePolicy storage_policy_from_string(const std::string& name);

// Process-wide default, read once from the LLSC_STORAGE_POLICY environment
// variable ("boxed" | "inline"); kBoxed when unset. This
// is how the CI inline matrix leg flips every test and bench to another
// policy without touching call sites; anything that cares pins its policy
// explicitly.
StoragePolicy default_storage_policy();

// --- the inline 64-bit word codec ---------------------------------------

inline constexpr std::size_t kInlineTagBits = 16;
inline constexpr std::size_t kInlinePayloadBits = 47;
// Largest u64 an inline word can hold (payload stores v+1 in 47 bits).
inline constexpr std::uint64_t kInlineMaxU64 =
    (std::uint64_t{1} << kInlinePayloadBits) - 2;
// Distinct live tags; a wrong inline SC success needs exactly a multiple
// of this many intervening writes (with an equal payload) between the LL
// and the SC — the ABA bound documented in docs/hw_backend.md.
inline constexpr std::uint64_t kInlineTagPeriod =
    (std::uint64_t{1} << kInlineTagBits) - 1;

// nil and u64 values up to kInlineMaxU64 fit; everything else (BigInt,
// strings, structured payloads) must be boxed.
bool value_fits_inline(const Value& v);

std::uint64_t inline_tag(std::uint64_t word);
std::uint64_t next_inline_tag(std::uint64_t tag);
// Precondition: value_fits_inline(v) and tag in [1, kInlineTagPeriod].
std::uint64_t encode_inline(const Value& v, std::uint64_t tag);
Value decode_inline(std::uint64_t word);

// A labeled half-open register-id range [lo, hi) identifying one logical
// object inside a construction's register span — e.g. CombiningUniversal's
// announce array vs its single state pointer. Supplied to a substrate
// (RegisterStorage::set_register_groups / SharedMemory::set_register_groups)
// so RegisterWidthStats can attribute demote-on-overflow events per
// logical object instead of lumping them into one counter.
struct RegisterGroup {
  std::string label;
  RegId lo = 0;
  RegId hi = 0;  // exclusive

  bool contains(RegId r) const { return r >= lo && r < hi; }
};

// Label under which demoted registers outside every supplied group are
// reported in the per-group breakdown.
inline constexpr const char* kUngroupedLabel = "other";

// Width/overflow counters, the hw-side twin of S7's WidthAudit (see
// core/audit.h: width_audit_from_stats). Counted only at *completed*
// install points (SC success, swap, move, rmw) — never per CAS retry — so
// the totals agree between the simulator and the hw backend for any
// deterministic workload.
struct RegisterWidthStats {
  StoragePolicy policy = StoragePolicy::kBoxed;
  std::uint64_t writes_inspected = 0;
  // Widest value written, in bits; ~std::size_t{0} once a structured
  // (unbounded) payload was written. 0 when nothing was written.
  std::size_t max_bits = 0;
  // Completed writes whose value does not fit in an inline word. Always 0
  // under kBoxed (there is nothing to overflow).
  std::uint64_t overflow_events = 0;
  std::uint64_t inline_installs = 0;
  std::uint64_t boxed_installs = 0;
  // Registers demoted to per-register boxing by an overflow (kInline only).
  std::uint64_t boxed_fallback_registers = 0;
  // Breakdown of boxed_fallback_registers by logical object, keyed by
  // RegisterGroup label (kUngroupedLabel for registers outside every
  // supplied group). Populated only when register groups were installed on
  // the substrate; empty otherwise, keeping existing artifact schemas
  // byte-stable. Values always sum to boxed_fallback_registers when
  // non-empty.
  std::map<std::string, std::uint64_t> boxed_fallback_by_group;

  bool bounded() const { return max_bits != ~std::size_t{0}; }
};

// Shared attribution helper for both substrates: distributes `demoted`
// register ids over `groups`, writing the per-label counts into
// `stats.boxed_fallback_by_group` (no-op when `groups` is empty).
void attribute_boxed_fallbacks(const std::vector<RegisterGroup>& groups,
                               const std::vector<RegId>& demoted,
                               RegisterWidthStats& stats);

}  // namespace llsc

#endif  // LLSC_MEMORY_STORAGE_POLICY_H_
