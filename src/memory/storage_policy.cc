#include "memory/storage_policy.h"

#include <cstdlib>

#include "util/check.h"

namespace llsc {

namespace {

// The one spelling of each policy name, for printing and parsing alike.
struct PolicyName {
  StoragePolicy policy;
  const char* name;
};
constexpr PolicyName kPolicyNames[] = {
    {StoragePolicy::kBoxed, "boxed"},
    {StoragePolicy::kInline, "inline"},
};

}  // namespace

std::string to_string(StoragePolicy policy) {
  for (const PolicyName& e : kPolicyNames) {
    if (e.policy == policy) return e.name;
  }
  LLSC_UNREACHABLE("bad StoragePolicy");
}

std::optional<StoragePolicy> parse_storage_policy(const std::string& name) {
  for (const PolicyName& e : kPolicyNames) {
    if (name == e.name) return e.policy;
  }
  return std::nullopt;
}

StoragePolicy storage_policy_from_string(const std::string& name) {
  const std::optional<StoragePolicy> policy = parse_storage_policy(name);
  LLSC_CHECK(policy.has_value(),
             "unknown storage policy (want boxed | inline): " + name);
  return *policy;
}

StoragePolicy default_storage_policy() {
  static const StoragePolicy policy = [] {
    const char* env = std::getenv("LLSC_STORAGE_POLICY");
    return env == nullptr ? StoragePolicy::kBoxed
                          : storage_policy_from_string(env);
  }();
  return policy;
}

bool value_fits_inline(const Value& v) {
  return v.is_nil() || (v.holds_u64() && v.as_u64() <= kInlineMaxU64);
}

std::uint64_t inline_tag(std::uint64_t word) {
  return word >> (64 - kInlineTagBits);
}

std::uint64_t next_inline_tag(std::uint64_t tag) {
  return tag >= kInlineTagPeriod ? 1 : tag + 1;
}

std::uint64_t encode_inline(const Value& v, std::uint64_t tag) {
  LLSC_EXPECTS(tag >= 1 && tag <= kInlineTagPeriod, "inline tag out of range");
  LLSC_EXPECTS(value_fits_inline(v), "value does not fit in an inline word");
  const std::uint64_t payload = v.is_nil() ? 0 : v.as_u64() + 1;
  return (tag << (64 - kInlineTagBits)) | (payload << 1) | 1;
}

Value decode_inline(std::uint64_t word) {
  LLSC_EXPECTS((word & 1) != 0, "not an inline word");
  const std::uint64_t payload =
      (word >> 1) & ((std::uint64_t{1} << kInlinePayloadBits) - 1);
  return payload == 0 ? Value{} : Value::of_u64(payload - 1);
}

void attribute_boxed_fallbacks(const std::vector<RegisterGroup>& groups,
                               const std::vector<RegId>& demoted,
                               RegisterWidthStats& stats) {
  if (groups.empty()) return;
  // Every supplied label appears in the breakdown (zero counts included)
  // so a test asserting "toggle: 0 demotions" reads a present key, not an
  // absent one.
  for (const RegisterGroup& g : groups) stats.boxed_fallback_by_group[g.label];
  for (const RegId r : demoted) {
    const RegisterGroup* owner = nullptr;
    for (const RegisterGroup& g : groups) {
      if (g.contains(r)) {
        owner = &g;
        break;
      }
    }
    ++stats.boxed_fallback_by_group[owner ? owner->label : kUngroupedLabel];
  }
}

}  // namespace llsc
