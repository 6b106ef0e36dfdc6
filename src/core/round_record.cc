#include "core/round_record.h"

#include <algorithm>

namespace llsc {

namespace {

bool id_less(const RegSnapshots::Entry& e, RegId id) { return e.first < id; }

}  // namespace

RegSnapshots::const_iterator& RegSnapshots::const_iterator::operator++() {
  if (++entry_ == owner_->blocks_[block_].entries->size()) {
    ++block_;
    entry_ = 0;
  }
  return *this;
}

std::size_t RegSnapshots::lower_block(RegId key) const {
  return static_cast<std::size_t>(
      std::lower_bound(blocks_.begin(), blocks_.end(), key,
                       [](const Block& b, RegId k) { return b.key < k; }) -
      blocks_.begin());
}

std::vector<RegSnapshots::Entry>& RegSnapshots::own(Block& block) {
  if (block.entries.use_count() > 1) {
    // Shared with another snapshot: copy before writing.
    block.entries = std::make_shared<std::vector<Entry>>(*block.entries);
  }
  return *block.entries;
}

const RegSnapshot* RegSnapshots::find(RegId r) const {
  const std::size_t b = lower_block(r / kBlockIds);
  if (b == blocks_.size() || blocks_[b].key != r / kBlockIds) return nullptr;
  const std::vector<Entry>& entries = *blocks_[b].entries;
  const auto it = std::lower_bound(entries.begin(), entries.end(), r, id_less);
  return it != entries.end() && it->first == r ? &it->second : nullptr;
}

RegSnapshot& RegSnapshots::upsert(RegId r) {
  const RegId key = r / kBlockIds;
  const std::size_t b = lower_block(key);
  if (b == blocks_.size() || blocks_[b].key != key) {
    blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(b),
                   Block{key, std::make_shared<std::vector<Entry>>()});
  }
  std::vector<Entry>& entries = own(blocks_[b]);
  auto it = std::lower_bound(entries.begin(), entries.end(), r, id_less);
  if (it == entries.end() || it->first != r) {
    it = entries.insert(it, Entry{r, RegSnapshot{}});
    ++size_;
  }
  return it->second;
}

bool RegSnapshots::erase(RegId r) {
  if (find(r) == nullptr) return false;
  const std::size_t b = lower_block(r / kBlockIds);
  std::vector<Entry>& entries = own(blocks_[b]);
  entries.erase(std::lower_bound(entries.begin(), entries.end(), r, id_less));
  if (entries.empty()) {
    blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(b));
  }
  --size_;
  return true;
}

}  // namespace llsc
