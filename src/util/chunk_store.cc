#include "util/chunk_store.h"

#include "util/logging.h"

namespace oir {

char* ChunkStore::AllocateSlow(uint64_t index) {
  OIR_CHECK(index >= first_);  // nothing is written below a DropBelow point
  if (index - first_ >= chunks_.size()) chunks_.resize(index - first_ + 1);
  auto& c = chunks_[index - first_];
  c.reset(new char[kChunkBytes]());
  return c.get();
}

void ChunkStore::DropBelow(uint64_t addr) {
  const uint64_t end = addr / kChunkBytes;  // first chunk kept
  if (end <= first_) return;
  const uint64_t drop = std::min<uint64_t>(end - first_, chunks_.size());
  chunks_.erase(chunks_.begin(), chunks_.begin() + drop);
  first_ = end;
}

void ChunkStore::Truncate(uint64_t addr) {
  uint64_t keep = addr / kChunkBytes;  // first chunk freed
  if (const uint64_t off = addr % kChunkBytes; off != 0) {
    if (keep >= first_ && keep - first_ < chunks_.size() &&
        chunks_[keep - first_] != nullptr) {
      std::memset(chunks_[keep - first_].get() + off, 0, kChunkBytes - off);
    }
    ++keep;
  }
  if (keep < first_) keep = first_;
  if (keep - first_ < chunks_.size()) chunks_.resize(keep - first_);
}

}  // namespace oir
