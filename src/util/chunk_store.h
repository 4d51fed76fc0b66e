#ifndef OIR_UTIL_CHUNK_STORE_H_
#define OIR_UTIL_CHUNK_STORE_H_

// Byte-addressed memory held in fixed 1 MiB chunks that never move. A
// chunk is allocated, zero-filled, on the first write into its range, so
// the store grows without copying what it already holds and without
// touching memory far from anything written. Bytes in a chunk that was
// never written read as zeros.
//
// Two owners use it. The in-memory log addresses it by LSN as a byte
// stream: an append fills the tail chunk and spills into the next one, and
// a trim frees the whole chunks below the trim point. MemDisk addresses it
// by page offset: pages never written cost no memory.
//
// Not thread-safe: each owner serializes access under its own mutex.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace oir {

class ChunkStore {
 public:
  static constexpr uint64_t kChunkBytes = uint64_t{1} << 20;

  ChunkStore() = default;
  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  // Copies src into [addr, addr + n), allocating chunks on first touch.
  void Write(uint64_t addr, const char* src, size_t n) {
    const uint64_t off = addr % kChunkBytes;
    if (off + n <= kChunkBytes) {  // the common case: one chunk
      std::memcpy(Allocate(addr / kChunkBytes) + off, src, n);
      return;
    }
    while (n > 0) {
      const size_t piece = PieceAt(addr, n);
      std::memcpy(Allocate(addr / kChunkBytes) + addr % kChunkBytes, src,
                  piece);
      addr += piece;
      src += piece;
      n -= piece;
    }
  }

  // Copies [addr, addr + n) into dst; unwritten chunks read as zeros.
  void Read(uint64_t addr, char* dst, size_t n) const {
    ForEachPiece(addr, n, [&dst](const char* p, size_t len) {
      if (p != nullptr) {
        std::memcpy(dst, p, len);
      } else {
        std::memset(dst, 0, len);
      }
      dst += len;
    });
  }

  // The bytes [addr, addr + n) in place, if they lie in one allocated
  // chunk; otherwise null (copy them out with Read).
  const char* Contiguous(uint64_t addr, size_t n) const {
    const uint64_t off = addr % kChunkBytes;
    if (off + n > kChunkBytes) return nullptr;
    const char* c = Find(addr / kChunkBytes);
    return c == nullptr ? nullptr : c + off;
  }

  // Calls fn(ptr, len) for each chunk's piece of [addr, addr + n), in
  // order; ptr is null where the chunk was never written.
  template <typename Fn>
  void ForEachPiece(uint64_t addr, uint64_t n, Fn&& fn) const {
    while (n > 0) {
      const size_t piece = PieceAt(addr, n);
      const char* c = Find(addr / kChunkBytes);
      fn(c == nullptr ? nullptr : c + addr % kChunkBytes, piece);
      addr += piece;
      n -= piece;
    }
  }

  // Frees the chunks that lie wholly below addr. The owner reads and
  // writes nothing below addr afterwards.
  void DropBelow(uint64_t addr);

  // Everything from addr on reads as zeros again: the chunks wholly above
  // it are freed, and the rest of addr's own chunk is cleared.
  void Truncate(uint64_t addr);

 private:
  static size_t PieceAt(uint64_t addr, uint64_t n) {
    return static_cast<size_t>(
        std::min<uint64_t>(n, kChunkBytes - addr % kChunkBytes));
  }
  const char* Find(uint64_t index) const {
    if (index < first_ || index - first_ >= chunks_.size()) return nullptr;
    return chunks_[index - first_].get();
  }
  char* Allocate(uint64_t index) {
    if (index >= first_ && index - first_ < chunks_.size()) {
      char* c = chunks_[index - first_].get();
      if (c != nullptr) return c;
    }
    return AllocateSlow(index);
  }
  char* AllocateSlow(uint64_t index);

  // chunks_[i] covers chunk index first_ + i; null until first written.
  std::vector<std::unique_ptr<char[]>> chunks_;
  uint64_t first_ = 0;
};

}  // namespace oir

#endif  // OIR_UTIL_CHUNK_STORE_H_
