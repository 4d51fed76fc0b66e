#include "btree/key.h"

#include "util/logging.h"

namespace oir {

std::string MakeIndexKey(const Slice& user_key, RowId rid) {
  OIR_CHECK(user_key.size() <= kMaxUserKeyLen);
  std::string out;
  out.reserve(user_key.size() + sizeof(RowId));
  out.append(user_key.data(), user_key.size());
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((rid >> shift) & 0xff));
  }
  return out;
}

Slice UserKeyOf(const Slice& index_key) {
  OIR_DCHECK(index_key.size() >= sizeof(RowId));
  return Slice(index_key.data(), index_key.size() - sizeof(RowId));
}

RowId RowIdOf(const Slice& index_key) {
  OIR_DCHECK(index_key.size() >= sizeof(RowId));
  const unsigned char* p = reinterpret_cast<const unsigned char*>(
      index_key.data() + index_key.size() - sizeof(RowId));
  RowId rid = 0;
  for (size_t i = 0; i < sizeof(RowId); ++i) {
    rid = (rid << 8) | p[i];
  }
  return rid;
}

Slice MakeSeparator(const Slice& left, const Slice& right) {
  OIR_DCHECK(left.compare(right) < 0);
  // Find the first position where they differ. Since left < right, either
  // left is a proper prefix of right (diff = left.size()) or
  // left[diff] < right[diff].
  size_t diff = 0;
  const size_t min_len = std::min(left.size(), right.size());
  while (diff < min_len && left[diff] == right[diff]) ++diff;
  // The prefix of `right` of length diff+1 is > left and <= right.
  OIR_DCHECK(diff < right.size());
  return Slice(right.data(), diff + 1);
}

}  // namespace oir
