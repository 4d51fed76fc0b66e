#ifndef OIR_BTREE_KEY_H_
#define OIR_BTREE_KEY_H_

// Key formats.
//
// A secondary-index key is [key value, ROWID] (Section 1). We encode the
// pair as a single byte string — the user key bytes followed by the ROWID
// in big-endian — so that plain memcmp ordering sorts by key value first,
// ROWID second, and duplicates of the same key value are distinct index
// entries. Leaf rows store exactly this composite string.
//
// Non-leaf rows are [child page id (4 bytes, fixed)][separator bytes]. The
// first row of a non-leaf page has an empty separator: a page with n
// children carries n-1 key-value separators (Section 5). Separators are
// produced by suffix compression ("the index manager in ASE uses suffix
// compression", Section 6.4): the separator chosen between two adjacent
// leaf keys L < R is the shortest prefix s of R with L < s <= R, which is
// what makes the paper's 40-byte keys yield ~20-byte non-leaf rows.

#include <string>

#include "util/slice.h"
#include "util/types.h"

namespace oir {

// Maximum user key length accepted by the index (keeps a handful of rows on
// every page even at the minimum page size).
constexpr size_t kMaxUserKeyLen = 80;

// Composite index key: user key bytes ++ big-endian rowid.
std::string MakeIndexKey(const Slice& user_key, RowId rid);

// Decomposition of a composite key.
Slice UserKeyOf(const Slice& index_key);
RowId RowIdOf(const Slice& index_key);

// Shortest separator s with left < s <= right (byte-wise). Requires
// left < right. The result is a prefix of `right` and points into it.
Slice MakeSeparator(const Slice& left, const Slice& right);

}  // namespace oir

#endif  // OIR_BTREE_KEY_H_
