#ifndef OIR_UTIL_SLICE_H_
#define OIR_UTIL_SLICE_H_

// A Slice is a non-owning view of a byte string, in the style of
// rocksdb::Slice. Keys and values throughout the index manager are passed
// as Slices; the caller owns the underlying storage.

#include <cassert>
#include <cstring>
#include <string>

namespace oir {

class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* d, size_t n) : data_(d), size_(n) {}
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(const char* s) : data_(s), size_(std::strlen(s)) {}          // NOLINT

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t n) const {
    assert(n < size_);
    return data_[n];
  }

  void clear() {
    data_ = "";
    size_ = 0;
  }

  void remove_prefix(size_t n) {
    assert(n <= size_);
    data_ += n;
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }

  // Three-way comparison: <0, ==0, >0 as in memcmp.
  int compare(const Slice& b) const {
    const size_t min_len = size_ < b.size_ ? size_ : b.size_;
    int r = std::memcmp(data_, b.data_, min_len);
    if (r == 0) {
      if (size_ < b.size_) {
        r = -1;
      } else if (size_ > b.size_) {
        r = +1;
      }
    }
    return r;
  }

  bool starts_with(const Slice& prefix) const {
    return size_ >= prefix.size_ &&
           std::memcmp(data_, prefix.data_, prefix.size_) == 0;
  }

 private:
  const char* data_;
  size_t size_;
};

inline bool operator==(const Slice& a, const Slice& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}

inline bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }
inline bool operator<(const Slice& a, const Slice& b) {
  return a.compare(b) < 0;
}

}  // namespace oir

#endif  // OIR_UTIL_SLICE_H_
