#include "storage/disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace oir {

// ---------------------------------------------------------------- MemDisk

MemDisk::MemDisk(uint32_t page_size, uint32_t initial_pages)
    : Disk(page_size), num_pages_(initial_pages) {}

Status MemDisk::ReadMulti(PageId first, uint32_t n, char* buf) {
  MutexLock l(mu_);
  if (first + n > num_pages_) {
    return Status::IOError("read beyond device end");
  }
  pages_.Read(static_cast<uint64_t>(first) * page_size_, buf,
              static_cast<size_t>(n) * page_size_);
  CountIo(n, /*write=*/false);
  return Status::OK();
}

Status MemDisk::WriteMulti(PageId first, uint32_t n, const char* buf) {
  MutexLock l(mu_);
  if (first + n > num_pages_) {
    return Status::IOError("write beyond device end");
  }
  pages_.Write(static_cast<uint64_t>(first) * page_size_, buf,
               static_cast<size_t>(n) * page_size_);
  CountIo(n, /*write=*/true);
  return Status::OK();
}

Status MemDisk::Sync() { return Status::OK(); }

uint32_t MemDisk::NumPages() const {
  MutexLock l(mu_);
  return num_pages_;
}

Status MemDisk::Extend(uint32_t new_num_pages) {
  MutexLock l(mu_);
  if (new_num_pages > num_pages_) num_pages_ = new_num_pages;
  return Status::OK();
}

// --------------------------------------------------------------- FileDisk

Status FileDisk::Open(const std::string& path, uint32_t page_size,
                      std::unique_ptr<FileDisk>* out) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + std::strerror(errno));
  }
  uint32_t num_pages = static_cast<uint32_t>(st.st_size / page_size);
  out->reset(new FileDisk(fd, page_size, num_pages));
  return Status::OK();
}

FileDisk::FileDisk(int fd, uint32_t page_size, uint32_t num_pages)
    : Disk(page_size), fd_(fd), num_pages_(num_pages) {}

FileDisk::~FileDisk() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileDisk::ReadMulti(PageId first, uint32_t n, char* buf) {
  {
    MutexLock l(mu_);
    if (first + n > num_pages_) {
      return Status::IOError("read beyond device end");
    }
  }
  size_t len = static_cast<size_t>(n) * page_size_;
  off_t off = static_cast<off_t>(first) * page_size_;
  size_t done = 0;
  while (done < len) {
    ssize_t r = ::pread(fd_, buf + done, len - done, off + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pread: ") + std::strerror(errno));
    }
    if (r == 0) {
      // Hole past EOF within a page-aligned region: zero-fill.
      std::memset(buf + done, 0, len - done);
      break;
    }
    done += static_cast<size_t>(r);
  }
  CountIo(n, /*write=*/false);
  return Status::OK();
}

Status FileDisk::WriteMulti(PageId first, uint32_t n, const char* buf) {
  {
    MutexLock l(mu_);
    if (first + n > num_pages_) {
      return Status::IOError("write beyond device end");
    }
  }
  size_t len = static_cast<size_t>(n) * page_size_;
  off_t off = static_cast<off_t>(first) * page_size_;
  size_t done = 0;
  while (done < len) {
    ssize_t r = ::pwrite(fd_, buf + done, len - done, off + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pwrite: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(r);
  }
  CountIo(n, /*write=*/true);
  return Status::OK();
}

Status FileDisk::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(std::string("fdatasync: ") + std::strerror(errno));
  }
  return Status::OK();
}

uint32_t FileDisk::NumPages() const {
  MutexLock l(mu_);
  return num_pages_;
}

Status FileDisk::Extend(uint32_t new_num_pages) {
  MutexLock l(mu_);
  if (new_num_pages <= num_pages_) return Status::OK();
  off_t new_size = static_cast<off_t>(new_num_pages) * page_size_;
  if (::ftruncate(fd_, new_size) != 0) {
    return Status::IOError(std::string("ftruncate: ") + std::strerror(errno));
  }
  num_pages_ = new_num_pages;
  return Status::OK();
}

}  // namespace oir
