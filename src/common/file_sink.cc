#include "common/file_sink.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace capplan {

FileSink::FileSink(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) Fail("cannot open");
  buffer_.reserve(kFlushBytes + kFlushBytes / 4);
}

FileSink::~FileSink() {
  if (fd_ >= 0) ::close(fd_);
}

void FileSink::Fail(const std::string& what) {
  if (status_.ok()) {
    status_ = Status::IoError(what + " " + path_ + ": " + std::strerror(errno));
  }
}

void FileSink::Flush() {
  const char* p = buffer_.data();
  std::size_t left = buffer_.size();
  while (status_.ok() && left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      Fail("write failed for");
      break;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  written_ += buffer_.size();
  buffer_.clear();
}

Status FileSink::Close() {
  Flush();
  if (fd_ >= 0) {
    if (::close(fd_) != 0) Fail("close failed for");
    fd_ = -1;
  }
  return status_;
}

}  // namespace capplan
