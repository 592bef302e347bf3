#ifndef CAPPLAN_COMMON_FILE_SINK_H_
#define CAPPLAN_COMMON_FILE_SINK_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace capplan {

// A file written through one bounded buffer: callers append bytes to
// buffer() and call MaybeFlush() between records, which writes the buffer
// out once it holds kFlushBytes, so a file of any size costs about that much
// memory. Every write and the close are checked; the first failure sticks,
// later writes are skipped, and Close() reports it.
class FileSink {
 public:
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  // Creates or truncates `path`. A failure to open shows in Close().
  explicit FileSink(const std::string& path);
  ~FileSink();
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  std::string& buffer() { return buffer_; }
  void MaybeFlush() {
    if (buffer_.size() >= kFlushBytes) Flush();
  }
  // Bytes appended so far, written or still buffered.
  std::uint64_t offset() const { return written_ + buffer_.size(); }

  // Writes what is buffered and closes the file.
  Status Close();

 private:
  void Flush();
  void Fail(const std::string& what);

  std::string path_;
  int fd_ = -1;
  std::string buffer_;
  std::uint64_t written_ = 0;
  Status status_;
};

}  // namespace capplan

#endif  // CAPPLAN_COMMON_FILE_SINK_H_
