#ifndef GEOLIC_NET_BYTE_QUEUE_H_
#define GEOLIC_NET_BYTE_QUEUE_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace geolic::net {

// Per-connection byte FIFO: the read ring an incremental decoder consumes
// from and the write ring partial sends drain. A string plus a head offset
// — consumption is O(1), and the consumed prefix is reclaimed only when it
// dominates the buffer, so steady-state traffic memmoves amortized O(1)
// bytes and the buffer's capacity is reused across frames.
class ByteQueue {
 public:
  void Append(std::string_view bytes) { buffer_.append(bytes); }

  // The queue's back end, for encoders that append to a std::string: bytes
  // appended to it join the queue in order. Append only.
  std::string* tail() { return &buffer_; }

  // The unconsumed bytes, in order. Valid until the next mutation.
  std::string_view data() const {
    return std::string_view(buffer_).substr(head_);
  }

  // Drops `n` bytes from the front (n <= size()).
  void Consume(size_t n) {
    head_ += n;
    if (head_ >= kCompactThreshold && head_ * 2 >= buffer_.size()) {
      buffer_.erase(0, head_);
      head_ = 0;
    }
  }

  size_t size() const { return buffer_.size() - head_; }
  bool empty() const { return head_ == buffer_.size(); }

  void Clear() {
    buffer_.clear();
    head_ = 0;
  }

 private:
  static constexpr size_t kCompactThreshold = 4096;

  std::string buffer_;
  size_t head_ = 0;
};

}  // namespace geolic::net

#endif  // GEOLIC_NET_BYTE_QUEUE_H_
