// Value-semantic byte buffers used as the wire format of the cluster
// transports. Every message between nodes is serialized into a
// ByteBuffer; its size() is what the traffic accountant records, so the
// bytes in Table IV / Figure 2 come from real serialized payloads, not
// estimates.
//
// Wire format: explicitly little-endian. Integers and floats are stored
// with their least-significant byte first regardless of the host, so a
// frame produced by one machine parses identically on any other — the
// property the TCP backend (dist/tcp_network) needs to run the protocol
// across heterogeneous hosts. On little-endian hosts (x86-64, the only
// ones this repo has run on so far) the encoding is byte-for-byte what
// the old native-order memcpy produced, so all historical byte totals
// are unchanged.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace mdgan {

namespace detail {
#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) && \
    (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)
inline constexpr bool kHostLittleEndian = false;
#else
inline constexpr bool kHostLittleEndian = true;
#endif
}  // namespace detail

class ByteBuffer {
 public:
  ByteBuffer() = default;

  // Wraps received wire bytes for parsing (copies them).
  static ByteBuffer wrap(const std::uint8_t* data, std::size_t n) {
    ByteBuffer buf;
    buf.data_.assign(data, data + n);
    return buf;
  }

  // Takes ownership of received wire bytes without copying (the TCP
  // receive path reads each payload straight into the vector it hands
  // over here).
  static ByteBuffer adopt(std::vector<std::uint8_t>&& data) {
    ByteBuffer buf;
    buf.data_ = std::move(data);
    return buf;
  }

  std::size_t size() const { return data_.size(); }
  const std::uint8_t* data() const { return data_.data(); }
  void clear() {
    data_.clear();
    read_pos_ = 0;
  }

  // Appends raw bytes verbatim (no length header). The caller owns the
  // framing; used by the frame codec and tests.
  void append_raw(const std::uint8_t* p, std::size_t n) { put(p, n); }

  template <typename T>
  void write_pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) == 1 || std::is_arithmetic_v<T> ||
                      std::is_enum_v<T>,
                  "multi-byte non-arithmetic types have no defined byte "
                  "order on the wire");
    std::uint8_t bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    if constexpr (sizeof(T) > 1 && !detail::kHostLittleEndian) {
      std::reverse(bytes, bytes + sizeof(T));
    }
    put(bytes, sizeof(T));
  }

  template <typename T>
  T read_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) == 1 || std::is_arithmetic_v<T> ||
                      std::is_enum_v<T>,
                  "multi-byte non-arithmetic types have no defined byte "
                  "order on the wire");
    if (read_pos_ + sizeof(T) > data_.size()) {
      throw std::out_of_range("ByteBuffer: read past end");
    }
    std::uint8_t bytes[sizeof(T)];
    std::memcpy(bytes, data_.data() + read_pos_, sizeof(T));
    if constexpr (sizeof(T) > 1 && !detail::kHostLittleEndian) {
      std::reverse(bytes, bytes + sizeof(T));
    }
    T v;
    std::memcpy(&v, bytes, sizeof(T));
    read_pos_ += sizeof(T);
    return v;
  }

  void write_floats(const float* src, std::size_t n) {
    write_pod<std::uint64_t>(n);
    if constexpr (detail::kHostLittleEndian) {
      put(src, n * sizeof(float));
    } else {
      for (std::size_t i = 0; i < n; ++i) write_pod<float>(src[i]);
    }
  }

  std::vector<float> read_floats() {
    const auto n = read_pod<std::uint64_t>();
    if (read_pos_ + n * sizeof(float) > data_.size()) {
      throw std::out_of_range("ByteBuffer: float read past end");
    }
    std::vector<float> out(n);
    if constexpr (detail::kHostLittleEndian) {
      std::memcpy(out.data(), data_.data() + read_pos_, n * sizeof(float));
      read_pos_ += n * sizeof(float);
    } else {
      for (std::size_t i = 0; i < n; ++i) out[i] = read_pod<float>();
    }
    return out;
  }

  void write_string(const std::string& s) {
    write_pod<std::uint64_t>(s.size());
    put(s.data(), s.size());
  }

  std::string read_string() {
    const auto n = read_pod<std::uint64_t>();
    if (read_pos_ + n > data_.size()) {
      throw std::out_of_range("ByteBuffer: string read past end");
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + read_pos_), n);
    read_pos_ += n;
    return s;
  }

  // Remaining unread bytes (for framing checks in tests).
  std::size_t remaining() const { return data_.size() - read_pos_; }

 private:
  // Appends n raw bytes. resize + memcpy rather than vector::insert,
  // whose inlined range copy GCC 12 misreads into false
  // -Wstringop-overflow / -Wnonnull warnings.
  void put(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = data_.size();
    data_.resize(at + n);
    std::memcpy(data_.data() + at, p, n);
  }

  std::vector<std::uint8_t> data_;
  std::size_t read_pos_ = 0;
};

}  // namespace mdgan
