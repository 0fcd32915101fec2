#include "dist/frame.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <stdexcept>

namespace mdgan::dist {

namespace {

void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_le32(out, static_cast<std::uint32_t>(v));
  put_le32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Parses the fixed body fields of a `body_len`-byte body into `f` and
// returns the tag length; throws when the tag overruns the body (or
// the tag cap) — before anything is allocated for it.
std::uint32_t parse_fixed(const std::uint8_t* fixed, std::size_t body_len,
                          Frame& f) {
  f.src = static_cast<std::int32_t>(read_le32(fixed));
  f.dst = static_cast<std::int32_t>(read_le32(fixed + 4));
  const std::uint32_t tag_len = read_le32(fixed + 8);
  f.ctx.node = read_le32(fixed + 12);
  f.ctx.seq = read_le32(fixed + 16);
  f.ctx.span = static_cast<std::uint64_t>(read_le32(fixed + 20)) |
               static_cast<std::uint64_t>(read_le32(fixed + 24)) << 32;
  if (tag_len > kMaxFrameTagBytes ||
      kFrameBodyFixedBytes + static_cast<std::size_t>(tag_len) > body_len) {
    throw std::runtime_error("decode_frame_body: tag overruns body");
  }
  return tag_len;
}

}  // namespace

std::vector<std::uint8_t> encode_frame_head(int src, int dst,
                                            const std::string& tag,
                                            std::size_t payload_size,
                                            const TraceCtx& ctx) {
  const std::size_t body_len =
      kFrameBodyFixedBytes + tag.size() + payload_size;
  if (body_len > kMaxFrameBodyBytes) {
    throw std::runtime_error("encode_frame: frame too large");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + kFrameBodyFixedBytes + tag.size());
  put_le32(out, kFrameMagic);
  put_le32(out, static_cast<std::uint32_t>(body_len));
  put_le32(out, static_cast<std::uint32_t>(src));
  put_le32(out, static_cast<std::uint32_t>(dst));
  put_le32(out, static_cast<std::uint32_t>(tag.size()));
  put_le32(out, ctx.node);
  put_le32(out, ctx.seq);
  put_le64(out, ctx.span);
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

std::vector<std::uint8_t> encode_frame(int src, int dst,
                                       const std::string& tag,
                                       const ByteBuffer& payload,
                                       const TraceCtx& ctx) {
  std::vector<std::uint8_t> out =
      encode_frame_head(src, dst, tag, payload.size(), ctx);
  out.insert(out.end(), payload.data(), payload.data() + payload.size());
  return out;
}

std::uint32_t decode_frame_header(
    const std::uint8_t header[kFrameHeaderBytes]) {
  if (read_le32(header) != kFrameMagic) {
    throw std::runtime_error("decode_frame_header: bad magic");
  }
  const std::uint32_t body_len = read_le32(header + 4);
  if (body_len < kFrameBodyFixedBytes || body_len > kMaxFrameBodyBytes) {
    throw std::runtime_error("decode_frame_header: bad body length");
  }
  return body_len;
}

Frame decode_frame_body(const std::uint8_t* body, std::size_t len) {
  if (len < kFrameBodyFixedBytes) {
    throw std::runtime_error("decode_frame_body: truncated body");
  }
  Frame f;
  const std::uint32_t tag_len = parse_fixed(body, len, f);
  f.tag.assign(reinterpret_cast<const char*>(body + kFrameBodyFixedBytes),
               tag_len);
  const std::uint8_t* payload = body + kFrameBodyFixedBytes + tag_len;
  f.payload = ByteBuffer::wrap(payload, len - kFrameBodyFixedBytes - tag_len);
  return f;
}

std::uint8_t* FrameDecoder::next() {
  if (stage_ == Stage::kTag) {
    return reinterpret_cast<std::uint8_t*>(&frame_.tag[got_]);
  }
  if (stage_ == Stage::kPayload) return payload_.data() + got_;
  return want() > 0 ? fixed_ + got_ : nullptr;  // header, fixed fields
}

bool FrameDecoder::advance(std::size_t n) {
  got_ += n;
  try {
    // Each finished stage sizes the next one; empty stages (no tag, no
    // payload) fall straight through.
    while (got_ == need_ && stage_ != Stage::kReady) {
      got_ = 0;
      switch (stage_) {
        case Stage::kHeader:
          body_len_ = decode_frame_header(fixed_);
          stage_ = Stage::kFixed;
          need_ = kFrameBodyFixedBytes;
          break;
        case Stage::kFixed:
          need_ = parse_fixed(fixed_, body_len_, frame_);
          frame_.tag.resize(need_);
          stage_ = Stage::kTag;
          break;
        case Stage::kTag:
          payload_.resize(body_len_ - kFrameBodyFixedBytes - need_);
          need_ = payload_.size();
          stage_ = Stage::kPayload;
          break;
        default:  // kPayload
          frame_.payload = ByteBuffer::adopt(std::move(payload_));
          need_ = 0;
          stage_ = Stage::kReady;
      }
    }
  } catch (const std::exception&) {
    stage_ = Stage::kBad;
    need_ = got_ = 0;
    return false;
  }
  return true;
}

Frame FrameDecoder::take() {
  Frame out = std::move(frame_);
  *this = FrameDecoder();
  return out;
}

bool read_exact(int fd, std::uint8_t* dst, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, dst + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;  // EOF, timeout, or hard error: the peer is gone
  }
  return true;
}

bool read_frame(int fd, Frame& out) {
  FrameDecoder dec;
  while (!dec.ready()) {
    const std::size_t n = dec.want();
    if (!read_exact(fd, dec.next(), n) || !dec.advance(n)) return false;
  }
  out = dec.take();
  return true;
}

}  // namespace mdgan::dist
