// Adversarial bytes against the TCP wire framing. FrameDecoder is the
// one parser that turns an untrusted byte stream into Frames — the I/O
// loop feeds it non-blocking reads, read_frame drives it off a blocking
// fd — so both are attacked here with every malformation class a
// hostile or corrupt peer can produce: truncated headers, bad magic,
// tag lengths overrunning the body, oversize body lengths, truncated
// payloads, and plain seeded garbage. read_frame runs over real
// socketpairs; the decoder also gets each stream in 1-byte and random
// chunks and must reach the same verdict and the same Frames as with
// the whole buffer. The contract under attack is always the same —
// reject, never crash, never hang, never let a 4-byte length field
// drive a giant allocation. The last tests point the same adversary at
// a live server: a garbage hello must not stall the rendezvous for a
// legitimate worker.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/rejoin.hpp"
#include "dist/frame.hpp"
#include "dist/tcp_network.hpp"

namespace mdgan::dist {
namespace {

// A connected AF_UNIX stream pair; fd[0] is the attacker's pen, fd[1]
// the reader under test.
struct Pair {
  int fd[2];
  Pair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~Pair() {
    ::close(fd[0]);
    ::close(fd[1]);
  }
  void write_bytes(const void* p, std::size_t n) {
    ASSERT_EQ(::write(fd[0], p, n), static_cast<ssize_t>(n));
  }
  void write_bytes(const std::vector<std::uint8_t>& v) {
    if (!v.empty()) write_bytes(v.data(), v.size());
  }
  // End of the attack: the reader must now observe EOF, not block.
  void finish() { ::shutdown(fd[0], SHUT_WR); }
};

ByteBuffer payload_of(const std::vector<float>& v) {
  ByteBuffer buf;
  buf.write_floats(v.data(), v.size());
  return buf;
}

void put_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// What a FrameDecoder makes of `bytes` fed at most chunk() bytes at a
// time: the frames it completes, how many bytes it consumed, and how
// the stream ended.
enum class End { kClean, kTruncated, kRejected };
struct Verdict {
  std::vector<Frame> frames;
  std::size_t consumed = 0;
  End end = End::kClean;
};

Verdict decode_chunked(const std::vector<std::uint8_t>& bytes,
                       const std::function<std::size_t()>& chunk) {
  FrameDecoder dec;
  Verdict v;
  bool mid_frame = false;
  while (v.consumed < bytes.size()) {
    const std::size_t n =
        std::min({dec.want(), chunk(), bytes.size() - v.consumed});
    std::memcpy(dec.next(), bytes.data() + v.consumed, n);
    v.consumed += n;
    if (!dec.advance(n)) {
      v.end = End::kRejected;
      return v;
    }
    mid_frame = !dec.ready();
    if (dec.ready()) v.frames.push_back(dec.take());
  }
  v.end = mid_frame ? End::kTruncated : End::kClean;
  return v;
}

void expect_same_frame(const Frame& a, const Frame& b) {
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.ctx.node, b.ctx.node);
  EXPECT_EQ(a.ctx.seq, b.ctx.seq);
  EXPECT_EQ(a.ctx.span, b.ctx.span);
  EXPECT_EQ(a.tag, b.tag);
  ASSERT_EQ(a.payload.size(), b.payload.size());
  EXPECT_EQ(std::memcmp(a.payload.data(), b.payload.data(), a.payload.size()),
            0);
}

// Decodes `bytes` whole, in 1-byte chunks and in seeded random chunks,
// checks all three agree frame for frame, and checks read_frame over a
// socketpair accepts exactly those frames. Returns the whole-buffer
// verdict for the caller's own expectations.
Verdict expect_chunking_invariant(const std::vector<std::uint8_t>& bytes,
                                  std::uint64_t seed) {
  const Verdict whole = decode_chunked(bytes, [] { return SIZE_MAX; });
  Rng rng(seed);
  const auto random_chunk = [&] {
    return 1 + static_cast<std::size_t>(rng.uniform() * 13.0);
  };
  for (const Verdict& v : {decode_chunked(bytes, [] { return 1; }),
                           decode_chunked(bytes, random_chunk)}) {
    EXPECT_EQ(v.end, whole.end);
    EXPECT_EQ(v.consumed, whole.consumed);
    EXPECT_EQ(v.frames.size(), whole.frames.size());
    for (std::size_t i = 0; i < std::min(v.frames.size(),
                                         whole.frames.size()); ++i) {
      expect_same_frame(v.frames[i], whole.frames[i]);
    }
  }
  Pair p;
  p.write_bytes(bytes);
  p.finish();
  for (const Frame& want : whole.frames) {
    Frame got;
    EXPECT_TRUE(read_frame(p.fd[1], got));
    expect_same_frame(got, want);
  }
  Frame extra;
  EXPECT_FALSE(read_frame(p.fd[1], extra));
  return whole;
}

TEST(FrameFuzz, RoundtripSurvivesTheCodec) {
  const auto wire = encode_frame(3, 0, "feedback", payload_of(std::vector<float>{1.f, 2.f}));
  ASSERT_GT(wire.size(), kFrameHeaderBytes);
  const std::uint32_t body_len = decode_frame_header(wire.data());
  ASSERT_EQ(body_len, wire.size() - kFrameHeaderBytes);
  const Frame f = decode_frame_body(wire.data() + kFrameHeaderBytes,
                                    body_len);
  EXPECT_EQ(f.src, 3);
  EXPECT_EQ(f.dst, 0);
  EXPECT_EQ(f.tag, "feedback");

  Pair p;
  p.write_bytes(wire);
  p.finish();
  Frame g;
  ASSERT_TRUE(read_frame(p.fd[1], g));
  EXPECT_EQ(g.src, 3);
  EXPECT_EQ(g.tag, "feedback");
  EXPECT_EQ(g.payload.read_floats(), (std::vector<float>{1.f, 2.f}));
  EXPECT_FALSE(read_frame(p.fd[1], g));  // then clean EOF
}

TEST(FrameFuzz, TruncatedHeaderIsEofNotACrash) {
  for (std::size_t cut = 0; cut < kFrameHeaderBytes; ++cut) {
    Pair p;
    const auto wire = encode_frame(1, 0, "t", payload_of(std::vector<float>{1.f}));
    if (cut > 0) p.write_bytes(wire.data(), cut);
    p.finish();
    Frame f;
    EXPECT_FALSE(read_frame(p.fd[1], f)) << "cut at byte " << cut;
  }
}

TEST(FrameFuzz, BadMagicIsRejected) {
  std::uint8_t header[kFrameHeaderBytes];
  put_le32(header, 0xdeadbeefu);
  put_le32(header + 4, 16);
  EXPECT_THROW(decode_frame_header(header), std::runtime_error);

  Pair p;
  p.write_bytes(header, sizeof(header));
  p.finish();
  Frame f;
  EXPECT_FALSE(read_frame(p.fd[1], f));
}

TEST(FrameFuzz, OversizeBodyLenIsRejectedBeforeAllocation) {
  // body_len fields of 1 GiB + 1 and 4 GiB - 1: both must be rejected
  // from the 8 header bytes alone — the payload is never allocated,
  // never read.
  for (std::uint32_t body_len :
       {kMaxFrameBodyBytes + 1, 0xffffffffu}) {
    std::uint8_t header[kFrameHeaderBytes];
    put_le32(header, kFrameMagic);
    put_le32(header + 4, body_len);
    EXPECT_THROW(decode_frame_header(header), std::runtime_error);

    Pair p;
    p.write_bytes(header, sizeof(header));
    p.finish();
    Frame f;
    EXPECT_FALSE(read_frame(p.fd[1], f));
  }
}

TEST(FrameFuzz, TagLengthOverrunsAreRejected) {
  // (a) tag_len larger than the whole body.
  {
    std::uint8_t body[kFrameBodyFixedBytes] = {};
    put_le32(body, 1);                              // src
    put_le32(body + 4, 0);                          // dst
    put_le32(body + 8, 64);                         // tag_len > remaining 0
    EXPECT_THROW(decode_frame_body(body, sizeof(body)),
                 std::runtime_error);
  }
  // (b) tag_len over the cap, inside an otherwise plausible body —
  // must be rejected before a tag that large is ever allocated.
  {
    std::uint8_t wire[kFrameHeaderBytes + kFrameBodyFixedBytes] = {};
    put_le32(wire, kFrameMagic);
    put_le32(wire + 4, kFrameBodyFixedBytes + kMaxFrameTagBytes + 1);
    put_le32(wire + 8, 1);
    put_le32(wire + 12, 0);
    put_le32(wire + 16, kMaxFrameTagBytes + 1);
    Pair p;
    p.write_bytes(wire, sizeof(wire));
    p.finish();
    Frame f;
    EXPECT_FALSE(read_frame(p.fd[1], f));
  }
}

TEST(FrameFuzz, TruncatedPayloadIsEofNotAHangOrCrash) {
  const auto wire = encode_frame(2, 0, "feedback",
                                 payload_of(std::vector<float>{1.f, 2.f, 3.f, 4.f}));
  // Cut the stream at every boundary inside the body.
  for (std::size_t cut = kFrameHeaderBytes; cut < wire.size(); cut += 5) {
    Pair p;
    p.write_bytes(wire.data(), cut);
    p.finish();
    Frame f;
    EXPECT_FALSE(read_frame(p.fd[1], f)) << "cut at byte " << cut;
  }
}

TEST(FrameFuzz, SeededGarbageNeverCrashesTheReader) {
  Rng rng(0xfeedface);
  for (int it = 0; it < 200; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform() * 96);
    std::vector<std::uint8_t> junk(n);
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniform() * 256.0);
    }
    // Half the iterations lead with a valid magic so the fuzz also
    // exercises the post-header paths, not just the magic check.
    if (it % 2 == 0 && n >= 4) put_le32(junk.data(), kFrameMagic);
    Pair p;
    p.write_bytes(junk);
    p.finish();
    Frame f;
    // True is conceivable (garbage can spell a tiny valid frame);
    // the property under test is only no-crash / no-hang.
    (void)read_frame(p.fd[1], f);
  }
}

// Every malformation class above, now fed to the decoder in 1-byte and
// random-size chunks as well as whole: the verdict, the consumed byte
// count and every Frame must match. Rejections happen at the stage that
// holds the offending field, before anything is allocated for the tag
// or the payload.
TEST(FrameFuzz, ChunkedDecodingMatchesWholeBufferDecoding) {
  std::uint64_t seed = 1;
  // Valid: two back-to-back frames (one traced, one empty).
  TraceCtx ctx;
  ctx.node = 2;
  ctx.seq = 9;
  ctx.span = 0x1234567890abcdefull;
  auto two = encode_frame(2, 1, "disc_swap",
                          payload_of(std::vector<float>{1.f, 2.f, 3.f}), ctx);
  const auto empty = encode_frame(0, 1, "!epoch", ByteBuffer());
  two.insert(two.end(), empty.begin(), empty.end());
  Verdict v = expect_chunking_invariant(two, seed++);
  EXPECT_EQ(v.end, End::kClean);
  ASSERT_EQ(v.frames.size(), 2u);
  EXPECT_EQ(v.frames[0].ctx.span, ctx.span);
  EXPECT_EQ(v.frames[1].tag, "!epoch");

  // Truncated at every byte of a frame.
  const auto wire = encode_frame(2, 0, "feedback",
                                 payload_of(std::vector<float>{1.f, 2.f}));
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    v = expect_chunking_invariant(
        std::vector<std::uint8_t>(wire.begin(), wire.begin() + cut), seed++);
    EXPECT_EQ(v.end, End::kTruncated) << "cut at byte " << cut;
  }

  // Bad magic and oversize body_len: rejected from the 8 header bytes.
  for (const auto& [magic, body_len] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {0xdeadbeefu, 16},
           {kFrameMagic, kMaxFrameBodyBytes + 1},
           {kFrameMagic, 0xffffffffu},
           {kFrameMagic, kFrameBodyFixedBytes - 1}}) {
    std::vector<std::uint8_t> bad(kFrameHeaderBytes + 64, 0x41);
    put_le32(bad.data(), magic);
    put_le32(bad.data() + 4, body_len);
    v = expect_chunking_invariant(bad, seed++);
    EXPECT_EQ(v.end, End::kRejected);
    EXPECT_EQ(v.consumed, kFrameHeaderBytes);
  }

  // Tag overruns (past the body, past the cap): rejected from the fixed
  // fields, before the tag is allocated.
  for (const auto& [body_len, tag_len] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {kFrameBodyFixedBytes + 4, 5},
           {kFrameBodyFixedBytes + kMaxFrameTagBytes + 1,
            kMaxFrameTagBytes + 1}}) {
    std::vector<std::uint8_t> bad(kFrameHeaderBytes + body_len, 0);
    put_le32(bad.data(), kFrameMagic);
    put_le32(bad.data() + 4, body_len);
    put_le32(bad.data() + 16, tag_len);
    v = expect_chunking_invariant(bad, seed++);
    EXPECT_EQ(v.end, End::kRejected);
    EXPECT_EQ(v.consumed, kFrameHeaderBytes + kFrameBodyFixedBytes);
  }

  // Seeded garbage, half of it behind a valid magic.
  Rng rng(0xfeedface);
  for (int it = 0; it < 200; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform() * 96);
    std::vector<std::uint8_t> junk(n);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform() * 256.0);
    if (it % 2 == 0 && n >= 4) put_le32(junk.data(), kFrameMagic);
    expect_chunking_invariant(junk, seed++);
  }
}

// The adversary against a live server: a connection that sends
// garbage instead of a hello must neither crash the server nor wedge
// its rendezvous — a legitimate worker joining afterwards still forms
// the cluster.
TEST(FrameFuzz, GarbageHelloDoesNotStallTheAcceptor) {
  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto server = TcpNetwork::serve(0, 1, opts);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::write(fd, junk, sizeof(junk)), 0);
  ::close(fd);

  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 1, opts);
  EXPECT_TRUE(server->wait_ready());
  EXPECT_TRUE(w1->wait_ready());
  EXPECT_TRUE(server->is_alive(1));
}

// --- the control-frame vocabulary under the same adversary --------------

TEST(FrameFuzz, ControlTagAtTheLengthCapBoundary) {
  // Exactly at the cap: a legal (if absurd) control tag; the reader
  // accepts it and higher layers ignore the unknown '!' name.
  std::string fat_tag(kMaxFrameTagBytes, 'x');
  fat_tag[0] = kControlTagPrefix;
  const auto wire = encode_frame(0, 1, fat_tag, ByteBuffer());
  Pair p;
  p.write_bytes(wire);
  p.finish();
  Frame f;
  ASSERT_TRUE(read_frame(p.fd[1], f));
  EXPECT_EQ(f.tag, fat_tag);
  EXPECT_TRUE(is_control_tag(f.tag));

  // One byte over: rejected from the length fields alone, before the
  // tag (or a 1 GiB "!state..." body riding behind it) is allocated.
  std::uint8_t raw[kFrameHeaderBytes + kFrameBodyFixedBytes] = {};
  put_le32(raw, kFrameMagic);
  put_le32(raw + 4, kFrameBodyFixedBytes + kMaxFrameTagBytes + 1);
  put_le32(raw + 8, 0);                       // src
  put_le32(raw + 12, 1);                      // dst
  put_le32(raw + 16, kMaxFrameTagBytes + 1);  // tag_len over the cap
  Pair q;
  q.write_bytes(raw, sizeof(raw));
  q.finish();
  EXPECT_FALSE(read_frame(q.fd[1], f));
}

TEST(FrameFuzz, GarbagePongInsteadOfHelloIsRejectedByTheAcceptor) {
  // A connection whose first frame is a well-formed !pong from an
  // unknown id — not a hello — must be turned away without crashing
  // the server or wedging the rendezvous.
  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto server = TcpNetwork::serve(0, 1, opts);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ByteBuffer junk_pong;
  junk_pong.write_pod<std::uint64_t>(0xdeadu);
  const auto wire = encode_frame(42, kServerId, kTagPong, junk_pong);
  ASSERT_GT(::write(fd, wire.data(), wire.size()), 0);
  ::close(fd);

  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 1, opts);
  EXPECT_TRUE(server->wait_ready());
  EXPECT_TRUE(w1->wait_ready());
  EXPECT_TRUE(server->is_alive(1));
}

TEST(FrameFuzz, MalformedControlFramesAfterAValidHelloAreDropped) {
  // A seated worker that turns hostile: truncated pongs, pongs spoofing
  // another id, worker-bound tags aimed at the server, unknown control
  // names. All dropped; the connection and the server survive.
  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto server = TcpNetwork::serve(0, 1, opts);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  auto send_frame = [&](const std::vector<std::uint8_t>& wire) {
    ASSERT_EQ(::write(fd, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
  };
  ByteBuffer hello;
  hello.write_pod<std::uint32_t>(1);
  hello.write_pod<std::uint64_t>(1);
  send_frame(encode_frame(1, kServerId, kTagHello, hello));
  ASSERT_TRUE(server->wait_ready());

  send_frame(encode_frame(1, kServerId, kTagPong, ByteBuffer()));
  ByteBuffer short_pong;
  short_pong.write_pod<std::uint32_t>(7);  // u64+f64 expected
  send_frame(encode_frame(1, kServerId, kTagPong, short_pong));
  ByteBuffer spoofed;
  spoofed.write_pod<std::uint64_t>(1);
  spoofed.write_pod<double>(0.0);
  send_frame(encode_frame(7, kServerId, kTagPong, spoofed));  // wrong src
  ByteBuffer theta;
  theta.write_pod<std::uint8_t>(0x7f);
  send_frame(encode_frame(1, kServerId, kTagState, theta));  // S->W tag
  send_frame(encode_frame(1, kServerId, "!wat", ByteBuffer()));

  // The server has digested (dropped) all of it and the peer is still
  // seated: a real data frame afterwards is delivered normally.
  ByteBuffer data;
  data.write_floats(std::vector<float>{3.5f}.data(), 1);
  send_frame(encode_frame(1, kServerId, "feedback", data));
  const auto msg = server->receive_tagged(kServerId, "feedback");
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, 1);
  EXPECT_TRUE(server->is_alive(1));
  ::close(fd);
}

TEST(FrameFuzz, TruncatedStateAndAdmitFramesDoNotKillTheWorker) {
  // The mirror image: a hostile/corrupt *server* feeding a worker
  // endpoint truncated !admit bodies and a truncated θ inside a
  // well-framed !state. The control handler drops the former; the latter
  // is stored verbatim and fails loudly (and cleanly) only at
  // RejoinState::decode.
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &alen),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::thread fake_server([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    Frame hello;
    ASSERT_TRUE(read_frame(fd, hello));
    EXPECT_EQ(hello.tag, kTagHello);
    auto send_frame = [&](const std::string& tag, const ByteBuffer& pay) {
      const auto wire = encode_frame(kServerId, 1, tag, pay);
      ASSERT_EQ(::write(fd, wire.data(), wire.size()),
                static_cast<ssize_t>(wire.size()));
    };
    // An empty !ping: echoed verbatim, nothing to parse.
    send_frame(kTagPing, ByteBuffer());
    // A truncated !admit (u32 only; u32+i64+u64 expected) and one whose
    // fields parse but point at a nonsense worker.
    ByteBuffer cut;
    cut.write_pod<std::uint32_t>(1);
    send_frame(kTagAdmit, cut);
    ByteBuffer bogus;
    bogus.write_pod<std::uint32_t>(999);
    bogus.write_pod<std::int64_t>(4);
    bogus.write_pod<std::uint64_t>(2);
    send_frame(kTagAdmit, bogus);
    // A well-framed !state carrying a truncated θ payload.
    ByteBuffer theta;
    theta.write_pod<std::uint8_t>(1);  // the RejoinState version byte
    theta.write_pod<std::uint32_t>(0xffffu);  // then: nothing
    send_frame(kTagState, theta);
    // Finally the legitimate hello-ack so wait_ready can succeed.
    ByteBuffer epoch;
    epoch.write_pod<std::uint64_t>(1);
    epoch.write_pod<std::uint32_t>(1);
    epoch.write_pod<std::uint8_t>(1);
    send_frame(kTagEpoch, epoch);
    // The worker's reply to the ping must arrive — proof its I/O loop
    // survived everything that preceded it.
    Frame pong;
    EXPECT_TRUE(read_frame(fd, pong));
    EXPECT_EQ(pong.tag, kTagPong);
    ::close(fd);
  });

  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto w1 = TcpNetwork::connect("127.0.0.1", port, 1, 1, opts);
  EXPECT_TRUE(w1->wait_ready());
  auto payload = w1->wait_rejoin_state(10.0);
  ASSERT_TRUE(payload.has_value());
  EXPECT_THROW(core::RejoinState::decode(*payload), std::runtime_error);
  fake_server.join();
  ::close(listen_fd);
}

}  // namespace
}  // namespace mdgan::dist
