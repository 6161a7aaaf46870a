// Seeded input generation and the expectation model for the paper's four
// apps (examples/p4): frame builders, rule text, and for every generated
// frame the bytes and port it must leave on — or that it must be dropped.
#ifndef H4BENCH_TRAFFIC_H_
#define H4BENCH_TRAFFIC_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace h4bench {

// splitmix64: every input of a run derives from --seed through this.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) { return static_cast<std::uint32_t>(next() % n); }
  bool chance(double p) { return static_cast<double>(next() >> 11) * 0x1.0p-53 < p; }
  Rng fork(std::uint64_t salt) { return Rng(next() ^ (salt * 0xd1342543de82ef95ull)); }

 private:
  std::uint64_t s_;
};

using Mac = std::array<std::uint8_t, 6>;

inline Mac mac_of(std::uint64_t v) {
  Mac m{};
  for (int i = 5; i >= 0; --i, v >>= 8) m[i] = static_cast<std::uint8_t>(v);
  m[0] &= 0xfe;  // unicast
  return m;
}

inline std::string mac_str(const Mac& m) {
  char b[18];
  std::snprintf(b, sizeof(b), "%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4],
                m[5]);
  return b;
}

inline std::string ip_str(std::uint32_t ip) {
  char b[16];
  std::snprintf(b, sizeof(b), "%u.%u.%u.%u", ip >> 24, (ip >> 16) & 255, (ip >> 8) & 255,
                ip & 255);
  return b;
}

// ---- frame builders -------------------------------------------------------

struct FiveTuple {
  std::uint32_t src = 0, dst = 0;
  std::uint16_t sport = 0, dport = 0;
  std::uint8_t proto = 6;  // 6 tcp, 17 udp
};

inline void put16(std::vector<std::uint8_t>& b, std::size_t at, std::uint16_t v) {
  b[at] = static_cast<std::uint8_t>(v >> 8);
  b[at + 1] = static_cast<std::uint8_t>(v);
}
inline void put32(std::vector<std::uint8_t>& b, std::size_t at, std::uint32_t v) {
  put16(b, at, static_cast<std::uint16_t>(v >> 16));
  put16(b, at + 2, static_cast<std::uint16_t>(v));
}
inline void put_mac(std::vector<std::uint8_t>& b, std::size_t at, const Mac& m) {
  for (int i = 0; i < 6; ++i) b[at + i] = m[i];
}

// RFC 1071 checksum of the 20-byte IPv4 header at offset 14.
inline void ipv4_fix_checksum(std::vector<std::uint8_t>& b) {
  put16(b, 24, 0);
  std::uint32_t sum = 0;
  for (std::size_t i = 14; i < 34; i += 2) sum += (b[i] << 8) | b[i + 1];
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  put16(b, 24, static_cast<std::uint16_t>(~sum));
}

// Ethernet + IPv4 + TCP/UDP frame of `len` bytes (payload patterned).
inline std::vector<std::uint8_t> ipv4_frame(const Mac& dst, const Mac& src, const FiveTuple& t,
                                            std::uint8_t ttl, std::size_t len) {
  std::vector<std::uint8_t> b(len);
  for (std::size_t i = 0; i < len; ++i) b[i] = static_cast<std::uint8_t>(i * 7 + t.sport);
  put_mac(b, 0, dst);
  put_mac(b, 6, src);
  put16(b, 12, 0x0800);
  b[14] = 0x45;
  b[15] = 0;
  put16(b, 16, static_cast<std::uint16_t>(len - 14));
  put16(b, 18, static_cast<std::uint16_t>(t.sport ^ t.dport));
  put16(b, 20, 0x4000);
  b[22] = ttl;
  b[23] = t.proto;
  put32(b, 26, t.src);
  put32(b, 30, t.dst);
  ipv4_fix_checksum(b);
  put16(b, 34, t.sport);
  put16(b, 36, t.dport);
  if (t.proto == 17) {
    put16(b, 38, static_cast<std::uint16_t>(len - 34));
    put16(b, 40, 0);
  } else {
    put32(b, 38, t.sport * 2654435761u);
    put32(b, 42, 0);
    b[46] = 0x50;
    b[47] = 0x10;
    put16(b, 48, 0xffff);
    put16(b, 50, 0);
    put16(b, 52, 0);
  }
  return b;
}

// 64-byte ARP request: who has `tpa`, tell `spa` (`sha`).
inline std::vector<std::uint8_t> arp_request(const Mac& sha, std::uint32_t spa,
                                             std::uint32_t tpa) {
  std::vector<std::uint8_t> b(64, 0);
  put_mac(b, 0, Mac{0xff, 0xff, 0xff, 0xff, 0xff, 0xff});
  put_mac(b, 6, sha);
  put16(b, 12, 0x0806);
  put16(b, 14, 1);       // htype ethernet
  put16(b, 16, 0x0800);  // ptype ipv4
  b[18] = 6;
  b[19] = 4;
  put16(b, 20, 1);  // request
  put_mac(b, 22, sha);
  put32(b, 28, spa);
  put32(b, 38, tpa);
  return b;
}

// arp_proxy's arp_reply action applied to a request, answering with `mac`.
inline std::vector<std::uint8_t> arp_reply_of(std::vector<std::uint8_t> b, const Mac& mac) {
  Mac sha{};
  for (int i = 0; i < 6; ++i) sha[i] = b[22 + i];
  std::uint32_t spa = 0, tpa = 0;
  for (int i = 0; i < 4; ++i) {
    spa = (spa << 8) | b[28 + i];
    tpa = (tpa << 8) | b[38 + i];
  }
  put_mac(b, 0, sha);   // ethernet.dstAddr <- srcAddr
  put_mac(b, 6, mac);   // ethernet.srcAddr <- mac
  put16(b, 20, 2);      // reply
  put_mac(b, 32, sha);  // tha <- sha
  put_mac(b, 22, mac);  // sha <- mac
  put32(b, 28, tpa);    // spa <-> tpa
  put32(b, 38, spa);
  return b;
}

// A generated input with its expected result.
struct Frame {
  std::uint16_t in_port = 0;
  std::vector<std::uint8_t> bytes;
  bool drop = false;
  std::uint16_t out_port = 0;
  std::vector<std::uint8_t> expect;  // empty when dropped
};

inline FiveTuple random_tuple(Rng& r, std::uint32_t src_base, std::uint32_t src_mask) {
  FiveTuple t;
  t.src = src_base | (static_cast<std::uint32_t>(r.next()) & src_mask);
  t.dst = 0x0b000000u | (static_cast<std::uint32_t>(r.next()) & 0x00ffffffu);  // 11/8
  t.sport = static_cast<std::uint16_t>(1024 + r.below(60000));
  t.dport = static_cast<std::uint16_t>(1 + r.below(1023));
  t.proto = r.chance(0.7) ? 6 : 17;
  return t;
}

// Mostly minimum-size frames, a minority of full-size ones.
inline std::size_t frame_len(Rng& r) { return r.chance(0.15) ? 1500 : 64; }

}  // namespace h4bench

#endif  // H4BENCH_TRAFFIC_H_
