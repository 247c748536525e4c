#pragma once

// Packet model: Ethernet / IPv4 / TCP|UDP headers plus payload, with real
// wire serialization (big-endian, internet checksums) and parsing.
//
// The simulator mostly passes Packet values around in structured form, but
// serialization is load-bearing: ident++ query/response packets travel as
// TCP payloads, and tests round-trip every header through bytes.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/flow.hpp"
#include "net/ipv4.hpp"

namespace identxx::net {

struct EthernetHeader {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ether_type = 0x0800;

  static constexpr std::size_t kSize = 14;
  [[nodiscard]] bool operator==(const EthernetHeader&) const noexcept = default;
};

struct Ipv4Header {
  std::uint8_t dscp = 0;
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  IpProto proto = IpProto::kTcp;
  Ipv4Address src;
  Ipv4Address dst;
  // total_length and checksum are computed at serialization time.

  static constexpr std::size_t kSize = 20;  // no options
  [[nodiscard]] bool operator==(const Ipv4Header&) const noexcept = default;
};

/// TCP flag bits.
struct TcpFlags {
  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kPsh = 0x08;
  static constexpr std::uint8_t kAck = 0x10;
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = TcpFlags::kSyn;
  std::uint16_t window = 65535;

  static constexpr std::size_t kSize = 20;  // no options
  [[nodiscard]] bool operator==(const TcpHeader&) const noexcept = default;
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  static constexpr std::size_t kSize = 8;
  [[nodiscard]] bool operator==(const UdpHeader&) const noexcept = default;
};

/// A full frame.  Exactly one of `tcp` / `udp` is set for TCP/UDP packets;
/// neither for other IP protocols.
struct Packet {
  EthernetHeader eth;
  Ipv4Header ip;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] bool operator==(const Packet&) const noexcept = default;

  /// Transport source/destination ports (0 when not TCP/UDP).
  [[nodiscard]] std::uint16_t src_port() const noexcept;
  [[nodiscard]] std::uint16_t dst_port() const noexcept;

  /// Flow identity of this packet.
  [[nodiscard]] FiveTuple five_tuple() const noexcept;

  /// OpenFlow match fields; `in_port` supplied by the receiving switch.
  [[nodiscard]] TenTuple ten_tuple(std::uint16_t in_port) const noexcept;

  /// Payload interpreted as text (for ident++ wire messages): a view of
  /// `payload`, valid until the payload changes or the packet dies.
  [[nodiscard]] std::string_view payload_text() const noexcept;
  void set_payload_text(std::string_view text);

  /// Serialize to wire bytes, computing lengths and checksums.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;

  /// Parse wire bytes; verifies structure and the IPv4 header checksum.
  /// Returns nullopt on truncation, bad version, or checksum mismatch.
  [[nodiscard]] static std::optional<Packet> from_bytes(
      std::span<const std::uint8_t> bytes);

  [[nodiscard]] std::string to_string() const;
};

/// Builders for the common cases.
[[nodiscard]] Packet make_tcp_packet(MacAddress src_mac, MacAddress dst_mac,
                                     Ipv4Address src_ip, Ipv4Address dst_ip,
                                     std::uint16_t src_port,
                                     std::uint16_t dst_port,
                                     std::string_view payload = {},
                                     std::uint8_t flags = TcpFlags::kSyn);

[[nodiscard]] Packet make_udp_packet(MacAddress src_mac, MacAddress dst_mac,
                                     Ipv4Address src_ip, Ipv4Address dst_ip,
                                     std::uint16_t src_port,
                                     std::uint16_t dst_port,
                                     std::string_view payload = {});

/// RFC 1071 internet checksum over `data` (pads odd length with zero).
[[nodiscard]] std::uint16_t internet_checksum(
    std::span<const std::uint8_t> data) noexcept;

}  // namespace identxx::net
