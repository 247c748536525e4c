#include "net/packet.hpp"

#include <cstring>

namespace identxx::net {

namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u48(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 40; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

[[nodiscard]] std::uint16_t get_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

[[nodiscard]] std::uint64_t get_u48(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 6; ++i) v = (v << 8) | p[i];
  return v;
}

void patch_u16(std::vector<std::uint8_t>& buf, std::size_t offset,
               std::uint16_t v) {
  buf[offset] = static_cast<std::uint8_t>(v >> 8);
  buf[offset + 1] = static_cast<std::uint8_t>(v);
}

}  // namespace

std::string to_string(IpProto proto) {
  switch (proto) {
    case IpProto::kIcmp: return "icmp";
    case IpProto::kTcp:  return "tcp";
    case IpProto::kUdp:  return "udp";
  }
  return "proto-" + std::to_string(static_cast<int>(proto));
}

std::string FiveTuple::to_string() const {
  return net::to_string(proto) + " " + src_ip.to_string() + ":" +
         std::to_string(src_port) + " -> " + dst_ip.to_string() + ":" +
         std::to_string(dst_port);
}

std::string TenTuple::to_string() const {
  return "[port " + std::to_string(in_port) + " " + src_mac.to_string() +
         " -> " + dst_mac.to_string() + " vlan " + std::to_string(vlan_id) +
         "] " + five_tuple().to_string();
}

std::uint16_t Packet::src_port() const noexcept {
  if (tcp) return tcp->src_port;
  if (udp) return udp->src_port;
  return 0;
}

std::uint16_t Packet::dst_port() const noexcept {
  if (tcp) return tcp->dst_port;
  if (udp) return udp->dst_port;
  return 0;
}

FiveTuple Packet::five_tuple() const noexcept {
  return FiveTuple{ip.src, ip.dst, ip.proto, src_port(), dst_port()};
}

TenTuple Packet::ten_tuple(std::uint16_t in_port) const noexcept {
  return TenTuple{in_port,   eth.src,  eth.dst,  eth.ether_type, 0,
                  ip.src,    ip.dst,   ip.proto, src_port(),     dst_port()};
}

std::string_view Packet::payload_text() const noexcept {
  return {reinterpret_cast<const char*>(payload.data()), payload.size()};
}

void Packet::set_payload_text(std::string_view text) {
  payload.assign(text.begin(), text.end());
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i] << 8);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum);
}

std::vector<std::uint8_t> Packet::to_bytes() const {
  std::vector<std::uint8_t> out;
  const std::size_t transport_size =
      tcp ? TcpHeader::kSize : (udp ? UdpHeader::kSize : 0);
  out.reserve(EthernetHeader::kSize + Ipv4Header::kSize + transport_size +
              payload.size());

  // Ethernet.
  put_u48(out, eth.dst.value());
  put_u48(out, eth.src.value());
  put_u16(out, eth.ether_type);

  // IPv4.
  const std::size_t ip_offset = out.size();
  const auto total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + transport_size + payload.size());
  put_u8(out, 0x45);  // version 4, IHL 5
  put_u8(out, ip.dscp);
  put_u16(out, total_length);
  put_u16(out, ip.identification);
  put_u16(out, 0);  // flags + fragment offset
  put_u8(out, ip.ttl);
  put_u8(out, static_cast<std::uint8_t>(ip.proto));
  put_u16(out, 0);  // checksum placeholder
  put_u32(out, ip.src.value());
  put_u32(out, ip.dst.value());
  const std::uint16_t ip_csum = internet_checksum(
      std::span(out.data() + ip_offset, Ipv4Header::kSize));
  patch_u16(out, ip_offset + 10, ip_csum);

  // Transport.
  if (tcp) {
    const std::size_t tcp_offset = out.size();
    put_u16(out, tcp->src_port);
    put_u16(out, tcp->dst_port);
    put_u32(out, tcp->seq);
    put_u32(out, tcp->ack);
    put_u8(out, 0x50);  // data offset 5
    put_u8(out, tcp->flags);
    put_u16(out, tcp->window);
    put_u16(out, 0);  // checksum placeholder
    put_u16(out, 0);  // urgent pointer
    out.insert(out.end(), payload.begin(), payload.end());
    // TCP checksum over pseudo-header + segment.
    std::vector<std::uint8_t> pseudo;
    pseudo.reserve(12 + TcpHeader::kSize + payload.size());
    put_u32(pseudo, ip.src.value());
    put_u32(pseudo, ip.dst.value());
    put_u8(pseudo, 0);
    put_u8(pseudo, static_cast<std::uint8_t>(ip.proto));
    put_u16(pseudo, static_cast<std::uint16_t>(TcpHeader::kSize + payload.size()));
    pseudo.insert(pseudo.end(), out.begin() + static_cast<std::ptrdiff_t>(tcp_offset),
                  out.end());
    patch_u16(out, tcp_offset + 16, internet_checksum(pseudo));
  } else if (udp) {
    const std::size_t udp_offset = out.size();
    const auto udp_length =
        static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
    put_u16(out, udp->src_port);
    put_u16(out, udp->dst_port);
    put_u16(out, udp_length);
    put_u16(out, 0);  // checksum placeholder
    out.insert(out.end(), payload.begin(), payload.end());
    std::vector<std::uint8_t> pseudo;
    pseudo.reserve(12 + udp_length);
    put_u32(pseudo, ip.src.value());
    put_u32(pseudo, ip.dst.value());
    put_u8(pseudo, 0);
    put_u8(pseudo, static_cast<std::uint8_t>(ip.proto));
    put_u16(pseudo, udp_length);
    pseudo.insert(pseudo.end(), out.begin() + static_cast<std::ptrdiff_t>(udp_offset),
                  out.end());
    patch_u16(out, udp_offset + 6, internet_checksum(pseudo));
  } else {
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

std::optional<Packet> Packet::from_bytes(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < EthernetHeader::kSize + Ipv4Header::kSize) {
    return std::nullopt;
  }
  Packet pkt;
  pkt.eth.dst = MacAddress(get_u48(bytes.data()));
  pkt.eth.src = MacAddress(get_u48(bytes.data() + 6));
  pkt.eth.ether_type = get_u16(bytes.data() + 12);
  if (pkt.eth.ether_type != 0x0800) return std::nullopt;  // IPv4 only

  const std::uint8_t* ip_start = bytes.data() + EthernetHeader::kSize;
  if ((ip_start[0] >> 4) != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(ip_start[0] & 0x0f) * 4;
  if (ihl < Ipv4Header::kSize) return std::nullopt;
  if (bytes.size() < EthernetHeader::kSize + ihl) return std::nullopt;
  if (internet_checksum(std::span(ip_start, ihl)) != 0) return std::nullopt;

  pkt.ip.dscp = ip_start[1];
  const std::uint16_t total_length = get_u16(ip_start + 2);
  pkt.ip.identification = get_u16(ip_start + 4);
  pkt.ip.ttl = ip_start[8];
  pkt.ip.proto = static_cast<IpProto>(ip_start[9]);
  pkt.ip.src = Ipv4Address(get_u32(ip_start + 12));
  pkt.ip.dst = Ipv4Address(get_u32(ip_start + 16));

  if (total_length < ihl ||
      bytes.size() < EthernetHeader::kSize + total_length) {
    return std::nullopt;
  }
  const std::uint8_t* l4 = ip_start + ihl;
  const std::size_t l4_length = total_length - ihl;

  if (pkt.ip.proto == IpProto::kTcp) {
    if (l4_length < TcpHeader::kSize) return std::nullopt;
    TcpHeader tcp;
    tcp.src_port = get_u16(l4);
    tcp.dst_port = get_u16(l4 + 2);
    tcp.seq = get_u32(l4 + 4);
    tcp.ack = get_u32(l4 + 8);
    const std::size_t data_offset = static_cast<std::size_t>(l4[12] >> 4) * 4;
    if (data_offset < TcpHeader::kSize || data_offset > l4_length) {
      return std::nullopt;
    }
    tcp.flags = l4[13];
    tcp.window = get_u16(l4 + 14);
    pkt.tcp = tcp;
    pkt.payload.assign(l4 + data_offset, l4 + l4_length);
  } else if (pkt.ip.proto == IpProto::kUdp) {
    if (l4_length < UdpHeader::kSize) return std::nullopt;
    UdpHeader udp;
    udp.src_port = get_u16(l4);
    udp.dst_port = get_u16(l4 + 2);
    const std::uint16_t udp_length = get_u16(l4 + 4);
    if (udp_length < UdpHeader::kSize || udp_length > l4_length) {
      return std::nullopt;
    }
    pkt.udp = udp;
    pkt.payload.assign(l4 + UdpHeader::kSize, l4 + udp_length);
  } else {
    pkt.payload.assign(l4, l4 + l4_length);
  }
  return pkt;
}

std::string Packet::to_string() const {
  std::string out = five_tuple().to_string();
  if (tcp) {
    out += " [";
    if (tcp->flags & TcpFlags::kSyn) out += 'S';
    if (tcp->flags & TcpFlags::kAck) out += 'A';
    if (tcp->flags & TcpFlags::kFin) out += 'F';
    if (tcp->flags & TcpFlags::kRst) out += 'R';
    if (tcp->flags & TcpFlags::kPsh) out += 'P';
    out += ']';
  }
  out += " payload=" + std::to_string(payload.size()) + "B";
  return out;
}

Packet make_tcp_packet(MacAddress src_mac, MacAddress dst_mac,
                       Ipv4Address src_ip, Ipv4Address dst_ip,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::string_view payload, std::uint8_t flags) {
  Packet pkt;
  pkt.eth = EthernetHeader{dst_mac, src_mac, 0x0800};
  pkt.ip.proto = IpProto::kTcp;
  pkt.ip.src = src_ip;
  pkt.ip.dst = dst_ip;
  TcpHeader tcp;
  tcp.src_port = src_port;
  tcp.dst_port = dst_port;
  tcp.flags = flags;
  pkt.tcp = tcp;
  pkt.set_payload_text(payload);
  return pkt;
}

Packet make_udp_packet(MacAddress src_mac, MacAddress dst_mac,
                       Ipv4Address src_ip, Ipv4Address dst_ip,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::string_view payload) {
  Packet pkt;
  pkt.eth = EthernetHeader{dst_mac, src_mac, 0x0800};
  pkt.ip.proto = IpProto::kUdp;
  pkt.ip.src = src_ip;
  pkt.ip.dst = dst_ip;
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  pkt.udp = udp;
  pkt.set_payload_text(payload);
  return pkt;
}

}  // namespace identxx::net
