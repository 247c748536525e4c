// pfeval — evaluate a PF+=2 policy against a hypothetical flow.
//
// Lets an administrator answer "what would the controller decide?" without
// touching the network: supply the policy file(s), the flow 5-tuple, and
// the key-value pairs the two daemons would return.  The verdict comes from
// pf::PolicyEngine::evaluate, the evaluator the controller decides through.
// One difference: a PolicyError (an unknown table, function or dictionary
// the scan reaches) exits 1 with its message here, where the controller
// logs it and blocks the flow.
//
//   $ pfeval --policy 50-skype.control <backslash>
//            --flow tcp:192.168.0.10:40000:192.168.0.11:5555 <backslash>
//            --src name=skype,version=210 --dst name=skype
//   pass (rule at 50-skype.control:5) [keep-state=no quick=no log=no]
//
// Exit status: 0 = pass, 2 = block, 1 = usage, parse or policy error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pf/control_files.hpp"
#include "pf/eval.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

using namespace identxx;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// "name=skype,version=210" -> a response of one section.
proto::Response parse_pairs(std::string_view spec) {
  proto::Response response;
  proto::Section section;
  for (const auto item : util::split(spec, ',')) {
    if (util::trim(item).empty()) continue;
    const auto [key, value] = util::split_once(item, '=');
    if (!value) throw Error("expected key=value, got '" + std::string(item) + "'");
    section.add(std::string(util::trim(key)), std::string(util::trim(*value)));
  }
  response.append_section(std::move(section));
  return response;
}

/// "tcp:SRC:SPORT:DST:DPORT".
net::FiveTuple parse_flow(std::string_view spec) {
  const auto parts = util::split(spec, ':');
  if (parts.size() != 5) {
    throw Error("flow must be proto:src_ip:src_port:dst_ip:dst_port");
  }
  net::FiveTuple flow;
  if (util::iequals(parts[0], "tcp")) {
    flow.proto = net::IpProto::kTcp;
  } else if (util::iequals(parts[0], "udp")) {
    flow.proto = net::IpProto::kUdp;
  } else {
    throw Error("unknown protocol '" + std::string(parts[0]) + "'");
  }
  const auto src = net::Ipv4Address::parse(parts[1]);
  const auto sport = util::parse_u64(parts[2]);
  const auto dst = net::Ipv4Address::parse(parts[3]);
  const auto dport = util::parse_u64(parts[4]);
  if (!src || !dst || !sport || *sport > 65535 || !dport || *dport > 65535) {
    throw Error("bad address or port in flow spec");
  }
  flow.src_ip = *src;
  flow.dst_ip = *dst;
  flow.src_port = static_cast<std::uint16_t>(*sport);
  flow.dst_port = static_cast<std::uint16_t>(*dport);
  return flow;
}

int usage() {
  std::fprintf(stderr,
               "usage: pfeval --policy <file.control> [--policy <more>...]\n"
               "              --flow proto:src_ip:sport:dst_ip:dport\n"
               "              [--src k=v,k=v...] [--dst k=v,k=v...]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<pf::ControlFile> files;
  pf::FlowContext ctx;
  proto::Response src;  // ctx.src and ctx.dst borrow these
  proto::Response dst;
  bool have_flow = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value after " + std::string(arg));
        return argv[++i];
      };
      if (arg == "--policy") {
        const std::string path = next();
        files.push_back({path, read_file(path)});
      } else if (arg == "--flow") {
        ctx.flow = parse_flow(next());
        have_flow = true;
      } else if (arg == "--src") {
        src = parse_pairs(next());
        ctx.src = proto::ResponseDict(src);
      } else if (arg == "--dst") {
        dst = parse_pairs(next());
        ctx.dst = proto::ResponseDict(dst);
      } else {
        return usage();
      }
    }
    if (files.empty() || !have_flow) return usage();

    const pf::PolicyEngine engine(pf::load_control_files(std::move(files)));
    const pf::Verdict verdict = engine.evaluate(ctx);
    if (verdict.rule != nullptr) {
      std::printf("%s (rule at %s:%zu) [keep-state=%s quick=%s log=%s]\n",
                  pf::to_string(verdict.action).c_str(),
                  verdict.rule->source_label.c_str(), verdict.rule->line,
                  verdict.keep_state ? "yes" : "no",
                  verdict.quick ? "yes" : "no", verdict.log ? "yes" : "no");
    } else {
      std::printf("%s (default: no rule matched)\n",
                  pf::to_string(verdict.action).c_str());
    }
    return verdict.allowed() ? 0 : 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "pfeval: %s\n", e.what());
    return 1;
  }
}
