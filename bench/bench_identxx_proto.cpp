// B4: ident++ wire format costs — serialize/parse for queries and for
// responses with 1..8 sections x 1..64 pairs, plus dictionary construction
// and lookup (latest-wins vs *-concatenation ablation, DESIGN.md §6).

#include <benchmark/benchmark.h>

#include "identxx/dict.hpp"
#include "identxx/wire.hpp"

namespace {

using namespace identxx;

proto::Response make_response(int sections, int pairs_per_section) {
  proto::Response response;
  response.proto = net::IpProto::kTcp;
  response.src_port = 40000;
  response.dst_port = 80;
  for (int s = 0; s < sections; ++s) {
    proto::Section section;
    for (int p = 0; p < pairs_per_section; ++p) {
      section.add("key-" + std::to_string(p),
                  "value-" + std::to_string(s) + "-" + std::to_string(p));
    }
    response.append_section(std::move(section));
  }
  return response;
}

void BM_QuerySerialize(benchmark::State& state) {
  proto::Query query;
  query.proto = net::IpProto::kTcp;
  query.src_port = 40000;
  query.dst_port = 80;
  for (int i = 0; i < state.range(0); ++i) {
    query.keys.push_back("key-" + std::to_string(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.serialize());
  }
}
BENCHMARK(BM_QuerySerialize)->Arg(2)->Arg(8)->Arg(32);

void BM_QueryParse(benchmark::State& state) {
  proto::Query query;
  query.proto = net::IpProto::kTcp;
  for (int i = 0; i < state.range(0); ++i) {
    query.keys.push_back("key-" + std::to_string(i));
  }
  const std::string wire = query.serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::Query::parse(wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_QueryParse)->Arg(2)->Arg(8)->Arg(32);

void BM_ResponseSerialize(benchmark::State& state) {
  const proto::Response response = make_response(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(response.serialize());
  }
}
BENCHMARK(BM_ResponseSerialize)
    ->Args({1, 4})->Args({1, 16})->Args({4, 16})->Args({8, 64});

void BM_ResponseParse(benchmark::State& state) {
  const std::string wire =
      make_response(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(1)))
          .serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::Response::parse(wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_ResponseParse)
    ->Args({1, 4})->Args({1, 16})->Args({4, 16})->Args({8, 64});

void BM_DictLatestLookup(benchmark::State& state) {
  const proto::Response response =
      make_response(static_cast<int>(state.range(0)), 16);
  const proto::ResponseDict dict(response);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.latest("key-7"));
  }
}
BENCHMARK(BM_DictLatestLookup)->Arg(1)->Arg(4)->Arg(8);

void BM_DictStarConcatenation(benchmark::State& state) {
  const proto::Response response =
      make_response(static_cast<int>(state.range(0)), 16);
  const proto::ResponseDict dict(response);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.concatenated("key-7"));
  }
}
BENCHMARK(BM_DictStarConcatenation)->Arg(1)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
