// Figure 18 — "YCSB throughput for Kamino-Tx-Chain and traditional chain
// replication configured to survive two failures": the throughput companion
// of Figure 17, with pipelined client threads. The paper reports up to 2.2x
// better throughput for Kamino-Tx-Chain on write-intensive mixes at the
// price of 33% extra storage.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "bench/chain_bench_util.h"
#include "src/chain/chain.h"

namespace kamino::bench {
namespace {

void BM_Fig18(::benchmark::State& state, bool kamino, workload::YcsbWorkload w) {
  const uint64_t nkeys = EnvOr("KAMINO_BENCH_CHAIN_KEYS", 2'000);
  const uint64_t ops = EnvOr("KAMINO_BENCH_CHAIN_OPS", 4'000);
  constexpr int kThreads = 4;  // Pipelined clients.
  chain::ChainOptions copts;
  copts.kamino = kamino;
  copts.f = 2;
  copts.pool_size = 96ull << 20;
  copts.one_way_latency_us = 10;
  copts.flush_latency_ns = DefaultFlushNs();
  copts.fault_seed = EnvOr("KAMINO_BENCH_CHAIN_FAULT_SEED", copts.fault_seed);
  auto ch = std::move(chain::Chain::Create(copts).value());
  LoadKeys(ch.get(), nkeys);
  ApplyChainFaultsFromEnv(ch.get());  // Lossy mode (chain_bench_util.h).
  for (auto _ : state) {
    const YcsbResult res =
        RunYcsb(ch.get(), w, kThreads, ops / kThreads, nkeys, kValueSize, /*seed_base=*/47);
    state.counters["Kops_per_sec"] = res.ops_per_sec / 1000.0;
    state.counters["errors"] = static_cast<double>(res.errors);
    state.counters["nvm_bytes"] = static_cast<double>(ch->total_nvm_bytes());
  }
  ReportChainNetworkCounters(state, ch.get());
}

void RegisterAll() {
  for (workload::YcsbWorkload w :
       {workload::YcsbWorkload::kA, workload::YcsbWorkload::kB, workload::YcsbWorkload::kD,
        workload::YcsbWorkload::kF}) {
    for (bool kamino : {true, false}) {
      std::string name = std::string("Fig18/") + workload::YcsbWorkloadName(w) + "/" +
                         (kamino ? "KaminoTxChain" : "ChainReplication");
      ::benchmark::RegisterBenchmark(name.c_str(),
                                     [kamino, w](::benchmark::State& s) {
                                       BM_Fig18(s, kamino, w);
                                     })
          ->Unit(::benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

}  // namespace
}  // namespace kamino::bench

int main(int argc, char** argv) {
  kamino::bench::RegisterAll();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
