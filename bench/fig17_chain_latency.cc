// Figure 17 — "YCSB latency for Kamino-Tx-Chain and traditional chain
// replication each tolerating two failures": average operation latency over
// the replicated store. The paper reports up to 2.2x lower latency for
// Kamino-Tx-Chain on write-intensive mixes (no data copies in the critical
// path at any replica).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "bench/chain_bench_util.h"
#include "src/chain/chain.h"

namespace kamino::bench {
namespace {

void BM_Fig17(::benchmark::State& state, bool kamino, workload::YcsbWorkload w) {
  const uint64_t nkeys = EnvOr("KAMINO_BENCH_CHAIN_KEYS", 2'000);
  const uint64_t ops = EnvOr("KAMINO_BENCH_CHAIN_OPS", 3'000);
  chain::ChainOptions copts;
  copts.kamino = kamino;
  copts.f = 2;  // The figure's configuration: tolerate two failures.
  copts.pool_size = 96ull << 20;
  copts.one_way_latency_us = 10;
  copts.flush_latency_ns = DefaultFlushNs();
  copts.fault_seed = EnvOr("KAMINO_BENCH_CHAIN_FAULT_SEED", copts.fault_seed);
  auto ch = std::move(chain::Chain::Create(copts).value());
  LoadKeys(ch.get(), nkeys);
  ApplyChainFaultsFromEnv(ch.get());  // Lossy mode (chain_bench_util.h).
  for (auto _ : state) {
    const YcsbResult res =
        RunYcsb(ch.get(), w, /*threads=*/1, ops, nkeys, kValueSize, /*seed_base=*/31);
    state.counters["mean_us"] = res.mean_us;
    state.counters["p99_us"] = res.p99_us;
    state.counters["errors"] = static_cast<double>(res.errors);
  }
  ReportChainNetworkCounters(state, ch.get());
}

void RegisterAll() {
  for (workload::YcsbWorkload w :
       {workload::YcsbWorkload::kA, workload::YcsbWorkload::kB, workload::YcsbWorkload::kD,
        workload::YcsbWorkload::kF}) {
    for (bool kamino : {true, false}) {
      std::string name = std::string("Fig17/") + workload::YcsbWorkloadName(w) + "/" +
                         (kamino ? "KaminoTxChain" : "ChainReplication");
      ::benchmark::RegisterBenchmark(name.c_str(),
                                     [kamino, w](::benchmark::State& s) {
                                       BM_Fig17(s, kamino, w);
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
