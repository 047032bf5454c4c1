// The simulated program, pinned: mines a small fixed matrix of GPApriori
// runs and prints, per mine, an itemset digest and sim_device_ms (9
// significant digits), and per launch every integer KernelStats field but
// native_blocks (which only says which host path ran a block).
//
//   golden_kernel_stats                 print the dump
//   golden_kernel_stats --check GOLDEN  compare it with GOLDEN; exit 1 and
//                                       name the first differing line
//
// Matrix: chess x0.25 at support 0.8 and T40I10D100K x0.01 at 0.05;
// tiled and complete intersection; sample stride 64 and 1; host_threads 1
// and 2. A change that alters the model on purpose regenerates the golden
// with `golden_kernel_stats > tests/golden/kernel_stats.txt` and says why.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/gpapriori.hpp"
#include "datagen/datagen.hpp"

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void dump_launch(std::ostream& os, std::size_t i,
                 const gpusim::KernelStats& s) {
  const gpusim::KernelCounters& c = s.counters;
  const gpusim::LaunchConfig& l = s.config;
  os << "launch " << i << ' ' << s.kernel_name << " grid=" << l.grid.x << ','
     << l.grid.y << ',' << l.grid.z << " block=" << l.block.x << ','
     << l.block.y << ',' << l.block.z << " dyn_shared="
     << l.dynamic_shared_bytes << '\n'
     << "  gld=" << c.global_loads << " gst=" << c.global_stores
     << " gatom=" << c.global_atomics << " gld_b=" << c.global_load_bytes
     << " gst_b=" << c.global_store_bytes << " sld=" << c.shared_loads
     << " sst=" << c.shared_stores << " thr_i=" << c.thread_instructions
     << " warp_i=" << c.warp_instructions << " wphases=" << c.warp_phases
     << " div=" << c.divergent_warp_phases << " bar=" << c.barriers
     << " blocks=" << c.blocks << " threads=" << c.threads << '\n';
  for (const auto& [tag, m] : {std::pair("ld", &s.gmem_load_coalescing),
                               std::pair("st", &s.gmem_store_coalescing)})
    os << "  " << tag << " req=" << m->requests << " tx=" << m->transactions
       << " b_req=" << m->bytes_requested << " b_tx=" << m->bytes_transferred
       << '\n';
  os << "  sampled=" << s.sampled_blocks
     << " sh_req=" << s.shared_requests_sampled
     << " sh_ser=" << s.shared_serialization_sampled
     << " races=" << s.shared_race_hazards
     << " occ_blocks=" << s.occupancy.blocks_per_sm
     << " occ_warps=" << s.occupancy.active_warps_per_sm
     << " occ_threads=" << s.occupancy.active_threads_per_sm << '\n';
}

std::string dump() {
  struct Data {
    const char* name;
    datagen::DatasetId id;
    double scale;
    double support;
  };
  const Data datasets[] = {
      {"chess-x0.25", datagen::DatasetId::kChess, 0.25, 0.8},
      {"t40-x0.01", datagen::DatasetId::kT40I10D100K, 0.01, 0.05}};
  std::ostringstream os;
  for (const Data& d : datasets) {
    const auto db = datagen::profile(d.id).generate(d.scale);
    miners::MiningParams p;
    p.min_support_ratio = d.support;
    for (const bool tiled : {true, false})
      for (const std::uint64_t stride : {64u, 1u})
        for (const std::uint32_t threads : {1u, 2u}) {
          gpapriori::Config cfg;
          cfg.arena_bytes = 64 << 20;
          cfg.tiled = tiled;
          cfg.sample_stride = stride;
          cfg.host_threads = threads;
          gpapriori::GpApriori miner(cfg);
          const auto out = miner.mine(db, p);
          char ms[32];
          std::snprintf(ms, sizeof ms, "%.9g", out.device_ms);
          os << "mine " << d.name << " support=" << d.support
             << " tiled=" << tiled << " stride=" << stride
             << " host_threads=" << threads << '\n'
             << "itemsets=" << out.itemsets.size() << " digest=" << std::hex
             << fnv1a(out.itemsets.to_string()) << std::dec
             << " sim_device_ms=" << ms << '\n';
          const auto& history = miner.launch_history();
          for (std::size_t i = 0; i < history.size(); ++i)
            dump_launch(os, i, history[i]);
        }
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string got = dump();
  if (argc == 1) {
    std::cout << got;
    return 0;
  }
  if (argc != 3 || std::string(argv[1]) != "--check") {
    std::cerr << "usage: golden_kernel_stats [--check GOLDEN]\n";
    return 64;
  }
  std::ifstream f(argv[2]);
  if (!f) {
    std::cerr << "cannot read " << argv[2] << '\n';
    return 3;
  }
  std::istringstream actual(got);
  std::string want_line, got_line;
  for (std::size_t n = 1;; ++n) {
    const bool w = static_cast<bool>(std::getline(f, want_line));
    const bool g = static_cast<bool>(std::getline(actual, got_line));
    if (!w && !g) break;
    if (w != g || want_line != got_line) {
      std::cerr << argv[2] << ':' << n << " differs\n  golden: "
                << (w ? want_line : "<end>")
                << "\n  now:    " << (g ? got_line : "<end>") << '\n';
      return 1;
    }
  }
  std::cout << "kernel stats match " << argv[2] << '\n';
  return 0;
}
