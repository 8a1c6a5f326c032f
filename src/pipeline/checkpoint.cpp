#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "pipeline/pipeline.hpp"

namespace lassm::pipeline {

namespace {

constexpr const char* kCheckpointMagic = "LASSM_CHECKPOINT";
/// Version 2 added the rank count and the lost ranks; older files fail
/// the version check and the run starts cold.
constexpr int kCheckpointVersion = 2;

/// Doubles cross the checkpoint as their IEEE-754 bit pattern in hex, so
/// depth/time values round-trip bit-exactly (decimal formatting would not).
std::uint64_t double_bits(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}
double bits_double(std::uint64_t bits) noexcept {
  return std::bit_cast<double>(bits);
}

}  // namespace

Status save_checkpoint(std::ostream& os, const PipelineCheckpoint& cp) {
  os << kCheckpointMagic << ' ' << kCheckpointVersion << '\n';
  os << "contig_k " << cp.contig_k << '\n';
  os << "ladder " << cp.k_iterations.size();
  for (std::uint32_t k : cp.k_iterations) os << ' ' << k;
  os << '\n';
  os << "ranks " << cp.ranks << '\n';
  os << "lost " << cp.lost_ranks.size();
  for (std::uint32_t r : cp.lost_ranks) os << ' ' << r;
  os << '\n';
  os << "rounds_done " << cp.rounds_done << '\n';
  os << "kmers " << cp.kmers_total << ' ' << cp.kmers_filtered << '\n';
  os << "dbg " << cp.dbg.nodes << ' ' << cp.dbg.forks << ' '
     << cp.dbg.dead_ends << ' ' << cp.dbg.contigs << '\n';
  os << "contigs " << cp.contigs.size() << '\n';
  for (const bio::Contig& c : cp.contigs) {
    os << c.id << ' ' << std::hex << double_bits(c.depth) << std::dec << ' '
       << c.seq << '\n';
  }
  os << "iterations " << cp.iterations.size() << '\n';
  for (const IterationReport& it : cp.iterations) {
    os << it.k << ' ' << it.contigs << ' ' << it.total_bases << ' '
       << it.n50 << ' ' << it.mapped_reads << ' ' << it.extension_bases
       << ' ' << std::hex << double_bits(it.kernel_time_s) << std::dec
       << '\n';
  }
  os << "end\n";
  os.flush();
  if (!os) {
    return Status(ErrorCode::kIoError,
                  "save_checkpoint: stream write/flush failed");
  }
  return Status::ok();
}

Result<PipelineCheckpoint> load_checkpoint(std::istream& is) {
  const auto fail = [](std::string what,
                       std::uint64_t record = 0) -> Error {
    return Error(ErrorCode::kParseError,
                 "load_checkpoint: " + std::move(what),
                 SourceContext{"checkpoint", 0, record});
  };
  const auto expect = [&](const char* token) {
    std::string got;
    return static_cast<bool>(is >> got) && got == token;
  };

  PipelineCheckpoint cp;
  if (!expect(kCheckpointMagic)) return fail("missing magic");
  int version = 0;
  if (!(is >> version) || version != kCheckpointVersion) {
    return fail("unsupported version");
  }
  if (!expect("contig_k") || !(is >> cp.contig_k) || cp.contig_k == 0) {
    return fail("contig_k");
  }
  std::size_t n_ladder = 0;
  if (!expect("ladder") || !(is >> n_ladder) || n_ladder > 64) {
    return fail("ladder header");
  }
  cp.k_iterations.resize(n_ladder);
  for (std::uint32_t& k : cp.k_iterations) {
    if (!(is >> k) || k == 0) return fail("ladder entry");
  }
  // A fleet never exceeds the k-mer table's shard count, and every rank
  // but one may be lost, each once.
  if (!expect("ranks") || !(is >> cp.ranks) || cp.ranks == 0 ||
      cp.ranks > KmerCounts::Table::kShards) {
    return fail("ranks");
  }
  std::size_t n_lost = 0;
  if (!expect("lost") || !(is >> n_lost) || n_lost >= cp.ranks) {
    return fail("lost header");
  }
  cp.lost_ranks.resize(n_lost);
  for (std::size_t i = 0; i < n_lost; ++i) {
    std::uint32_t& r = cp.lost_ranks[i];
    if (!(is >> r) || r >= cp.ranks ||
        std::find(cp.lost_ranks.begin(), cp.lost_ranks.begin() + i, r) !=
            cp.lost_ranks.begin() + i) {
      return fail("lost rank");
    }
  }
  if (!expect("rounds_done") || !(is >> cp.rounds_done) ||
      cp.rounds_done > n_ladder) {
    return fail("rounds_done");
  }
  if (!expect("kmers") || !(is >> cp.kmers_total >> cp.kmers_filtered)) {
    return fail("kmers");
  }
  if (!expect("dbg") || !(is >> cp.dbg.nodes >> cp.dbg.forks >>
                          cp.dbg.dead_ends >> cp.dbg.contigs)) {
    return fail("dbg");
  }

  std::size_t n_contigs = 0;
  if (!expect("contigs") || !(is >> n_contigs)) return fail("contig count");
  cp.contigs.reserve(std::min<std::size_t>(n_contigs, 1U << 20));
  for (std::size_t i = 0; i < n_contigs; ++i) {
    bio::Contig c;
    std::uint64_t depth_bits = 0;
    if (!(is >> c.id >> std::hex >> depth_bits >> std::dec >> c.seq)) {
      return fail("contig record", i + 1);
    }
    c.depth = bits_double(depth_bits);
    cp.contigs.push_back(std::move(c));
  }

  std::size_t n_iters = 0;
  if (!expect("iterations") || !(is >> n_iters) || n_iters > n_ladder) {
    return fail("iteration count");
  }
  if (n_iters != cp.rounds_done) return fail("iteration/rounds mismatch");
  cp.iterations.resize(n_iters);
  for (std::size_t i = 0; i < n_iters; ++i) {
    IterationReport& it = cp.iterations[i];
    std::uint64_t time_bits = 0;
    if (!(is >> it.k >> it.contigs >> it.total_bases >> it.n50 >>
          it.mapped_reads >> it.extension_bases >> std::hex >> time_bits >>
          std::dec)) {
      return fail("iteration record", i + 1);
    }
    it.kernel_time_s = bits_double(time_bits);
  }
  if (!expect("end")) return fail("missing end marker (truncated file?)");
  return cp;
}

Status save_checkpoint_file(const std::string& path,
                            const PipelineCheckpoint& cp) {
  // Write-to-temp + rename so a crash mid-write can never tear the
  // previous good checkpoint.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      return Status(ErrorCode::kIoError,
                    "save_checkpoint: cannot open " + tmp,
                    SourceContext{tmp});
    }
    if (Status s = save_checkpoint(os, cp); !s) return s;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status(ErrorCode::kIoError,
                  "save_checkpoint: cannot rename " + tmp + " -> " + path,
                  SourceContext{path});
  }
  return Status::ok();
}

Result<PipelineCheckpoint> load_checkpoint_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    return Error(ErrorCode::kIoError,
                 "load_checkpoint: cannot open " + path,
                 SourceContext{path});
  }
  auto result = load_checkpoint(is);
  if (!result.is_ok()) {
    Error e = result.error();
    SourceContext ctx = e.context();
    ctx.file = path;
    return Error(e.code(), e.message(), std::move(ctx));
  }
  return result;
}

}  // namespace lassm::pipeline
