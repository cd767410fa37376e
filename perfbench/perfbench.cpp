// End-to-end benchmark of the host pipeline.
//
// Four workloads, one per process:
//   short_reads      250 bp reads, FASTQ → map_stream (SIMD extension, batched
//                    traceback) → SAM, on a genome whose k-mer index is
//                    larger than the last-level cache.
//   long_reads       ~2 kbp indel-heavy reads, same pipeline, 4 Mbp genome.
//   ultralong_reads  ~20 kbp reads with long-read routing on both aligners, so
//                    every traceback window runs the X-drop wavefront engine.
//   tenant_extend    3 closed-loop tenants share one AlignService and submit
//                    small requests of dataset-B′ extension jobs.
//
// Inputs are generated from --seed before anything is timed; the program
// under test only sees the generated FASTQ text or extension pairs. Every
// number is host wall clock. A run is: setup (repeated, median reported),
// one warm-up pass, then passes until --seconds have elapsed; rates are
// medians over passes.
//
// Every operation (a FASTQ chunk, or a tenant request) is checked. A chunk's
// sampled read must give the SAM line of the per-read path, its CIGAR must
// rescore to its AS tag, and it is compared with a full-matrix oracle that
// shares no code with the production engines (on the whole genome window, or
// on a trimmed window where the whole one is too large). Sampled requests
// must equal a standalone Aligner::align. --smoke also corrupts outputs
// before the check, to prove each check fails when it should.
//
// --trace 1 alternates untraced and traced passes. The traced pass times the
// calls into each layer from the outside (a timing FASTQ reader, and timing
// BatchChainer / BatchExtender / TracedBatchExtender / SAM-sink callbacks)
// plus one extra ReadMapper::seeds_of pass, and reports the per-layer split
// and the tracing overhead.
//
//   saloba_perfbench --workload short_reads --seed 1 --seconds 10 --trace 0
//   saloba_perfbench --smoke   # every workload, tiny, plus the fault check
//
// The last stdout line is the result JSON {correct, attempted, failed,
// metrics}; the line before it is {"info": {...}} (environment, thread count,
// ISA, build type, tail percentile and sample counts, layer shares).
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "align/simd_engine.hpp"
#include "align/traceback.hpp"
#include "align/traceback_engine.hpp"
#include "align/xdrop_reference.hpp"
#include "align/xdrop_wavefront.hpp"
#include "core/align_service.hpp"
#include "core/aligner.hpp"
#include "core/workload.hpp"
#include "seedext/chain_engine.hpp"
#include "seedext/pipeline.hpp"
#include "seedext/sam_output.hpp"
#include "seq/chunk_reader.hpp"
#include "seq/fasta.hpp"
#include "seq/read_simulator.hpp"
#include "seq/sam.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

#ifndef SALOBA_BENCH_BUILD_TYPE
#define SALOBA_BENCH_BUILD_TYPE "unknown"
#endif

using namespace saloba;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median_of(std::vector<double> xs) { return xs.empty() ? 0.0 : util::median(xs); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Latency quantiles of one run: the median and the tail, which is the
/// highest percentile with at least 10 samples beyond it — the 11th-largest
/// sample, but never below the median: with 20 or fewer samples no
/// percentile above the median has 10 beyond it, and the tail reads as the
/// median.
struct Latency {
  double p50 = 0.0, tail = 0.0, tail_pct = 0.0;
  std::size_t samples = 0;
};

Latency latency_of(std::vector<double> xs) {
  Latency l;
  l.samples = xs.size();
  if (xs.empty()) return l;
  std::sort(xs.begin(), xs.end());
  l.p50 = util::percentile_nearest_rank(xs, 50.0);
  const std::size_t n = xs.size();
  const std::size_t rank = std::max(n > 10 ? n - 10 : 1, (n + 1) / 2);  // 1-based
  l.tail = xs[rank - 1];
  l.tail_pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return l;
}

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

using MetricValues = std::map<std::string, double>;

struct Metric {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares; run.py checks they agree.
constexpr Metric kEndToEnd[] = {
    {"reads_per_s", "1/s"},    {"host_gcups", "GCUPS"},  {"request_ms_p50", "ms"},
    {"request_ms_tail", "ms"}, {"accurate_frac", "frac"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"seq.parse_ms", "ms"},
    {"seq.parse_bytes", "bytes"},
    {"index.build_ms", "ms"},
    {"index.positions", "count"},
    {"seeding.ms", "ms"},
    {"seeding.seeds", "count"},
    {"seeding.us_per_read", "us"},
    {"chaining.ms", "ms"},
    {"chaining.tasks", "count"},
    {"chaining.anchors", "count"},
    {"chaining.updates", "count"},
    {"map.residual_ms", "ms"},
    {"map.seeding_over_residual", "ratio"},
    {"extend.ms", "ms"},
    {"extend.pairs", "count"},
    {"extend.cells", "count"},
    {"extend.gcups", "GCUPS"},
    {"extend.pairs_per_call", "count"},
    {"extend.imbalance", "ratio"},
    {"traceback.ms", "ms"},
    {"traceback.score_ms", "ms"},
    {"traceback.phase_ms", "ms"},
    {"traceback.cells", "count"},
    {"traceback.replay_ratio", "ratio"},
    {"sam.ms", "ms"},
    {"sam.records", "count"},
    {"sam.bytes", "bytes"},
    {"service.batches", "count"},
    {"service.pairs_per_batch", "count"},
    {"service.busy_frac", "frac"},
    {"service.queue_wait_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

/// Layer time metrics whose share of the traced pass the info line reports.
constexpr const char* kLayerTimes[] = {"seq.parse_ms", "map.residual_ms", "chaining.ms",
                                       "extend.ms",    "traceback.ms",    "sam.ms"};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool checks_ok = true;  ///< whole-output checks (record count, order, ...)
  std::map<std::string, std::size_t> failed_by_check;  ///< operations each check failed
  MetricValues metrics;
  std::map<std::string, std::string> info;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) out += (i ? ", " : "") + json_number(xs[i]);
  return out + "]";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void report_latency(const std::vector<double>& xs, RunResult& r) {
  const Latency l = latency_of(xs);
  r.metrics["request_ms_p50"] = l.p50;
  r.metrics["request_ms_tail"] = l.tail;
  r.info["request_tail_pct"] = json_number(l.tail_pct);
  r.info["request_samples"] = std::to_string(l.samples);
}

template <std::size_t N>
void print_result(const RunResult& r, const Metric (&table)[N]) {
  std::string info = "{\"info\": {";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    info += (first ? "" : ", ") + json_string(k) + ": " + v;
    first = false;
  }
  std::printf("%s}}\n", info.c_str());

  std::string out = "{\"correct\": ";
  out += (r.failed == 0 && r.checks_ok && r.attempted > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    auto it = r.metrics.find(table[i].name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    out += (i ? ", " : "") + json_string(table[i].name) + ": {\"value\": " + json_number(v) +
           ", \"unit\": " + json_string(table[i].unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

struct BenchOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_fault = false;
  bool tiny = false;  ///< smoke sizing
  int threads = 1;   ///< min(4, nproc), fixed in main
};

/// Per-metric median over the traced passes.
MetricValues median_layers(const std::vector<MetricValues>& passes) {
  MetricValues out;
  for (const auto& [name, _] : passes.front()) {
    std::vector<double> xs;
    for (const auto& p : passes) xs.push_back(p.at(name));
    out[name] = median_of(xs);
  }
  return out;
}

/// Drives passes until the deadline, and in an untraced run until `enough()`
/// (enough latency samples). With trace, passes alternate untraced / traced
/// so both halves see the same machine state.
template <typename PassFn, typename EnoughFn>
void run_passes(const BenchOptions& opt, PassFn&& pass, EnoughFn&& enough) {
  const auto start = Clock::now();
  std::size_t n = 0;
  do {
    pass(opt.trace && (n % 2 == 1));
    ++n;
  } while (ms_between(start, Clock::now()) < opt.seconds * 1e3 || (opt.trace && n < 2) ||
           (!opt.trace && !enough()));
}

// ---------------------------------------------------------------------------
// Mapping workloads: FASTQ → ReadMapper::map_stream → SAM
// ---------------------------------------------------------------------------

struct MappingSpec {
  std::size_t genome_len = 0;
  seq::ReadProfile profile;
  std::size_t reads = 0;        ///< reads per pass
  std::size_t chunk_reads = 0;  ///< FastqChunkReader chunk size (one operation)
  /// > 0: AlignerOptions::longread_threshold on both aligners, and reads are
  /// at least this long, so every traceback window takes the X-drop route.
  std::size_t longread_threshold = 0;
  /// Untraced runs keep passing until they hold this many chunk latencies,
  /// so that the tail has samples of its own beyond the median.
  std::size_t min_chunk_samples = 0;
  int setup_reps = 3;
};

/// Simulated reads from `genome`. The seed picks the genome; the simulator
/// streams are fixed, and a variable-length profile draws each read from its
/// own stream, so read i has the same length and origin under every seed:
/// length skew, not sequence content, is what moves per-pass work most.
std::vector<seq::SimulatedRead> simulate_reads(const std::vector<seq::BaseCode>& genome,
                                               const seq::ReadProfile& profile,
                                               std::size_t count) {
  constexpr std::uint64_t kStream = 2;
  if (profile.length_sigma <= 0) return seq::ReadSimulator(genome, profile, kStream).simulate(count);
  std::vector<seq::SimulatedRead> reads;
  for (std::size_t i = 0; i < count; ++i) {
    reads.push_back(seq::ReadSimulator(genome, profile, mix(kStream + i)).simulate_one());
    reads.back().read.name = "read_" + std::to_string(i);
  }
  return reads;
}

/// Orders variable-length reads so that every chunk of `chunk_reads` carries
/// about the same traceback work (~ length², the full-window table): longest
/// first, each read joins the least-loaded chunk with room. Chunk latencies
/// are then samples of one distribution, so their median and tail measure
/// the run rather than which chunk holds the longest read.
std::vector<seq::SimulatedRead> balance_chunks(std::vector<seq::SimulatedRead> reads,
                                               std::size_t chunk_reads) {
  const std::size_t chunks = (reads.size() + chunk_reads - 1) / chunk_reads;
  if (chunks < 2) return reads;
  std::vector<std::size_t> by_length(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) by_length[i] = i;
  std::stable_sort(by_length.begin(), by_length.end(), [&](std::size_t a, std::size_t b) {
    return reads[a].read.bases.size() > reads[b].read.bases.size();
  });
  std::vector<std::vector<std::size_t>> dealt(chunks);
  std::vector<double> work(chunks, 0.0);
  for (std::size_t i : by_length) {
    std::size_t best = chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t room = std::min(chunk_reads, reads.size() - c * chunk_reads);
      if (dealt[c].size() < room && (best == chunks || work[c] < work[best])) best = c;
    }
    const double len = static_cast<double>(reads[i].read.bases.size());
    work[best] += len * len;
    dealt[best].push_back(i);
  }
  std::vector<seq::SimulatedRead> out;
  out.reserve(reads.size());
  for (const auto& chunk : dealt) {
    for (std::size_t i : chunk) out.push_back(std::move(reads[i]));
  }
  return out;
}

/// Mapper parameters for reads of `profile`: noisy long reads need shorter
/// exact seeds to anchor at all (the rule core::make_dataset_b uses).
seedext::MapperParams mapper_params_for(const seq::ReadProfile& profile) {
  seedext::MapperParams params;
  if (profile.error_rate > 0.05) {
    params.k = 13;
    params.seeding.min_seed_len = 14;
  }
  return params;
}

/// FASTQ reader that times each record parse (the traced pass's ingest span).
/// The base class only groups records into chunks; every record comes from
/// the wrapped FastqChunkReader on the same stream.
class TimedFastqReader final : public seq::SequenceChunkReader {
 public:
  TimedFastqReader(std::istream& in, std::size_t chunk_records)
      : SequenceChunkReader(in, chunk_records), inner_(in, chunk_records) {}
  double parse_ms = 0.0;

 protected:
  bool parse_record(seq::Sequence& out) override {
    const auto t0 = Clock::now();
    const bool ok = inner_.read_record(out);
    parse_ms += ms_between(t0, Clock::now());
    return ok;
  }

 private:
  seq::FastqChunkReader inner_;
};

/// Per-pass layer accounting of a traced mapping pass.
struct MapLayers {
  double parse_ms = 0, chain_ms = 0, extend_ms = 0, trace_ms = 0, trace_score_ms = 0,
         trace_phase_ms = 0, sam_ms = 0, map_batch_ms = 0, imbalance_sum = 0;
  std::size_t chain_tasks = 0, chain_anchors = 0, chain_updates = 0, extend_calls = 0,
              extend_pairs = 0, extend_cells = 0, trace_cells = 0, trace_score_cells = 0,
              sam_records = 0, sam_bytes = 0;
};

/// What one timed pass produced; the SAM text is reduced to a PassCheck
/// right after the pass, outside the timed window.
struct MapPass {
  double wall_ms = 0.0;
  std::vector<double> chunk_ms;
  std::string sam;
  std::vector<std::size_t> line_begin;  ///< byte offset of each read's SAM line
  std::vector<seedext::ReadMapping> mappings;
  bool error = false;
};

/// The parts of a pass's output the correctness gate needs.
struct PassCheck {
  bool complete = false;  ///< no exception; one record per read, in input order
  std::vector<std::string> sampled;  ///< SAM line of each sampled read
  std::size_t accurate = 0;
};

/// Fault injection: the AS score of a mapped SAM line, off by one. Returns
/// false (line unchanged) for an unmapped record.
bool bump_score(std::string& line) {
  const std::size_t tag = line.find("\tAS:i:");
  if (tag == std::string::npos) return false;
  const std::size_t begin = tag + 6;
  std::size_t end = begin;
  while (end < line.size() && std::isdigit(static_cast<unsigned char>(line[end]))) ++end;
  line.replace(begin, end - begin, std::to_string(std::stol(line.substr(begin, end - begin)) + 1));
  return true;
}

/// A SAM line without its SEQ and QUAL fields, for error messages.
std::string brief(const std::string& line) {
  std::size_t seq = 0;
  for (int field = 0; field < 9 && seq != std::string::npos; ++field) {
    seq = line.find('\t', seq);
    if (seq != std::string::npos) ++seq;
  }
  if (seq == std::string::npos) return line;
  const std::size_t qual = line.find('\t', seq);
  const std::size_t tags = qual == std::string::npos ? qual : line.find('\t', qual + 1);
  std::string out = line.substr(0, seq) + "...";
  if (tags != std::string::npos) out += line.substr(tags);
  while (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

/// A mapped SAM line read back as an alignment of the oriented read against
/// the genome (genome coordinates, CIGAR without its soft clips).
struct LineAlignment {
  align::TracedAlignment aln;  ///< end.score = AS; 0 for an unmapped record
  std::vector<seq::BaseCode> oriented;
};

/// Parses `line`, a record of `read`, and checks that its CIGAR spans the read
/// exactly and stays on the genome. nullopt for a malformed or inconsistent
/// line.
std::optional<LineAlignment> parse_alignment(const std::string& line, const seq::Sequence& read,
                                             std::size_t genome_len) {
  try {
    std::istringstream in(line);
    const std::vector<seq::SamRecord> records = seq::read_sam(in);
    if (records.size() != 1) return std::nullopt;
    const seq::SamRecord& r = records.front();
    LineAlignment out;
    if (r.unmapped()) return out;
    for (const std::string& tag : r.tags) {
      if (tag.rfind("AS:i:", 0) == 0) out.aln.end.score = std::stoi(tag.substr(5));
    }
    std::vector<std::pair<std::size_t, char>> ops;
    std::size_t len = 0;
    for (char c : r.cigar) {
      if (std::isdigit(static_cast<unsigned char>(c))) {
        len = len * 10 + static_cast<std::size_t>(c - '0');
        if (len > read.bases.size() + genome_len) return std::nullopt;
      } else {
        if (len == 0) return std::nullopt;
        ops.emplace_back(len, c);
        len = 0;
      }
    }
    if (len != 0 || ops.empty() || out.aln.end.score <= 0 || r.pos == 0) return std::nullopt;
    std::size_t clip_front = 0, clip_back = 0;
    if (ops.front().second == 'S') {
      clip_front = ops.front().first;
      ops.erase(ops.begin());
    }
    if (!ops.empty() && ops.back().second == 'S') {
      clip_back = ops.back().first;
      ops.pop_back();
    }
    std::size_t query = 0, ref = 0;
    for (const auto& [n, op] : ops) {
      if (op != 'M' && op != 'I' && op != 'D') return std::nullopt;
      if (op != 'D') query += n;
      if (op != 'I') ref += n;
      out.aln.cigar += std::to_string(n) + op;
    }
    if (query == 0 || clip_front + query + clip_back != read.bases.size() ||
        r.pos - 1 + ref > genome_len) {
      return std::nullopt;
    }
    out.aln.ref_start = static_cast<std::int32_t>(r.pos - 1);
    out.aln.query_start = static_cast<std::int32_t>(clip_front);
    out.aln.end.ref_end = static_cast<std::int32_t>(r.pos - 1 + ref - 1);
    out.aln.end.query_end = static_cast<std::int32_t>(clip_front + query - 1);
    out.oriented = (r.flags & seq::SamRecord::kFlagReverse) ? seq::reverse_complement(read.bases)
                                                             : read.bases;
    return out;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Engine-independent check of one reported line: its CIGAR, walked over the
/// read and the genome, scores exactly its AS tag.
bool rescores(const std::string& line, const seq::Sequence& read,
              const std::vector<seq::BaseCode>& genome, const align::ScoringScheme& scoring) {
  const std::optional<LineAlignment> a = parse_alignment(line, read, genome.size());
  if (!a) return false;
  return a->aln.end.score == 0 ||
         align::rescore_cigar(a->aln, genome, a->oriented, scoring) == a->aln.end.score;
}

/// Genome and read slices under the first `query_bases` read bases of a
/// reported alignment, cut at an operation boundary.
struct TrimmedWindow {
  std::vector<seq::BaseCode> ref, query;
};

TrimmedWindow trimmed_window(const LineAlignment& a, const std::vector<seq::BaseCode>& genome,
                             std::size_t query_bases) {
  std::size_t query = 0, ref = 0;
  const std::string ops = align::expand_cigar(a.aln.cigar);
  for (std::size_t k = 0; k < ops.size() && query < query_bases; ++k) {
    query += ops[k] != 'D';
    ref += ops[k] != 'I';
    // Never end the window inside a gap run.
    while (k + 1 < ops.size() && ops[k + 1] == ops[k] && ops[k] != 'M') {
      ++k;
      query += ops[k] != 'D';
      ref += ops[k] != 'I';
    }
  }
  const auto r0 = genome.begin() + a.aln.ref_start;
  const auto q0 = a.oriented.begin() + a.aln.query_start;
  return {{r0, r0 + static_cast<std::ptrdiff_t>(ref)},
          {q0, q0 + static_cast<std::ptrdiff_t>(query)}};
}

class MappingBench {
 public:
  MappingBench(const MappingSpec& spec, const BenchOptions& opt) : spec_(spec), opt_(opt) {}

  RunResult run() {
    RunResult result;
    generate_inputs();
    setup();
    pass(/*traced=*/false);  // warm-up

    std::vector<double> rates, traced_rates, gcups, chunk_ms, pass_ms;
    std::vector<MetricValues> layers;
    std::vector<PassCheck> checks;
    const auto enough = [&] { return chunk_ms.size() >= spec_.min_chunk_samples; };
    run_passes(opt_, [&](bool traced) {
      MapPass p = pass(traced);
      (traced ? traced_rates : rates)
          .push_back(ratio(static_cast<double>(spec_.reads), p.wall_ms / 1e3));
      if (traced) {
        layers.push_back(traced_layers_);
      } else {
        pass_ms.push_back(p.wall_ms);
        gcups.push_back(ratio(static_cast<double>(cells_per_pass_), p.wall_ms * 1e6));
        chunk_ms.insert(chunk_ms.end(), p.chunk_ms.begin(), p.chunk_ms.end());
      }
      checks.push_back(check(p));
    }, enough);
    // Read before the oracle runs, so only the program under test counts.
    const double rss = peak_rss_mb();

    compute_oracle();
    if (opt_.inject_fault && checks.front().complete) {
      // One reported score off by one: the rescoring and both comparisons
      // must catch it.
      for (std::string& line : checks.front().sampled) {
        if (bump_score(line)) break;
      }
    }
    for (const PassCheck& c : checks) gate(c, result);

    result.metrics["reads_per_s"] = median_of(rates);
    result.metrics["host_gcups"] = median_of(gcups);
    report_latency(chunk_ms, result);
    result.metrics["accurate_frac"] = ratio(static_cast<double>(checks.back().accurate),
                                            static_cast<double>(spec_.reads));
    result.metrics["setup_s"] = median_of(setup_s_);
    result.metrics["peak_rss_mb"] = rss;
    result.info["pass_ms"] = json_array(pass_ms);
    result.info["reads_per_pass"] = std::to_string(spec_.reads);
    result.info["nominal_cells_per_pass"] = std::to_string(cells_per_pass_);
    result.info["chunk_reads"] = std::to_string(spec_.chunk_reads);
    result.info["setup_reps"] = std::to_string(spec_.setup_reps);
    result.info["genome_bases"] = std::to_string(genome_.size());
    result.info["oracle_samples_per_pass"] = std::to_string(samples_.size());
    std::size_t full = 0, trimmed = 0;
    for (const SampleOracle& o : oracle_) {
      full += !o.reference_line.empty();
      trimmed += o.trimmed_checked;
    }
    result.info["oracle_full_window"] = std::to_string(full);
    result.info["oracle_trimmed_window"] = std::to_string(trimmed);
    if (opt_.trace) {
      MetricValues m = median_layers(layers);
      m["index.build_ms"] = median_of(index_ms_);
      m["index.positions"] = static_cast<double>(index_positions_);
      m["trace.overhead_frac"] = 1.0 - ratio(median_of(traced_rates), median_of(rates));
      note_seeding_split(m, result);
      result.metrics = m;
      result.info["passes_traced"] = std::to_string(traced_rates.size());
      result.info["reads_per_s_untraced"] = json_number(median_of(rates));
      result.info["reads_per_s_traced"] = json_number(median_of(traced_rates));
    }
    return result;
  }

 private:
  void generate_inputs() {
    genome_ = core::make_genome(spec_.genome_len, 1000 + opt_.seed);
    seq::ReadProfile profile = spec_.profile;
    if (spec_.longread_threshold > 0) {
      profile.length_min = std::max(profile.length_min, spec_.longread_threshold);
    }
    truth_ = balance_chunks(simulate_reads(genome_, profile, spec_.reads), spec_.chunk_reads);
    // host_gcups's numerator: a fixed nominal count from the inputs alone
    // (each read against a band of the extension jobs' default minimum), so
    // it moves only with wall time, whatever work the program chooses to do.
    const std::size_t band = seedext::JobParams{}.min_band;
    cells_per_pass_ = 0;
    for (const auto& r : truth_) cells_per_pass_ += r.read.bases.size() * (2 * band + 1);
    std::vector<seq::Sequence> reads;
    reads.reserve(truth_.size());
    for (const auto& r : truth_) reads.push_back(r.read);
    std::ostringstream fq;
    seq::write_fastq(fq, reads);
    fastq_ = fq.str();
    // The records exactly as the pipeline will parse them (names, qualities).
    std::istringstream parsed(fastq_);
    parsed_ = seq::read_fastq(parsed);
    // One sampled read per chunk, at a seed-dependent offset: every
    // operation carries an oracle comparison.
    for (std::size_t first = 0; first < spec_.reads; first += spec_.chunk_reads) {
      const std::size_t len = std::min(spec_.chunk_reads, spec_.reads - first);
      samples_.push_back(first + mix(opt_.seed * 7919 + first) % len);
    }
  }

  core::AlignerOptions aligner_options(const std::string& device, bool traceback) const {
    core::AlignerOptions o;
    o.device = device;
    o.cpu_threads = opt_.threads;
    o.longread_threshold = spec_.longread_threshold;
    o.traceback = traceback;
    return o;
  }

  void setup() {
    for (int rep = 0; rep < spec_.setup_reps; ++rep) {
      // Drop the previous instances first: the index registry shares a live
      // index, and a rebuild is what set-up costs a fresh process.
      trace_aligner_.reset();
      ext_aligner_.reset();
      mapper_.reset();
      const auto t0 = Clock::now();
      mapper_.emplace(genome_, mapper_params_for(spec_.profile));
      const auto t1 = Clock::now();
      ext_aligner_.emplace(aligner_options("simd", false));
      trace_aligner_.emplace(aligner_options("simd", true));
      const auto t2 = Clock::now();
      index_ms_.push_back(ms_between(t0, t1));
      setup_s_.push_back(ms_between(t0, t2) / 1e3);
    }
    // The registry hands back the mapper's live index without rebuilding.
    seedext::IndexOptions io{mapper_->params().k, true, false};
    index_positions_ =
        seedext::IndexRegistry::instance().acquire_memory(genome_, io)->kmer().indexed_positions();
  }

  /// What the gate compares every sampled read with, once per run.
  ///  - The per-read path: ReadMapper::map plus to_sam_record's own
  ///    traceback. ReadMapper::map never routes to the X-drop engine, so
  ///    reads on the long-read route use a batch of one through fresh
  ///    scalar-CPU aligners with the same routing.
  ///  - A full-matrix oracle that shares no code with the engines. Where the
  ///    genome window is small enough it is smith_waterman_traceback over the
  ///    whole window, giving the expected SAM line. Otherwise (every routed
  ///    read, and very long unrouted ones) the sample's production engine
  ///    (xdrop_wavefront_align or banded_traceback) must equal its oracle
  ///    (xdrop_reference_align or smith_waterman_traceback) on a trimmed
  ///    window of the per-read path's alignment.
  void compute_oracle() {
    oracle_.assign(samples_.size(), {});
    util::parallel_for_indexed(samples_.size(), [&](std::size_t s) {
      const seq::Sequence& read = parsed_[samples_[s]];
      seedext::ReadMapping m;
      if (routed()) {
        core::Aligner ext(aligner_options("cpu", false));
        core::Aligner trace(aligner_options("cpu", true));
        const std::vector<std::vector<seq::BaseCode>> one{read.bases};
        m = mapper_->map_batch(one, ext.batch_extender(), trace.traced_extender())[0];
      } else {
        m = mapper_->map(read.bases);
      }
      oracle_[s].mapping = m;
      oracle_[s].per_read_line = sam_line(read, m);
    });
    // Serially: the full-matrix oracles hold O(N·M) tables.
    const align::ScoringScheme& scoring = mapper_->params().scoring;
    bool corrupt_trimmed = opt_.inject_fault;
    for (std::size_t s = 0; s < samples_.size(); ++s) {
      SampleOracle& o = oracle_[s];
      const seq::Sequence& read = parsed_[samples_[s]];
      if (!o.mapping.mapped) continue;
      const seedext::MappedWindow win =
          seedext::mapped_window(genome_.size(), o.mapping.ref_pos, read.bases.size());
      if (!routed() && read.bases.size() * (win.end - win.start) <= kFullWindowCells) {
        const std::vector<seq::BaseCode> oriented =
            o.mapping.reverse_strand ? seq::reverse_complement(read.bases) : read.bases;
        seedext::ReadMapping full = o.mapping;
        full.traced = align::smith_waterman_traceback(
            std::span(genome_).subspan(win.start, win.end - win.start), oriented, scoring);
        full.has_traceback = true;
        o.reference_line = sam_line(read, full);
        continue;
      }
      const std::optional<LineAlignment> a =
          parse_alignment(o.per_read_line, read, genome_.size());
      if (!a || a->aln.end.score == 0) continue;  // the per-read path check reports it
      const TrimmedWindow w = trimmed_window(*a, genome_, kTrimmedQueryBases);
      align::TracedAlignment engine, oracle;
      if (routed()) {
        const align::XDropParams xdrop{aligner_options("cpu", true).xdrop};
        engine = align::xdrop_wavefront_align(w.ref, w.query, scoring, xdrop);
        oracle = align::xdrop_reference_align(w.ref, w.query, scoring, xdrop);
      } else {
        engine = align::banded_traceback(w.ref, w.query, scoring).traced;
        oracle = align::smith_waterman_traceback(w.ref, w.query, scoring);
      }
      if (corrupt_trimmed) {  // fault injection: one engine result off by one
        engine.end.score += 1;
        corrupt_trimmed = false;
      }
      o.trimmed_checked = true;
      o.reference_ok = engine == oracle;
    }
  }

  std::string sam_line(const seq::Sequence& read, const seedext::ReadMapping& m) const {
    std::ostringstream out;
    seq::SamWriter writer(out, seq::SamHeader{});
    const auto header = static_cast<std::size_t>(out.tellp());
    writer.write(seedext::to_sam_record(*mapper_, read, m));
    return out.str().substr(header);
  }

  bool routed() const { return spec_.longread_threshold > 0; }

  seedext::BatchChainer timed_chainer() {
    return [this](const seedext::ChainBatch& batch) {
      const auto t0 = Clock::now();
      seedext::ChainEngineStats stats;
      seedext::ChainStageResult out;
      out.chains = seedext::chain_batch_run(batch, &stats);
      out.chaining_ms = stats.wall_ms;
      out.anchors = stats.anchors;
      out.updates = stats.pushes + stats.settled;
      layers_.chain_ms += ms_between(t0, Clock::now());
      layers_.chain_tasks += batch.tasks();
      layers_.chain_anchors += out.anchors;
      layers_.chain_updates += out.updates;
      return out;
    };
  }

  MapPass pass(bool traced) {
    MapPass p;
    p.line_begin.reserve(spec_.reads);
    p.mappings.reserve(spec_.reads);
    layers_ = MapLayers{};

    seedext::BatchExtender extend = ext_aligner_->batch_extender();
    seedext::TracedBatchExtender trace = trace_aligner_->traced_extender();
    if (traced) {
      extend = [this](const seq::PairBatch& b) {
        const auto t0 = Clock::now();
        core::AlignOutput out = ext_aligner_->align(b);
        layers_.extend_ms += ms_between(t0, Clock::now());
        ++layers_.extend_calls;
        layers_.extend_pairs += b.size();
        layers_.extend_cells += out.cells;
        layers_.imbalance_sum += out.schedule.imbalance;
        return std::move(out.results);
      };
      trace = [this](const seq::PairBatch& b) {
        const auto t0 = Clock::now();
        core::AlignOutput out = trace_aligner_->align(b);
        layers_.trace_ms += ms_between(t0, Clock::now());
        layers_.trace_score_ms += out.time_ms;
        layers_.trace_phase_ms += out.traceback_ms;
        layers_.trace_cells += out.traceback_cells;
        layers_.trace_score_cells += out.cells;
        return std::move(out.traced);
      };
      mapper_->set_batch_chainer(timed_chainer());
    }

    std::istringstream in(fastq_);
    std::optional<seq::FastqChunkReader> plain_reader;
    std::optional<TimedFastqReader> timed_reader;
    seq::SequenceChunkReader& reader =
        traced ? static_cast<seq::SequenceChunkReader&>(timed_reader.emplace(in, spec_.chunk_reads))
               : plain_reader.emplace(in, spec_.chunk_reads);

    std::ostringstream sam;
    const auto start = Clock::now();
    auto chunk_begin = start;  // end of the previous chunk's last SAM record
    std::size_t index = 0;
    try {
      seq::SamHeader header;
      header.reference_length = genome_.size();
      seq::SamWriter writer(sam, header);
      mapper_->map_stream(
          reader, extend, trace,
          [&](const seq::Sequence& read, const seedext::ReadMapping& m) {
            const auto t0 = Clock::now();
            // map_stream runs map_batch for a chunk, then hands its records
            // to this sink; the gap before a chunk's first record is that
            // chunk's map_batch.
            if (traced && index % spec_.chunk_reads == 0) {
              layers_.map_batch_ms += ms_between(chunk_begin, t0);
            }
            const auto before = sam.tellp();
            p.line_begin.push_back(static_cast<std::size_t>(before));
            writer.write(seedext::to_sam_record(*mapper_, read, m));
            p.mappings.push_back(m);
            const auto t1 = Clock::now();
            if (traced) {
              layers_.sam_ms += ms_between(t0, t1);
              ++layers_.sam_records;
              layers_.sam_bytes += static_cast<std::size_t>(sam.tellp() - before);
            }
            ++index;
            if (index % spec_.chunk_reads == 0 || index == spec_.reads) {
              p.chunk_ms.push_back(ms_between(chunk_begin, t1));
              chunk_begin = t1;
            }
          });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pass failed: %s\n", e.what());
      p.error = true;
    }
    p.wall_ms = ms_between(start, Clock::now());
    if (traced) {
      mapper_->set_batch_chainer(nullptr);
      layers_.parse_ms = timed_reader->parse_ms;
      traced_layers_ = layer_metrics();
    }
    p.sam = sam.str();
    return p;
  }

  /// One ReadMapper::seeds_of pass over both strands of every read, run
  /// host-parallel the way map_batch seeds.
  std::pair<double, std::size_t> seeding_pass() const {
    std::vector<std::size_t> seeds(parsed_.size(), 0);
    const auto t0 = Clock::now();
    util::parallel_for_indexed(parsed_.size(), [&](std::size_t i) {
      const auto& bases = parsed_[i].bases;
      seeds[i] = mapper_->seeds_of(bases).size() +
                 mapper_->seeds_of(seq::reverse_complement(bases)).size();
    });
    const double ms = ms_between(t0, Clock::now());
    std::size_t total = 0;
    for (std::size_t s : seeds) total += s;
    return {ms, total};
  }

  MetricValues layer_metrics() const {
    const MapLayers& l = layers_;
    MetricValues m;
    const auto [seed_ms, seeds] = seeding_pass();
    const double residual = l.map_batch_ms - l.chain_ms - l.extend_ms - l.trace_ms;
    m["seq.parse_ms"] = l.parse_ms;
    m["seq.parse_bytes"] = static_cast<double>(fastq_.size());
    m["seeding.ms"] = seed_ms;
    m["seeding.seeds"] = static_cast<double>(seeds);
    m["seeding.us_per_read"] = seed_ms * 1e3 / static_cast<double>(spec_.reads);
    m["chaining.ms"] = l.chain_ms;
    m["chaining.tasks"] = static_cast<double>(l.chain_tasks);
    m["chaining.anchors"] = static_cast<double>(l.chain_anchors);
    m["chaining.updates"] = static_cast<double>(l.chain_updates);
    m["map.residual_ms"] = residual;
    m["map.seeding_over_residual"] = ratio(seed_ms, residual);
    m["extend.ms"] = l.extend_ms;
    m["extend.pairs"] = static_cast<double>(l.extend_pairs);
    m["extend.cells"] = static_cast<double>(l.extend_cells);
    m["extend.gcups"] = ratio(static_cast<double>(l.extend_cells), l.extend_ms * 1e6);
    m["extend.pairs_per_call"] =
        ratio(static_cast<double>(l.extend_pairs), static_cast<double>(l.extend_calls));
    m["extend.imbalance"] = ratio(l.imbalance_sum, static_cast<double>(l.extend_calls));
    m["traceback.ms"] = l.trace_ms;
    m["traceback.score_ms"] = l.trace_score_ms;
    m["traceback.phase_ms"] = l.trace_phase_ms;
    m["traceback.cells"] = static_cast<double>(l.trace_cells);
    m["traceback.replay_ratio"] =
        ratio(static_cast<double>(l.trace_cells), static_cast<double>(l.trace_score_cells));
    m["sam.ms"] = l.sam_ms;
    m["sam.records"] = static_cast<double>(l.sam_records);
    m["sam.bytes"] = static_cast<double>(l.sam_bytes);
    return m;
  }

  /// Advisory only: the outside split is trusted when the separately timed
  /// seeds_of pass accounts for the in-program residual, as on short reads;
  /// elsewhere job extraction also shows there. The ratio is reported
  /// (map.seeding_over_residual) but never fails a run: a change that seeds
  /// inside map_batch differently from seeds_of is not a wrong output.
  static void note_seeding_split(const MetricValues& m, RunResult& result) {
    const double r = m.at("map.seeding_over_residual");
    const bool agree = r > 0.75 && r < 1.25;
    result.info["seeding_residual_agree"] = agree ? "true" : "false";
    if (!agree) {
      std::fprintf(stderr, "note: seeding.ms is %.2fx map.residual_ms\n", r);
    }
  }

  PassCheck check(const MapPass& p) const {
    PassCheck c;
    c.complete = !p.error && p.line_begin.size() == spec_.reads;
    for (std::size_t r = 0; c.complete && r < spec_.reads; ++r) {
      const std::string& name = parsed_[r].name;
      c.complete = p.sam.compare(p.line_begin[r], name.size() + 1, name + "\t") == 0;
    }
    if (!c.complete) return c;
    for (std::size_t r : samples_) {
      const std::size_t end = r + 1 < spec_.reads ? p.line_begin[r + 1] : p.sam.size();
      c.sampled.push_back(p.sam.substr(p.line_begin[r], end - p.line_begin[r]));
    }
    for (std::size_t r = 0; r < spec_.reads; ++r) {
      const auto& m = p.mappings[r];
      const auto& t = truth_[r];
      const std::size_t dist =
          m.ref_pos > t.true_pos ? m.ref_pos - t.true_pos : t.true_pos - m.ref_pos;
      // On the true strand, within 20 bp of the simulated origin.
      c.accurate += m.mapped && m.reverse_strand == t.reverse_strand && dist <= 20;
    }
    return c;
  }

  /// Per-operation gate: every chunk of an incomplete pass fails; otherwise
  /// a chunk fails when its sampled read's SAM line differs from the
  /// per-read path, does not rescore to its AS tag, or fails its full-matrix
  /// oracle check.
  void gate(const PassCheck& c, RunResult& result) const {
    const std::size_t chunks = samples_.size();
    result.attempted += chunks;
    if (!c.complete) {
      result.failed += chunks;
      result.failed_by_check["complete_output"] += chunks;
      result.checks_ok = false;
      return;
    }
    for (std::size_t s = 0; s < chunks; ++s) {
      const std::string& line = c.sampled[s];
      const SampleOracle& o = oracle_[s];
      const bool path_ok = line == o.per_read_line;
      const bool rescore_ok =
          rescores(line, parsed_[samples_[s]], genome_, mapper_->params().scoring);
      const bool oracle_ok =
          o.reference_ok && (o.reference_line.empty() || line == o.reference_line);
      result.failed_by_check["per_read_path"] += !path_ok;
      result.failed_by_check["rescore"] += !rescore_ok;
      result.failed_by_check["full_matrix_oracle"] += !oracle_ok;
      if (path_ok && rescore_ok && oracle_ok) continue;
      ++result.failed;
      std::fprintf(stderr,
                   "chunk %zu, read %zu: per-read path %s, rescore %s, full-matrix oracle %s\n"
                   "  got      %s\n  expected %s\n",
                   s, samples_[s], path_ok ? "ok" : "DIFFERS", rescore_ok ? "ok" : "FAILS",
                   oracle_ok ? "ok" : "FAILS", brief(line).c_str(), brief(o.per_read_line).c_str());
    }
  }

  /// Oracle data of one sampled read (see compute_oracle).
  struct SampleOracle {
    seedext::ReadMapping mapping;  ///< per-read path
    std::string per_read_line;
    std::string reference_line;    ///< whole-window full-matrix line; empty if not run
    bool trimmed_checked = false;  ///< the trimmed-window engine check ran
    bool reference_ok = true;      ///< ... and the engine equalled its oracle
  };

  /// Largest genome window (read bases × window bases) the whole-window
  /// full-matrix oracle runs on; its tables take 12 bytes a cell.
  static constexpr std::size_t kFullWindowCells = std::size_t{1} << 24;
  /// Read bases of a trimmed oracle window.
  static constexpr std::size_t kTrimmedQueryBases = 1000;

  MappingSpec spec_;
  BenchOptions opt_;
  std::vector<seq::BaseCode> genome_;
  std::vector<seq::SimulatedRead> truth_;
  std::string fastq_;
  std::vector<seq::Sequence> parsed_;
  std::vector<std::size_t> samples_;
  std::vector<SampleOracle> oracle_;

  std::optional<seedext::ReadMapper> mapper_;
  std::optional<core::Aligner> ext_aligner_, trace_aligner_;
  std::vector<double> setup_s_, index_ms_;
  std::size_t index_positions_ = 0;
  std::size_t cells_per_pass_ = 0;

  MapLayers layers_;
  MetricValues traced_layers_;
};

// ---------------------------------------------------------------------------
// tenant_extend: closed-loop tenants over one AlignService
// ---------------------------------------------------------------------------

struct TenantSpec {
  std::size_t genome_len = 0;
  std::size_t dataset_reads = 0;  ///< dataset-B′ reads whose jobs make one pass
  std::size_t request_pairs = 0;
  std::size_t tenants = 0;
  int setup_reps = 301;  ///< construction takes ~30 us: many repetitions steady the median
};

class TenantBench {
 public:
  TenantBench(const TenantSpec& spec, const BenchOptions& opt) : spec_(spec), opt_(opt) {}

  RunResult run() {
    generate_inputs();
    RunResult result;
    for (int rep = 0; rep < spec_.setup_reps; ++rep) {
      service_.reset();
      const auto t0 = Clock::now();
      service_.emplace(options());
      setup_s_.push_back(ms_between(t0, Clock::now()) / 1e3);
    }
    pass();  // warm-up

    std::vector<double> gcups, traced_gcups, reads_rate, latencies, pass_ms;
    std::vector<MetricValues> layers;
    std::vector<TenantPass> checks;
    run_passes(opt_, [&](bool traced) {
      const core::ServiceStats before = service_->stats();
      TenantPass p = pass();
      (traced ? traced_gcups : gcups)
          .push_back(ratio(static_cast<double>(cells_), p.wall_ms * 1e6));
      if (traced) {
        layers.push_back(layer_metrics(before, service_->stats(), p));
      } else {
        pass_ms.push_back(p.wall_ms);
        reads_rate.push_back(ratio(static_cast<double>(dataset_reads_), p.wall_ms / 1e3));
        latencies.insert(latencies.end(), p.latency_ms.begin(), p.latency_ms.end());
      }
      checks.push_back(std::move(p));
    }, [] { return true; });  // every pass holds ~100 request latencies
    service_->stop();
    // Read before the oracle runs, so only the program under test counts.
    const double rss = peak_rss_mb();

    compute_oracle();
    if (opt_.inject_fault && !checks.front().sampled.empty()) {
      checks.front().sampled.begin()->second.front().score += 1;
    }
    for (const TenantPass& p : checks) gate(p, result);

    result.metrics["reads_per_s"] = median_of(reads_rate);
    result.metrics["host_gcups"] = median_of(gcups);
    report_latency(latencies, result);
    result.metrics["accurate_frac"] =
        ratio(static_cast<double>(result.attempted - result.failed),
              static_cast<double>(result.attempted));
    result.metrics["setup_s"] = median_of(setup_s_);
    result.metrics["peak_rss_mb"] = rss;
    result.info["pass_ms"] = json_array(pass_ms);
    result.info["pairs_per_pass"] = std::to_string(pairs_);
    result.info["cells_per_pass"] = std::to_string(cells_);
    result.info["requests_per_pass"] = std::to_string(requests_.size());
    result.info["tenants"] = std::to_string(spec_.tenants);
    result.info["setup_reps"] = std::to_string(spec_.setup_reps);
    result.info["dataset_reads"] = std::to_string(dataset_reads_);
    result.info["dataset_cv_cells"] = json_number(cv_cells_);
    if (opt_.trace) {
      MetricValues m = median_layers(layers);
      m["extend.imbalance"] = ratio(oracle_imbalance_, static_cast<double>(oracle_.size()));
      m["trace.overhead_frac"] = 1.0 - ratio(median_of(traced_gcups), median_of(gcups));
      result.metrics = m;
      result.info["passes_traced"] = std::to_string(traced_gcups.size());
      result.info["host_gcups_untraced"] = json_number(median_of(gcups));
      result.info["host_gcups_traced"] = json_number(median_of(traced_gcups));
    }
    return result;
  }

 private:
  struct TenantPass {
    double wall_ms = 0.0;
    std::vector<double> latency_ms;
    std::map<std::size_t, std::vector<align::AlignmentResult>> sampled;
    std::vector<std::uint8_t> request_error;
  };

  core::AlignerOptions options() const {
    core::AlignerOptions o;
    o.device = "simd";
    o.cpu_threads = opt_.threads;
    return o;
  }

  void generate_inputs() {
    // Dataset B′ built the way core::make_dataset_b builds it (PacBio-like
    // reads → ReadMapper::collect_jobs → banded extension pairs), over reads
    // from simulate_reads so the job-length mix is the same under every seed.
    const auto genome = core::make_genome(spec_.genome_len, 1000 + opt_.seed);
    const seq::ReadProfile profile = seq::ReadProfile::pacbio_2kbp();
    std::vector<std::vector<seq::BaseCode>> reads;
    for (auto& r : simulate_reads(genome, profile, spec_.dataset_reads)) {
      reads.push_back(std::move(r.read.bases));
    }
    seq::PairBatch all;
    for (auto& job : seedext::ReadMapper(genome, mapper_params_for(profile)).collect_jobs(reads)) {
      if (!job.query.empty() && !job.ref.empty()) {
        all.add(std::move(job.query), std::move(job.ref), job.band);
      }
    }
    dataset_reads_ = reads.size();
    cv_cells_ = core::stats_of(all).cv_cells;
    pairs_ = all.size();
    cells_ = all.total_banded_cells();
    for (std::size_t first = 0; first < all.size(); first += spec_.request_pairs) {
      seq::PairBatch req;
      for (std::size_t i = first; i < std::min(all.size(), first + spec_.request_pairs); ++i) {
        req.add(all.queries[i], all.refs[i], all.band_of(i));
      }
      requests_.push_back(std::move(req));
    }
    // Every 8th request (at a seed-dependent phase) is checked each pass.
    for (std::size_t r = mix(opt_.seed) % 8; r < requests_.size(); r += 8) {
      sampled_.push_back(r);
    }
  }

  void compute_oracle() {
    core::Aligner standalone(options());
    for (std::size_t r : sampled_) {
      core::AlignOutput out = standalone.align(requests_[r]);
      oracle_imbalance_ += out.schedule.imbalance;
      oracle_.push_back(std::move(out.results));
    }
  }

  /// One pass: the requests dealt round-robin to the tenants, each tenant a
  /// closed loop (submit one request, wait for all its results, repeat).
  TenantPass pass() {
    TenantPass p;
    p.request_error.assign(requests_.size(), 0);
    std::vector<std::vector<double>> lat(spec_.tenants);
    std::vector<std::map<std::size_t, std::vector<align::AlignmentResult>>> got(spec_.tenants);
    const auto start = Clock::now();
    std::vector<std::thread> tenants;
    for (std::size_t t = 0; t < spec_.tenants; ++t) {
      tenants.emplace_back([&, t] {
        std::size_t r = t;
        try {
          core::SessionId id = service_->open();
          for (; r < requests_.size(); r += spec_.tenants) {
            const auto t0 = Clock::now();
            if (!service_->submit(id, requests_[r])) throw std::runtime_error("submit refused");
            std::vector<align::AlignmentResult> results;
            while (results.size() < requests_[r].size()) {
              auto span = service_->poll(id);
              if (!span) throw std::runtime_error("session ended early");
              for (auto& res : span->results) results.push_back(res);
            }
            lat[t].push_back(ms_between(t0, Clock::now()));
            if (std::binary_search(sampled_.begin(), sampled_.end(), r)) {
              got[t][r] = std::move(results);
            }
          }
          service_->finish(id);
          while (service_->poll(id)) {
          }
        } catch (const std::exception& e) {
          // This request and the tenant's remaining ones count as failed.
          std::fprintf(stderr, "tenant %zu, request %zu: %s\n", t, r, e.what());
          for (; r < requests_.size(); r += spec_.tenants) p.request_error[r] = 1;
        }
      });
    }
    for (auto& th : tenants) th.join();
    p.wall_ms = ms_between(start, Clock::now());
    for (std::size_t t = 0; t < spec_.tenants; ++t) {
      p.latency_ms.insert(p.latency_ms.end(), lat[t].begin(), lat[t].end());
      p.sampled.merge(got[t]);
    }
    return p;
  }

  /// A request fails if it threw, or (when sampled) its results differ from
  /// a standalone Aligner::align of the same pairs.
  void gate(const TenantPass& p, RunResult& result) const {
    result.attempted += requests_.size();
    for (std::size_t r = 0; r < requests_.size(); ++r) {
      result.failed += p.request_error[r];
      result.failed_by_check["request_completed"] += p.request_error[r];
    }
    for (std::size_t s = 0; s < sampled_.size(); ++s) {
      const std::size_t r = sampled_[s];
      if (p.request_error[r]) continue;
      auto it = p.sampled.find(r);
      if (it == p.sampled.end() || it->second != oracle_[s]) {
        ++result.failed;
        ++result.failed_by_check["standalone_aligner"];
        std::fprintf(stderr, "request %zu differs from the standalone aligner\n", r);
      }
    }
  }

  MetricValues layer_metrics(const core::ServiceStats& a, const core::ServiceStats& b,
                             const TenantPass& p) const {
    MetricValues m;
    for (const Metric& metric : kPerLayer) m[metric.name] = 0.0;
    const double batches = static_cast<double>(b.batches - a.batches);
    const double pairs = static_cast<double>(b.pairs - a.pairs);
    const double cells = static_cast<double>(b.cells - a.cells);
    const double align_ms = b.align_ms - a.align_ms;
    const double batch_wall = b.batch_wall_ms - a.batch_wall_ms;
    m["extend.ms"] = align_ms;
    m["extend.pairs"] = pairs;
    m["extend.cells"] = cells;
    m["extend.gcups"] = ratio(cells, align_ms * 1e6);
    m["extend.pairs_per_call"] = ratio(pairs, batches);
    m["service.batches"] = batches;
    m["service.pairs_per_batch"] = ratio(pairs, batches);
    m["service.busy_frac"] = ratio(batch_wall, p.wall_ms);
    m["service.queue_wait_ms"] = std::max(0.0, util::mean(p.latency_ms) - ratio(batch_wall, batches));
    return m;
  }

  TenantSpec spec_;
  BenchOptions opt_;
  std::vector<seq::PairBatch> requests_;
  std::vector<std::size_t> sampled_;
  std::vector<std::vector<align::AlignmentResult>> oracle_;
  double oracle_imbalance_ = 0.0;
  std::size_t dataset_reads_ = 0, pairs_ = 0, cells_ = 0;
  double cv_cells_ = 0.0;
  std::optional<core::AlignService> service_;
  std::vector<double> setup_s_;
};

// ---------------------------------------------------------------------------
// Workload table and entry point
// ---------------------------------------------------------------------------

const char* const kWorkloads[] = {"short_reads", "long_reads", "ultralong_reads",
                                  "tenant_extend"};

RunResult run_workload(const std::string& name, const BenchOptions& opt) {
  const bool tiny = opt.tiny;
  if (name == "short_reads") {
    MappingSpec s;
    s.genome_len = tiny ? (1u << 20) : (32u << 20);
    s.profile = seq::ReadProfile::illumina_250bp();
    s.reads = tiny ? 256 : 4096;
    s.chunk_reads = tiny ? 64 : 256;
    return MappingBench(s, opt).run();
  }
  if (name == "long_reads") {
    MappingSpec s;
    s.genome_len = tiny ? (1u << 20) : (4u << 20);
    s.profile = seq::ReadProfile::pacbio_2kbp();
    s.reads = tiny ? 8 : 48;
    s.chunk_reads = tiny ? 4 : 16;
    s.min_chunk_samples = tiny ? 0 : 22;
    return MappingBench(s, opt).run();
  }
  if (name == "ultralong_reads") {
    MappingSpec s;
    s.genome_len = tiny ? (1u << 20) : (4u << 20);
    s.profile = seq::ReadProfile::nanopore_ultralong(tiny ? 3000 : 20000);
    s.reads = tiny ? 4 : 16;
    s.chunk_reads = tiny ? 2 : 8;
    s.longread_threshold = tiny ? 1500 : 4000;
    return MappingBench(s, opt).run();
  }
  if (name == "tenant_extend") {
    TenantSpec s;
    s.genome_len = tiny ? (1u << 20) : (4u << 20);
    s.dataset_reads = tiny ? 12 : 160;
    s.request_pairs = tiny ? 8 : 32;
    s.tenants = 3;
    return TenantBench(s, opt).run();
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (short_reads, long_reads, ultralong_reads, tenant_extend)");
}

void add_environment(RunResult& r, const std::string& workload, const BenchOptions& opt) {
  r.info["workload"] = json_string(workload);
  r.info["seed"] = std::to_string(opt.seed);
  r.info["seconds"] = json_number(opt.seconds);
  r.info["trace"] = opt.trace ? "true" : "false";
  r.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.info["threads"] = std::to_string(opt.threads);
  r.info["omp_max_threads"] = std::to_string(util::max_parallel_threads());
  r.info["isa"] = json_string(align::simd::isa_name());
  r.info["build_type"] = json_string(SALOBA_BENCH_BUILD_TYPE);
  r.info["inject_fault"] = opt.inject_fault ? "true" : "false";
  std::string failed = "{";
  for (const auto& [check, n] : r.failed_by_check) {
    failed += std::string(failed.size() > 1 ? ", " : "") + json_string(check) + ": " +
              std::to_string(n);
  }
  r.info["failed_by_check"] = failed + "}";
  if (opt.trace) {
    // Share of each outside-timed layer in the traced mapping pass.
    double total = 0.0;
    for (const char* name : kLayerTimes) total += std::max(0.0, r.metrics[name]);
    std::string shares = "{";
    for (const char* name : kLayerTimes) {
      shares += std::string(shares.size() > 1 ? ", " : "") + json_string(name) + ": " +
                json_number(ratio(std::max(0.0, r.metrics[name]), total));
    }
    r.info["layer_shares"] = shares + "}";
  }
}

/// Every workload at smoke size: clean and traced runs must pass the gate;
/// in a run with injected faults, each of the workload's checks must fail.
int smoke(BenchOptions opt) {
  opt.tiny = true;
  opt.seconds = 0.0;
  bool ok = true;
  for (const char* w : kWorkloads) {
    for (const auto& [trace, fault] : {std::pair{0, 0}, std::pair{0, 1}, std::pair{1, 0}}) {
      opt.trace = trace == 1;
      opt.inject_fault = fault == 1;
      const RunResult r = run_workload(w, opt);
      const bool passed = r.failed == 0 && r.checks_ok && r.attempted > 0;
      bool nonzero = true;
      if (!opt.trace) {
        for (const Metric& m : kEndToEnd) nonzero = nonzero && r.metrics.at(m.name) > 0;
      }
      std::string missed;
      if (opt.inject_fault) {
        const bool mapping = std::string(w) != "tenant_extend";
        for (const char* check : mapping ? std::vector<const char*>{"per_read_path", "rescore",
                                                                    "full_matrix_oracle"}
                                         : std::vector<const char*>{"standalone_aligner"}) {
          auto it = r.failed_by_check.find(check);
          if (it == r.failed_by_check.end() || it->second == 0) missed += std::string(" ") + check;
        }
      }
      const bool expected = (passed == !opt.inject_fault) && nonzero && missed.empty();
      std::printf("[%s] %-16s trace=%d fault=%d: attempted %zu failed %zu%s%s\n",
                  expected ? "PASS" : "FAIL", w, trace, fault, r.attempted, r.failed,
                  nonzero ? "" : " (an end-to-end metric is 0)",
                  missed.empty() ? "" : (" (the fault passed:" + missed + ")").c_str());
      ok = ok && expected;
    }
  }
  std::printf("smoke: %s\n", ok ? "all gates behave" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("saloba_perfbench", "end-to-end and per-layer host benchmark");
  args.add_string("workload", "short_reads | long_reads | ultralong_reads | tenant_extend", "");
  args.add_int("seed", "input seed", 1);
  args.add_double("seconds", "measurement time per run", 10.0);
  args.add_int("trace", "1 = per-layer metrics from a traced pass", 0);
  args.add_flag("smoke", "every workload tiny: clean, traced, and with one injected fault");
  if (!args.parse(argc, argv)) return 2;

  BenchOptions opt;
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  opt.seconds = args.get_double("seconds");
  opt.trace = args.get_int("trace") != 0;
  // One closed-loop caller on a fixed share of the host: min(4, nproc).
  opt.threads = static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
#if defined(SALOBA_HAVE_OPENMP)
  omp_set_num_threads(opt.threads);
#endif

  if (args.get_flag("smoke")) return smoke(opt);

  const std::string workload = args.get_string("workload");
  try {
    RunResult r = run_workload(workload, opt);
    add_environment(r, workload, opt);
    if (opt.trace) {
      print_result(r, kPerLayer);
    } else {
      print_result(r, kEndToEnd);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "saloba_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
