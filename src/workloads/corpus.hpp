// Workload specs — a tiny textual naming scheme over the src/workloads
// generators, so corpora (batch-engine job lists, CLI scenario files) can
// reference graphs by name instead of embedding edge lists.
//
// Grammar:  name  |  name(arg1,arg2,...)   with non-negative integer args.
//   paper_3dft            the reconstructed Fig. 2 graph (24 nodes)
//   small_example         the Fig. 4 running example (5 nodes)
//   dft3                  Winograd 3-point DFT
//   dft5                  Winograd 5-point DFT
//   fft(n)                radix-2 FFT (n a power of two)
//   direct_dft(n)         direct (naive) n-point DFT
//   fir(taps)             FIR filter
//   iir(sections)         biquad IIR cascade
//   matmul(n)             dense n×n matrix multiply
//   dct8                  8-point Loeffler DCT-II
//   horner(degree)        Horner polynomial chain
//   bitonic(n)            bitonic sorting network (n a power of two)
//   stencil5(w,h)         5-point Jacobi stencil sweep
//   layered(seed)         random layered DAG (default shape)
//   series_parallel(seed) random series-parallel DAG (default shape)
//   expr_tree(seed)       random binary expression tree (default shape)
//
// Every spec is fully deterministic: the same string always produces the
// same graph, which is what makes specs usable as cache keys and corpus
// round-trips byte-exact.
#pragma once

#include <string>
#include <vector>

#include "graph/dfg.hpp"

namespace mpsched::workloads {

/// Instantiates the graph a spec names; throws std::invalid_argument on an
/// unknown name, malformed args, or an arg count mismatch.
Dfg make_workload(const std::string& spec);

/// True if `spec` parses, names a known generator, and instantiates cleanly.
bool is_valid_workload(const std::string& spec);

/// The accepted spec shapes, one usage string per generator (CLI --list).
std::vector<std::string> workload_usage();

/// An 8-job mixed corpus of specs used by the engine bench, the CLI demo
/// corpus, and tests. Contains deliberate duplicates (the common case in
/// practice: the paper graphs appear in a dozen harnesses) so the analysis
/// cache has something to hit.
std::vector<std::string> demo_corpus_specs();

/// A named, curated set of workload specs — the registry the tournament
/// harness sweeps. Groups are deterministic and every spec instantiates.
struct CorpusGroup {
  std::string name;
  std::string description;
  std::vector<std::string> specs;
};

/// All registered groups, in registration order.
const std::vector<CorpusGroup>& corpus_groups();

/// Looks a group up by name; throws std::invalid_argument when unknown.
const CorpusGroup& corpus_group(const std::string& name);

}  // namespace mpsched::workloads
