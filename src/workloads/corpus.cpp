#include "workloads/corpus.hpp"

#include <stdexcept>

#include "util/strings.hpp"
#include "workloads/dft.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_graphs.hpp"
#include "workloads/random_dag.hpp"

namespace mpsched::workloads {

namespace {

struct ParsedSpec {
  std::string name;
  std::vector<std::size_t> args;
};

ParsedSpec parse_spec(const std::string& spec) {
  const std::string_view s = trim(spec);
  const std::size_t open = s.find('(');
  ParsedSpec out;
  if (open == std::string_view::npos) {
    out.name = std::string(s);
    return out;
  }
  if (s.empty() || s.back() != ')')
    throw std::invalid_argument("workload spec '" + spec + "': missing ')'");
  out.name = std::string(trim(s.substr(0, open)));
  const std::string_view arg_list = s.substr(open + 1, s.size() - open - 2);
  if (!trim(arg_list).empty()) {
    for (const std::string& tok : split(arg_list, ','))
      out.args.push_back(parse_size(trim(tok)));
  }
  return out;
}

void require_args(const ParsedSpec& p, std::size_t n, const char* usage) {
  if (p.args.size() != n)
    throw std::invalid_argument("workload '" + p.name + "' expects " + std::string(usage));
}

Dfg build(const ParsedSpec& p) {
  if (p.name == "paper_3dft") {
    require_args(p, 0, "no arguments");
    return paper_3dft();
  }
  if (p.name == "small_example") {
    require_args(p, 0, "no arguments");
    return small_example();
  }
  if (p.name == "dft3") {
    require_args(p, 0, "no arguments");
    return winograd_dft3();
  }
  if (p.name == "dft5") {
    require_args(p, 0, "no arguments");
    return winograd_dft5();
  }
  if (p.name == "fft") {
    require_args(p, 1, "(n)");
    return radix2_fft(p.args[0]);
  }
  if (p.name == "direct_dft") {
    require_args(p, 1, "(n)");
    return direct_dft(p.args[0]);
  }
  if (p.name == "fir") {
    require_args(p, 1, "(taps)");
    return fir_filter(p.args[0]);
  }
  if (p.name == "iir") {
    require_args(p, 1, "(sections)");
    return iir_biquad_cascade(p.args[0]);
  }
  if (p.name == "matmul") {
    require_args(p, 1, "(n)");
    return matmul(p.args[0]);
  }
  if (p.name == "dct8") {
    require_args(p, 0, "no arguments");
    return dct8();
  }
  if (p.name == "horner") {
    require_args(p, 1, "(degree)");
    return horner(p.args[0]);
  }
  if (p.name == "bitonic") {
    require_args(p, 1, "(n)");
    return bitonic_sort(p.args[0]);
  }
  if (p.name == "stencil5") {
    require_args(p, 2, "(width,height)");
    return stencil5(p.args[0], p.args[1]);
  }
  if (p.name == "layered") {
    require_args(p, 1, "(seed)");
    return random_layered_dag(p.args[0]);
  }
  if (p.name == "series_parallel") {
    require_args(p, 1, "(seed)");
    return random_series_parallel(p.args[0]);
  }
  if (p.name == "expr_tree") {
    require_args(p, 1, "(seed)");
    return random_expression_tree(p.args[0]);
  }
  throw std::invalid_argument("unknown workload '" + p.name + "'");
}

}  // namespace

Dfg make_workload(const std::string& spec) {
  Dfg dfg = build(parse_spec(spec));
  // Name the graph after its spec so results and cache keys are
  // self-describing regardless of what the generator called it.
  dfg.set_name(std::string(trim(spec)));
  return dfg;
}

bool is_valid_workload(const std::string& spec) {
  try {
    build(parse_spec(spec));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<std::string> workload_usage() {
  return {
      "paper_3dft",       "small_example",     "dft3",
      "dft5",             "fft(n)",            "direct_dft(n)",
      "fir(taps)",        "iir(sections)",     "matmul(n)",
      "dct8",             "horner(degree)",    "bitonic(n)",
      "stencil5(width,height)", "layered(seed)", "series_parallel(seed)",
      "expr_tree(seed)",
  };
}

std::vector<std::string> demo_corpus_specs() {
  // Duplicates are intentional: fir(28) three times and paper_3dft twice
  // model the real harness corpus, where the same graphs recur. fir(28)
  // (28 parallel multiplies feeding an adder tree) is the heavy job —
  // a couple hundred thousand antichains — heavy enough that
  // deduplication and root sharding both matter, light enough for the
  // ASan CI leg.
  return {
      "fir(28)", "paper_3dft", "bitonic(8)", "fir(28)",
      "dct8",    "layered(42)", "fir(28)",   "paper_3dft",
  };
}

const std::vector<CorpusGroup>& corpus_groups() {
  // Sized for the tournament harness: every group stays small enough that
  // the exhaustive backend — up to C(21, Pdef) bounded scheduler runs per
  // graph on one prepared scheduler — is cheap on every member. CI runs it
  // over the paper, dft, kernels and random groups (the 21 "tournament
  // graphs") in the Release and ASan legs.
  static const std::vector<CorpusGroup> groups = {
      {"paper",
       "the paper's graphs: Fig. 2 3-point DFT, Fig. 4 example, Winograd DFTs",
       {"paper_3dft", "small_example", "dft3", "dft5"}},
      {"dft",
       "scalable DFT family: radix-2 FFTs and direct DFTs",
       {"fft(4)", "fft(8)", "direct_dft(3)", "direct_dft(4)"}},
      {"kernels",
       "compiler-flow DSP kernels: filters, transforms, reductions",
       {"fir(12)", "iir(3)", "matmul(3)", "dct8", "horner(10)", "bitonic(8)",
        "stencil5(3,3)"}},
      {"random",
       "seeded DAG families: layered, series-parallel, expression trees",
       {"layered(7)", "layered(21)", "series_parallel(11)",
        "series_parallel(12)", "expr_tree(5)", "expr_tree(9)"}},
      {"smoke",
       "small cross-section for CI smoke runs",
       {"small_example", "dft3", "fir(8)", "layered(7)", "expr_tree(5)"}},
  };
  return groups;
}

const CorpusGroup& corpus_group(const std::string& name) {
  for (const CorpusGroup& g : corpus_groups())
    if (g.name == name) return g;
  std::string known;
  for (const CorpusGroup& g : corpus_groups()) {
    if (!known.empty()) known += ", ";
    known += g.name;
  }
  throw std::invalid_argument("unknown corpus group '" + name +
                              "' (known: " + known + ")");
}

}  // namespace mpsched::workloads
