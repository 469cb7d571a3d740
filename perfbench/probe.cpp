// dtbench: the benchmark's in-process layer probe.
//
//   dtbench layers NORMAL FAULTY --jobs J --seconds S --work DIR --out FILE
//                  [--suspect P]
//   dtbench layers NORMAL FAULTY --jobs J --seconds 0 --work DIR [--suspect P]
//   dtbench calibrate
//   dtbench rss FILE PROGRAM ARGS...
//
// Loads a normal/faulty archive pair and calls each layer's public entry
// points in turn (trace load/save, codec decode/encode, Session, NlrBuilder,
// evaluate and its attribute/JSM/cluster/B-score parts, sweep at jobs 1 and
// J, cold and warm cache sweeps, diffNLR, CheckContext, the three check
// engines, and serve::Service::handle_line), wrapping each call in a span
// kept in memory. Rounds repeat until S seconds have passed; every other
// round runs the same calls with span recording off, so the cost of the
// spans themselves shows as the difference between the two kinds of round.
// The spans and per-round walls are written to FILE as JSON at the end;
// perfbench/run.py turns them into the per-layer metrics. With --seconds 0
// only the checking round below runs and nothing is written.
//
// A first, unrecorded round checks properties the method must have: every codec
// round-trips every blob, expand_nlr of every NLR program equals the token
// stream decoded and filtered here, JSMs are symmetric with a unit diagonal
// and entries in [0,1], B-scores lie in [0,1], the evaluate parts reproduce
// core::evaluate, and the sweep renders the same table at jobs 1 and J and
// across no-cache, cold and warm passes. A failed check prints
// "CHECK FAILED: ..." to stderr and exits 1.
//
// `calibrate` runs a fixed piece of work that calls no difftrace code;
// run.py times it to scale end-to-end times to a reference machine speed.
//
// `rss` runs PROGRAM and writes its peak resident set in kB to FILE; see
// run_measured().
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analyze/analyze.hpp"
#include "analyze/context.hpp"
#include "cli/args.hpp"
#include "cli/load.hpp"
#include "cli/ops.hpp"
#include "compress/codec.hpp"
#include "core/pipeline.hpp"
#include "sched/cache.hpp"
#include "sched/pool.hpp"
#include "serve/service.hpp"
#include "trace/event.hpp"
#include "trace/store.hpp"

namespace dt = difftrace;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

struct SpanRecord {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double work = 0.0;  // events, tokens, ops or bytes, where the layer counts them
  int round = 0;
};

/// A count read off a layer once per round (cache hits, exact streams).
struct CountRecord {
  std::string name;
  double value = 0.0;
  int round = 0;
};

class Tracer {
 public:
  bool enabled = true;
  int round = 0;
  std::vector<SpanRecord> spans;
  std::vector<CountRecord> counts;
  std::vector<int> open;

  void count(const char* name, double value) {
    if (enabled) counts.push_back(CountRecord{name, value, round});
  }

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

 private:
  Clock::time_point origin_ = Clock::now();
};

Tracer g_tracer;

/// RAII span around one call into a layer. Records nothing when the
/// round runs untraced.
class Span {
 public:
  explicit Span(const char* name) {
    if (!g_tracer.enabled) return;
    index_ = static_cast<int>(g_tracer.spans.size());
    const int parent = g_tracer.open.empty() ? -1 : g_tracer.open.back();
    g_tracer.spans.push_back(SpanRecord{name, parent, g_tracer.now(), 0, 0.0, g_tracer.round});
    g_tracer.open.push_back(index_);
  }
  ~Span() {
    if (index_ < 0) return;
    g_tracer.spans[static_cast<std::size_t>(index_)].end_ns = g_tracer.now();
    g_tracer.open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void work(double n) {
    if (index_ >= 0) g_tracer.spans[static_cast<std::size_t>(index_)].work = n;
  }

 private:
  int index_ = -1;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("CHECK FAILED: " + what);
}

/// The default `rank` filter (mpiall: calls whose name starts with MPI_,
/// returns and @plt stubs dropped), computed from the codec's symbols
/// without going through core::FilterSpec.
std::vector<std::string> filtered_tokens(const std::vector<dt::compress::Symbol>& symbols,
                                         const dt::trace::FunctionRegistry& registry) {
  const auto functions = registry.snapshot();
  std::vector<std::string> out;
  for (const auto s : symbols) {
    const auto ev = dt::trace::symbol_to_event(s);
    if (ev.kind != dt::trace::EventKind::Call) continue;
    const auto& name = functions.at(ev.fid).name;
    if (name.rfind("MPI_", 0) != 0) continue;
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, "@plt") == 0) continue;
    out.push_back(name);
  }
  return out;
}

std::vector<dt::compress::Symbol> decode_blob(const dt::trace::TraceBlob& blob) {
  const auto codec = dt::compress::make_codec(blob.codec_name);
  return codec.decoder->decode(blob.bytes);
}

void check_jsm(const dt::util::Matrix& m, const std::string& what) {
  require(m.rows() == m.cols(), what + " is square");
  for (std::size_t i = 0; i < m.rows(); ++i) {
    require(m(i, i) == 1.0, what + " has a unit diagonal");
    for (std::size_t j = 0; j < m.cols(); ++j) {
      require(m(i, j) >= 0.0 && m(i, j) <= 1.0, what + " entries lie in [0,1]");
      require(m(i, j) == m(j, i), what + " is symmetric");
    }
  }
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

std::string render(const dt::core::RankingTable& table) {
  return table.render() + table.consensus_thread() + "\n";
}

struct Inputs {
  std::string normal_path;
  std::string faulty_path;
  std::size_t jobs = 1;
  fs::path work;
  int suspect = -1;  // injected rank, or -1 when the pair has none to pin
};

/// One round: every layer call once, in the order a user's commands make
/// them. `verify` adds the correctness checks; only the unrecorded first
/// round runs them.
void run_round(const Inputs& in, bool verify) {
  Span round_span("round");

  std::vector<dt::trace::TraceStore> stores;
  for (const auto* path : {&in.normal_path, &in.faulty_path}) {
    Span s("trace.load");
    stores.push_back(dt::trace::TraceStore::load(*path));
    s.work(static_cast<double>(fs::file_size(*path)));
  }
  const auto& normal = stores[0];
  const auto& faulty = stores[1];

  // Codecs: decode every blob, then re-encode the symbols with a fresh
  // encoder of the same codec.
  for (const auto* store : {&normal, &faulty}) {
    std::vector<std::vector<dt::compress::Symbol>> decoded;
    {
      Span s("compress.decode");
      std::uint64_t events = 0;
      for (const auto& key : store->keys()) {
        decoded.push_back(decode_blob(store->blob(key)));
        events += decoded.back().size();
      }
      s.work(static_cast<double>(events));
    }
    std::vector<std::vector<std::uint8_t>> encoded;
    {
      Span s("compress.encode");
      std::uint64_t events = 0;
      std::size_t i = 0;
      for (const auto& key : store->keys()) {
        auto codec = dt::compress::make_codec(store->blob(key).codec_name);
        for (const auto sym : decoded[i]) codec.encoder->push(sym);
        codec.encoder->flush();
        encoded.push_back(codec.encoder->bytes());
        events += decoded[i].size();
        ++i;
      }
      s.work(static_cast<double>(events));
    }
    if (verify) {
      std::size_t i = 0;
      for (const auto& key : store->keys()) {
        const auto& blob = store->blob(key);
        const auto codec = dt::compress::make_codec(blob.codec_name);
        require(codec.decoder->decode(encoded[i]) == decoded[i],
                "codec " + blob.codec_name + " round-trips trace " + key.label());
        require(decoded[i].size() == blob.event_count,
                "trace " + key.label() + " decodes to its recorded event count");
        ++i;
      }
    }
  }

  {
    Span s("trace.save");
    const auto path = in.work / "resaved.dtr";
    faulty.save(path);
    s.work(static_cast<double>(fs::file_size(path)));
  }

  const auto filters = dt::cli::filters_from(dt::cli::Args({}));
  const dt::core::NlrConfig nlr{};
  dt::sched::Pool pool(in.jobs);
  dt::sched::Pool* pool_ptr = in.jobs > 1 ? &pool : nullptr;
  std::optional<dt::core::Session> session;
  {
    Span s("core.session");
    session.emplace(normal, faulty, filters.front(), nlr,
                    dt::core::SessionOptions{.pool = pool_ptr, .cache = nullptr});
    s.work(static_cast<double>(session->traces().size()));
  }

  // NLR over the token streams filtered here, in a private table.
  {
    std::vector<std::vector<std::string>> streams;
    for (const auto* store : {&normal, &faulty})
      for (const auto& key : session->traces())
        streams.push_back(filtered_tokens(decode_blob(store->blob(key)), store->registry()));
    dt::core::TokenTable tokens;
    dt::core::LoopTable loops;
    std::vector<std::vector<dt::core::TokenId>> ids;
    std::uint64_t total = 0;
    for (const auto& st : streams) {
      ids.push_back(tokens.intern_all(st));
      total += st.size();
    }
    Span s("core.nlr");
    for (const auto& st : ids) {
      dt::core::NlrBuilder builder(loops, nlr);
      builder.push_all(st);
      (void)builder.take();
    }
    s.work(static_cast<double>(total));
  }
  if (verify) {
    const std::size_t n = session->traces().size();
    for (std::size_t i = 0; i < n; ++i) {
      const auto key = session->traces()[i];
      for (int side = 0; side < 2; ++side) {
        const auto& store = side == 0 ? normal : faulty;
        const auto& program = side == 0 ? session->normal_nlr(i) : session->faulty_nlr(i);
        std::vector<std::string> expanded;
        for (const auto id : dt::core::expand_nlr(program, session->loops()))
          expanded.push_back(session->tokens().name(id));
        require(expanded == filtered_tokens(decode_blob(store.blob(key)), store.registry()),
                "expand_nlr equals the filtered stream of trace " + key.label());
      }
    }
  }

  const auto attrs = dt::core::all_attr_configs();
  const auto linkage = dt::core::PipelineConfig{}.linkage;
  std::vector<dt::core::Evaluation> evaluations;
  {
    Span s("core.evaluate");
    for (const auto& attr : attrs) evaluations.push_back(dt::core::evaluate(*session, attr, linkage));
    s.work(static_cast<double>(attrs.size()));
  }
  {
    Span parts("core.evaluate_parts");
    const std::size_t n = session->traces().size();
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      std::vector<std::set<std::string>> an(n);
      std::vector<std::set<std::string>> af(n);
      {
        Span s("core.attributes");
        for (std::size_t i = 0; i < n; ++i) {
          an[i] = dt::core::mine_attributes(session->normal_nlr(i), session->tokens(),
                                            session->loops(), attrs[a]);
          af[i] = dt::core::mine_attributes(session->faulty_nlr(i), session->tokens(),
                                            session->loops(), attrs[a]);
        }
      }
      dt::util::Matrix jn;
      dt::util::Matrix jf;
      {
        Span s("core.jsm");
        jn = dt::core::jsm_from_attributes(an);
        jf = dt::core::jsm_from_attributes(af);
        (void)dt::core::suspicion_scores(dt::core::jsm_diff(jn, jf));
      }
      dt::core::Dendrogram dn;
      dt::core::Dendrogram df;
      {
        Span s("core.hclust");
        dn = dt::core::linkage(dt::core::similarity_to_distance(jn), linkage);
        df = dt::core::linkage(dt::core::similarity_to_distance(jf), linkage);
      }
      double b = 0.0;
      {
        Span s("core.bscore");
        b = dt::core::bscore(dn, df, n);
      }
      if (verify) {
        const auto& ev = evaluations[a];
        const auto label = attrs[a].name();
        check_jsm(ev.jsm_normal, "JSM_normal " + label);
        check_jsm(ev.jsm_faulty, "JSM_faulty " + label);
        require(ev.bscore >= 0.0 && ev.bscore <= 1.0, "B-score of " + label + " lies in [0,1]");
        require(jn == ev.jsm_normal && jf == ev.jsm_faulty && b == ev.bscore,
                "the evaluate parts reproduce core::evaluate for " + label);
      }
    }
  }

  // Sweeps: jobs 1, jobs J, then a cold and a warm artifact cache.
  dt::core::SweepConfig config;
  config.filters = filters;
  std::string table_j1;
  std::string table;
  {
    Span s("core.sweep_j1");
    config.analysis_threads = 1;
    table_j1 = render(dt::core::sweep(normal, faulty, config));
  }
  {
    Span s("core.sweep");
    config.analysis_threads = in.jobs;
    table = render(dt::core::sweep(normal, faulty, config));
  }
  const auto cache_dir = in.work / "sweep-cache";
  fs::remove_all(cache_dir);
  std::string cold_table;
  std::string warm_table;
  {
    dt::sched::Cache cache(cache_dir);
    config.cache = &cache;
    Span s("sched.cache_cold");
    cold_table = render(dt::core::sweep(normal, faulty, config));
    s.work(static_cast<double>(dir_bytes(cache_dir)));
  }
  {
    dt::sched::Cache cache(cache_dir);
    config.cache = &cache;
    {
      Span s("sched.cache_warm");
      warm_table = render(dt::core::sweep(normal, faulty, config));
    }
    g_tracer.count("sched.cache_hits", static_cast<double>(cache.hits()));
    g_tracer.count("sched.cache_lookups", static_cast<double>(cache.hits() + cache.misses()));
  }
  if (verify) {
    require(table == table_j1, "the rank table is identical at jobs 1 and jobs " +
                                   std::to_string(in.jobs));
    require(cold_table == table && warm_table == table,
            "the rank table is identical across no-cache, cold and warm passes");
  }

  {
    const auto key = in.suspect >= 0 ? dt::trace::TraceKey{in.suspect, 0} : session->traces().front();
    Span s("core.diffnlr");
    (void)session->diffnlr(key).render();
  }

  // Check engines on the faulty run.
  {
    Span s("analyze.context");
    const auto ctx = dt::analyze::CheckContext::build(faulty);
    s.work(static_cast<double>(ctx.streams().size()));
  }
  std::uint64_t ops = 0;
  for (const auto& key : faulty.keys()) ops += faulty.blob(key).ops.size();
  std::string replay_render;
  {
    Span s("analyze.replay");
    replay_render = dt::analyze::run_checks(faulty, {}).render();
    s.work(static_cast<double>(ops));
  }
  {
    dt::analyze::CheckOptions options;
    options.engine = dt::analyze::CheckEngine::Summary;
    Span s("analyze.summary");
    (void)dt::analyze::run_checks(faulty, options);
  }
  {
    std::ostringstream fallbacks;
    dt::analyze::CheckOptions options;
    options.engine = dt::analyze::CheckEngine::Auto;
    options.fallback_log = &fallbacks;
    std::string auto_render;
    std::size_t streams = 0;
    {
      Span s("analyze.auto");
      const auto report = dt::analyze::run_checks(faulty, options);
      auto_render = report.render();
      streams = report.streams_checked;
    }
    std::set<std::string> fell_back;
    std::istringstream lines(fallbacks.str());
    for (std::string line; std::getline(lines, line);) {
      std::istringstream words(line);
      std::string tag, kind, key;
      words >> tag >> kind >> key;
      if (tag == "[fallback]") fell_back.insert(key);
    }
    g_tracer.count("analyze.streams_exact", static_cast<double>(streams - fell_back.size()));
    g_tracer.count("analyze.streams_summarized", static_cast<double>(streams));
    if (verify) require(auto_render == replay_render, "check --engine auto equals replay");
  }

  // The serve layer without a socket: a fresh service per round.
  {
    const auto root = in.work / "service";
    fs::remove_all(root);
    std::ostringstream log;
    dt::serve::QueryOps ops;
    ops.load_archive = [](const std::string& path, std::ostream& chatter) {
      auto loaded = dt::cli::load_tolerant(path, chatter);
      return dt::serve::LoadedArchive{std::move(loaded.store), loaded.salvaged};
    };
    ops.rank = [](const dt::trace::TraceStore& n, const dt::trace::TraceStore& f,
                  const std::vector<std::string>& opts, dt::sched::Cache* cache, std::ostream& out,
                  std::ostream& chatter) {
      return dt::cli::rank_stores(n, f, dt::cli::Args(opts), cache, out, chatter);
    };
    ops.check = [](const dt::trace::TraceStore& store, const std::string& label,
                   const std::vector<std::string>& opts, const std::string& cache_dir,
                   std::ostream& out, std::ostream& chatter) {
      return dt::cli::check_store(store, label, dt::cli::Args(opts), cache_dir, out, chatter);
    };
    ops.make_session = [](const dt::trace::TraceStore& n, const dt::trace::TraceStore& f,
                          const std::vector<std::string>& opts) {
      return dt::cli::make_session(n, f, dt::cli::Args(opts));
    };
    ops.diff = [](const dt::core::Session& s, const std::string& trace,
                  const std::vector<std::string>& opts, std::ostream& out) {
      return dt::cli::render_diffnlr(s, trace, dt::cli::Args(opts), out);
    };
    dt::serve::Service service(dt::serve::ServiceConfig{.store_root = root, .hot_capacity = 8},
                               std::move(ops), log);
    const auto jobs = "\"opts\":[\"--jobs=" + std::to_string(in.jobs) + "\"]";
    const auto trace = (in.suspect >= 0 ? std::to_string(in.suspect) : std::string("0")) + ".0";
    const auto handle = [&](const char* span, const std::string& line) {
      Span s(span);
      const auto resp = service.handle_line(line);
      require(resp.status == "ok", std::string(span) + " answers ok: " + resp.error);
    };
    handle("serve.handle_ingest", "{\"op\":\"ingest\",\"path\":\"" + in.normal_path + "\",\"name\":\"n\"}");
    handle("serve.handle_ingest", "{\"op\":\"ingest\",\"path\":\"" + in.faulty_path + "\",\"name\":\"f\"}");
    handle("serve.handle_cold", "{\"op\":\"rank\",\"normal\":\"n\",\"faulty\":\"f\"," + jobs + "}");
    handle("serve.handle_warm", "{\"op\":\"rank\",\"normal\":\"n\",\"faulty\":\"f\"," + jobs + "}");
    handle("serve.handle_warm", "{\"op\":\"check\",\"run\":\"f\"}");
    handle("serve.handle_warm", "{\"op\":\"diff\",\"normal\":\"n\",\"faulty\":\"f\",\"trace\":\"" + trace + "\"}");
  }
}

void write_json(const fs::path& out, const std::vector<double>& traced, const std::vector<double>& untraced) {
  std::ofstream f(out);
  f << "{\"spans\":[";
  for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
    const auto& s = g_tracer.spans[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"parent\":" << s.parent
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"work\":" << s.work
      << ",\"round\":" << s.round << "}";
  }
  const auto list = [&f](const std::vector<double>& v) {
    f << "[";
    for (std::size_t i = 0; i < v.size(); ++i) f << (i ? "," : "") << v[i];
    f << "]";
  };
  f << "],\n\"counts\":[";
  for (std::size_t i = 0; i < g_tracer.counts.size(); ++i) {
    const auto& c = g_tracer.counts[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << c.name << "\",\"value\":" << c.value
      << ",\"round\":" << c.round << "}";
  }
  f << "],\n\"traced_round_s\":";
  list(traced);
  f << ",\n\"untraced_round_s\":";
  list(untraced);
  f << "}\n";
  if (!f) throw std::runtime_error("cannot write " + out.string());
}

/// A fixed piece of work that uses no difftrace code: ordered-map inserts
/// and lookups on string keys, a sort, and a floating-point loop, the mix
/// the pipeline spends its time on. Its wall time tracks how fast the
/// machine runs right now, whatever the code under test does.
double calibrate_once() {
  std::map<std::string, std::uint32_t> names;
  std::uint32_t x = 12345;
  const auto next = [&x] {
    x = x * 1664525u + 1013904223u;
    return x;
  };
  for (int i = 0; i < 20000; ++i) names["MPI_fn_" + std::to_string(next() % 50000)] = static_cast<std::uint32_t>(i);
  std::uint64_t found = 0;
  for (int i = 0; i < 40000; ++i) found += names.count("MPI_fn_" + std::to_string(next() % 50000));
  std::vector<std::uint32_t> v(300000);
  for (auto& e : v) e = next();
  std::sort(v.begin(), v.end());
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) acc += static_cast<double>(v[i] % 97) / (1.0 + static_cast<double>(i % 13));
  return acc + static_cast<double>(found);
}

/// Runs argv[0..] as a child and writes its peak resident set (kB) to
/// `file`; returns the child's exit code. A child's ru_maxrss also counts the
/// image it was started from (exec folds the old image's peak in), so the
/// Python harness, at about 20 MB, cannot read a smaller command's peak
/// itself; started from here, the old image is this small process.
int run_measured(const std::string& file, char** argv) {
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    execv(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) < 0) throw std::runtime_error("wait4 failed");
  std::ofstream(file) << usage.ru_maxrss << "\n";
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 4 && std::string(argv[1]) == "rss") return run_measured(argv[2], argv + 3);
    const dt::cli::Args args(std::vector<std::string>(argv + 1, argv + argc));
    const auto mode = args.positional_at(0, "mode (layers, calibrate, rss)");
    if (mode == "calibrate") {
      // Prints the checksum so the work cannot be optimized away.
      std::cout << calibrate_once() << "\n";
      return 0;
    }
    if (mode != "layers") throw std::runtime_error("unknown mode " + mode);
    Inputs in;
    in.normal_path = args.positional_at(1, "normal archive");
    in.faulty_path = args.positional_at(2, "faulty archive");
    in.jobs = static_cast<std::size_t>(std::max<std::int64_t>(1, args.int_or("jobs", 1)));
    in.work = args.required("work");
    in.suspect = static_cast<int>(args.int_or("suspect", -1));
    const double seconds = std::stod(args.get_or("seconds", "1"));
    fs::create_directories(in.work);

    // A first, unrecorded round runs the checks and warms the page cache.
    g_tracer.enabled = false;
    run_round(in, /*verify=*/true);
    if (seconds <= 0) return 0;
    const fs::path out = args.required("out");

    std::vector<double> traced;
    std::vector<double> untraced;
    const auto start = Clock::now();
    // Whole pairs of rounds, so traced and untraced rounds stay balanced.
    for (int round = 0;; ++round) {
      g_tracer.enabled = round % 2 == 0;
      g_tracer.round = round;
      const auto t0 = Clock::now();
      run_round(in, /*verify=*/false);
      const double dt_s = std::chrono::duration<double>(Clock::now() - t0).count();
      (g_tracer.enabled ? traced : untraced).push_back(dt_s);
      const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
      if (round % 2 == 1 && elapsed >= seconds) break;
    }
    write_json(out, traced, untraced);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dtbench: " << e.what() << "\n";
    return 1;
  }
}
