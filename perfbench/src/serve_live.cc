// serve_live: open loop on both sides at once. A server process runs an
// async StreamEngine fed at a fixed event-time pace (the miner busy about a
// third of the time) behind a VerdictServer; this process is the load
// generator, sending single-lookup frames over one TCP connection on a
// fixed schedule — a base rate, then a short ladder of fixed rates past the
// knee. Framing, the epoll loop, verdict lookups and async publication
// carry the time here.
//
// End-to-end: freshness_ms.p50, latency_us.p50 (a lookup at the base rate,
// from its due time), throughput_per_s (lookups answered per second of the
// base phase), setup_s, peak_rss_mb (of the server process). The ladder
// and serve_max_qps belong to the traced run. The generator uses a sender
// and a receiver thread; the server process adds the feeder, the miner and
// the epoll loop.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "serve/client.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "spans.h"
#include "stream/engine.h"
#include "stream/verdict.h"
#include "synth/stream_gen.h"
#include "util.h"

namespace perfbench {

namespace {

using smash::serve::FrameStatus;

constexpr std::uint32_t kEpochSeconds = 600;
constexpr std::uint32_t kWindowEpochs = 12;
// Wall time per epoch of event time: the feeder's fixed pace.
constexpr double kEpochWallMs = 40.0;
constexpr double kBaseRate = 20000.0;
// The ladder (traced runs): fixed rates 15% apart, stopped after the first
// step that fails (the knee).
constexpr double kLadderFirst = 50000;
constexpr double kLadderRatio = 1.15;
constexpr int kLadderSteps = 20;
constexpr double kStepGapS = 0.1;      // idle time before each ladder step
constexpr double kStaleAfterMs = 5000;  // staleness SLO of the server
// The knee is the server's only if the sender kept to its schedule there.
constexpr double kMaxKneeLatenessP50Ms = 0.5;
constexpr double kMaxKneeLatenessP99Ms = 5.0;
constexpr int kSetups = 25;
constexpr std::size_t kSendBatch = 256;  // frames coalesced into one write

smash::synth::StreamScenarioConfig scenario_config(std::uint64_t seed) {
  smash::synth::StreamScenarioConfig config;
  config.seed = seed;
  config.duration_s = 86400;
  config.benign_servers = 300;
  config.benign_clients = 200;
  config.benign_visits = 9000;
  config.popular_servers = 3;
  config.popular_clients = 120;
  config.campaigns = 4;
  config.campaign_servers = 6;
  config.campaign_bots = 5;
  config.poll_interval_s = 300;
  config.active_fraction = 0.5;
  return config;
}

smash::stream::StreamConfig stream_config() {
  smash::stream::StreamConfig config;
  config.epoch_seconds = kEpochSeconds;
  config.window_epochs = kWindowEpochs;
  config.async_mining = true;
  config.smash.idf_threshold = 100;  // the popular head (120 clients) is filtered
  return config;
}

// Lookup mix: every campaign server (hits while the campaign is in the
// window), benign hosts, and hosts never seen.
std::vector<std::string> lookup_hosts(const smash::synth::StreamScenario& scenario) {
  std::vector<std::string> hosts;
  for (const auto& campaign : scenario.campaigns) {
    hosts.insert(hosts.end(), campaign.servers.begin(), campaign.servers.end());
  }
  for (int i = 0; i < 8; ++i) {
    hosts.push_back("site" + std::to_string(i) + ".org");
    hosts.push_back("never-seen" + std::to_string(i) + ".example");
  }
  return hosts;
}

smash::serve::RequestFrame lookup_frame(std::uint64_t id, const std::string& host) {
  smash::serve::RequestFrame request;
  request.type = smash::serve::FrameType::kLookup;
  request.request_id = id;
  request.lookups.push_back({host, ""});
  return request;
}

// Per-host verdict string of one snapshot: campaign size, or '-' when the
// host is not flagged.
std::string verdicts_of(const smash::stream::DetectionSnapshot& snapshot,
                        const std::vector<std::string>& hosts) {
  std::string out;
  for (const auto& host : hosts) {
    if (!out.empty()) out += ',';
    const auto* verdict = snapshot.find_host(host);
    out += verdict ? std::to_string(verdict->campaign_servers) : "-";
  }
  return out;
}

// --- server process ----------------------------------------------------------

struct ServerSide {
  std::unique_ptr<smash::stream::StreamEngine> engine;
  std::unique_ptr<smash::serve::VerdictServer> server;
  std::size_t next_event = 0;

  void reset() {
    server.reset();  // stops the loop before the slot it reads goes away
    engine.reset();
  }
};

// One set-up: engine and server from scratch, fed until the window is
// full and mined, then one lookup over the socket answered kOk. A set-up
// up to the first publication alone took ≈1 ms, mostly thread wake-ups,
// and its median moved by a third between sets of runs.
double set_up(const smash::synth::StreamScenario& scenario, ServerSide& side) {
  const std::int64_t start = now_ns();
  side.engine = std::make_unique<smash::stream::StreamEngine>(stream_config(), scenario.whois);
  smash::serve::ServeConfig serve_config;
  serve_config.stale_after_ms = kStaleAfterMs;
  side.server = std::make_unique<smash::serve::VerdictServer>(side.engine->slot(), serve_config);
  side.next_event = 0;
  while (side.engine->epochs_closed_total() <= kWindowEpochs) {
    smash::synth::ingest_event(*side.engine, scenario.events[side.next_event++]);
  }
  side.engine->wait_for_mining();
  smash::serve::BlockingClient client("127.0.0.1", side.server->port());
  for (std::uint64_t id = 0;; ++id) {
    const auto response = client.call(lookup_frame(id, "site0.org"));
    if (!response) throw std::runtime_error("serve_live: server hung up during set-up");
    if (response->status == FrameStatus::kOk) break;
    if (id > 10000) throw std::runtime_error("serve_live: no kOk answer during set-up");
  }
  return seconds_since(start);
}

int server_main(std::uint64_t seed, int up_fd, int down_fd) {
  FILE* up = fdopen(up_fd, "w");
  FILE* down = fdopen(down_fd, "r");
  const auto scenario = smash::synth::generate_stream(scenario_config(seed));
  const auto print = scenario_fingerprint(scenario);
  const bool deterministic =
      print == scenario_fingerprint(smash::synth::generate_stream(scenario_config(seed)));
  const auto hosts = lookup_hosts(scenario);

  ServerSide side;
  std::vector<double> setup_s;
  for (int s = 0; s < kSetups; ++s) {
    side.reset();
    setup_s.push_back(set_up(scenario, side));
  }
  auto& engine = *side.engine;

  std::fprintf(up, "ready %u %.9f %s %d\n", side.server->port(), median(setup_s),
               print.c_str(), deterministic ? 1 : 0);
  for (const auto& host : hosts) std::fprintf(up, "host %s\n", host.c_str());
  std::fprintf(up, "hosts-end\n");
  std::fflush(up);

  char line[256];
  if (std::fgets(line, sizeof(line), down) == nullptr || std::strncmp(line, "go", 2) != 0) {
    return 1;
  }

  // Paced feeder: event time maps onto wall time at kEpochWallMs per epoch;
  // the scenario is replayed in laps, shifted so event time keeps rising.
  std::atomic<bool> stop{false};
  std::vector<CloseMark> closes;
  std::vector<std::int64_t> close_call_ns;
  struct Seen {
    std::uint64_t sequence;
    std::int64_t seen_ns;
    std::string verdicts;
  };
  std::vector<Seen> snapshots;
  std::uint64_t events_fed = 0;
  std::thread feeder([&] {
    const double ns_per_event_s = kEpochWallMs * 1e6 / kEpochSeconds;
    const std::int64_t go_ns = now_ns();
    const auto base_time = smash::synth::event_time(scenario.events[side.next_event]);
    auto initial = engine.snapshot();
    std::uint64_t last_sequence = initial->sequence();
    snapshots.push_back({last_sequence, go_ns, verdicts_of(*initial, hosts)});
    std::int64_t previous_end = go_ns;
    std::size_t index = side.next_event;
    for (std::uint64_t lap = 0; !stop.load(std::memory_order_relaxed);) {
      auto event = scenario.events[index];
      std::visit([&](auto& e) { e.time_s += lap * scenario.duration_s; }, event);
      const auto due = go_ns + static_cast<std::int64_t>(
                                   static_cast<double>(smash::synth::event_time(event) -
                                                       base_time) *
                                   ns_per_event_s);
      while (now_ns() < due && !stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<std::int64_t>(due - now_ns(), 2'000'000)));
      }
      const std::uint64_t closes_before = engine.epochs_closed_total();
      const std::int64_t start = now_ns();
      smash::synth::ingest_event(engine, event);
      const std::int64_t end = now_ns();
      ++events_fed;
      for (auto k = closes_before + 1; k <= engine.epochs_closed_total(); ++k) {
        closes.push_back({k, previous_end});
        close_call_ns.push_back(start);
      }
      previous_end = end;
      if (const auto snapshot = engine.snapshot(); snapshot->sequence() != last_sequence) {
        last_sequence = snapshot->sequence();
        snapshots.push_back({last_sequence, now_ns(), verdicts_of(*snapshot, hosts)});
      }
      if (++index == scenario.events.size()) {
        index = 0;
        ++lap;
      }
    }
  });
  const bool stopped = std::fgets(line, sizeof(line), down) != nullptr;
  stop.store(true);
  feeder.join();
  side.server->stop();

  // In-process verdict lookups over the final snapshot, in batches.
  const smash::stream::VerdictService service(engine.slot());
  std::vector<double> lookup_ns;
  std::size_t answered = 0;
  for (int batch = 0; batch < 200; ++batch) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < 1000; ++i) {
      answered += service.lookup(hosts[i % hosts.size()]).snapshot_available ? 1 : 0;
    }
    lookup_ns.push_back(static_cast<double>(now_ns() - start) / 1000.0);
  }

  const auto serve_metrics = side.server->metrics()->snapshot();
  const auto counter = [&](const char* name) -> unsigned long long {
    const auto* c = serve_metrics.counter(name);
    return c ? c->value : 0;
  };
  for (std::size_t i = 0; i < closes.size(); ++i) {
    std::fprintf(up, "close %llu %lld %lld\n",
                 static_cast<unsigned long long>(closes[i].sequence),
                 static_cast<long long>(closes[i].last_event_ns),
                 static_cast<long long>(close_call_ns[i]));
  }
  for (const auto& seen : snapshots) {
    std::fprintf(up, "snap %llu %lld %s\n", static_cast<unsigned long long>(seen.sequence),
                 static_cast<long long>(seen.seen_ns), seen.verdicts.c_str());
  }
  const auto last = engine.snapshot();
  std::fprintf(up,
               "stats %llu %llu %llu %llu %.6f %llu %llu %.3f %llu\n",
               static_cast<unsigned long long>(engine.epochs_closed_total()),
               static_cast<unsigned long long>(engine.snapshots_published()),
               static_cast<unsigned long long>(engine.windows_coalesced()),
               static_cast<unsigned long long>(last->late_dropped()), peak_rss_mb(),
               counter("serve.rejected_total"), counter("serve.stale_total"),
               median(lookup_ns), static_cast<unsigned long long>(events_fed));
  std::fprintf(up, "end %d\n", stopped && answered == 200 * 1000 ? 1 : 0);
  std::fflush(up);
  side.reset();
  return 0;
}

// --- load generator ----------------------------------------------------------

struct Phase {
  RateStep step;
  std::int64_t start_ns = 0;
  std::uint64_t first_id = 0;
};

struct Request {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;  // 0 = no response yet
  std::uint64_t sequence = 0;
  std::int32_t verdict = -2;  // campaign size, -1 = not flagged, -2 = none
  std::uint16_t host = 0;
  std::uint8_t status = 255;
};

struct ServerReport {
  std::uint16_t port = 0;
  double setup_s = 0.0;
  std::string fingerprint;
  bool deterministic = false;
  std::vector<std::string> hosts;
  std::vector<CloseMark> closes;
  std::vector<std::int64_t> close_call_ns;
  std::vector<std::pair<std::uint64_t, std::vector<std::int32_t>>> verdicts;
  unsigned long long closes_total = 0, publications = 0, coalesced = 0, late_dropped = 0;
  unsigned long long rejected = 0, stale = 0, events_fed = 0;
  double rss_mb = 0.0, lookup_ns = 0.0;
  bool ended = false;
};

std::vector<std::int32_t> parse_verdicts(const std::string& text) {
  std::vector<std::int32_t> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(item == "-" ? -1 : std::stoi(item));
  return out;
}

// Reads the child's lines up to `terminator`.
void read_report(FILE* up, ServerReport& report, const char* terminator) {
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), up) != nullptr) {
    std::string line(buf);
    if (!line.empty() && line.back() == '\n') line.pop_back();
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    if (kind == "ready") {
      int deterministic = 0;
      in >> report.port >> report.setup_s >> report.fingerprint >> deterministic;
      report.deterministic = deterministic == 1;
    } else if (kind == "host") {
      std::string host;
      in >> host;
      report.hosts.push_back(host);
    } else if (kind == "close") {
      CloseMark mark;
      long long call = 0;
      in >> mark.sequence >> mark.last_event_ns >> call;
      report.closes.push_back(mark);
      report.close_call_ns.push_back(call);
    } else if (kind == "snap") {
      std::uint64_t sequence = 0;
      long long seen = 0;
      std::string verdicts;
      in >> sequence >> seen >> verdicts;
      report.verdicts.emplace_back(sequence, parse_verdicts(verdicts));
    } else if (kind == "stats") {
      in >> report.closes_total >> report.publications >> report.coalesced >>
          report.late_dropped >> report.rss_mb >> report.rejected >> report.stale >>
          report.lookup_ns >> report.events_fed;
    } else if (kind == "end") {
      int ok = 0;
      in >> ok;
      report.ended = ok == 1;
    }
    if (kind == terminator) return;
  }
  throw std::runtime_error("serve_live: server process ended early");
}

// Owns the forked server process: kills and reaps it on every exit path.
class Child {
 public:
  explicit Child(pid_t pid) : pid_(pid) {}
  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      wait();
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  int wait() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  }

 private:
  pid_t pid_;
};

struct StepResult {
  double offered = 0, achieved = 0, p50_us = 0, late_p50_ms = 0, late_p99_ms = 0;
  bool pass = false;
};

// A ladder step holds when the server shed nothing, answered at least 99%
// of the offered rate, and the median lookup, timed from its due time,
// stayed within 1 ms.
StepResult evaluate_step(const Phase& phase, const std::vector<Request>& requests) {
  const auto count = phase.step.scheduled();
  std::vector<double> latency_us, lateness_ms;
  std::int64_t last_recv = phase.start_ns;
  std::uint64_t got = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    const auto& r = requests[phase.first_id + k];
    lateness_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e6);
    if (r.recv_ns == 0) continue;
    last_recv = std::max(last_recv, r.recv_ns);
    latency_us.push_back(static_cast<double>(r.recv_ns - r.due_ns) / 1e3);
    if (r.status != static_cast<std::uint8_t>(FrameStatus::kRejected)) ++got;
  }
  StepResult step;
  step.offered = offered_rate(count, phase.step.duration_s);
  step.achieved = achieved_rate(got, static_cast<double>(last_recv - phase.start_ns) / 1e9);
  step.p50_us = percentile(latency_us, 0.5);
  step.late_p50_ms = percentile(lateness_ms, 0.5);
  step.late_p99_ms = percentile(lateness_ms, 0.99);
  step.pass = step.achieved >= 0.99 * step.offered && step.p50_us <= 1000.0 &&
              got == latency_us.size();
  return step;
}

double ns_per(const std::function<void()>& op, int iterations) {
  const std::int64_t start = now_ns();
  for (int i = 0; i < iterations; ++i) op();
  return static_cast<double>(now_ns() - start) / iterations;
}

}  // namespace

int run_serve_live(const Options& options) {
  int up_pipe[2];
  int down_pipe[2];
  if (::pipe(up_pipe) != 0 || ::pipe(down_pipe) != 0) {
    throw std::runtime_error("serve_live: pipe failed");
  }
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("serve_live: fork failed");
  if (pid == 0) {
    ::close(up_pipe[0]);
    ::close(down_pipe[1]);
    int code = 1;
    try {
      code = server_main(options.seed, up_pipe[1], down_pipe[0]);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "serve_live server: %s\n", error.what());
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  Child child(pid);
  ::close(up_pipe[1]);
  ::close(down_pipe[0]);
  FILE* up = fdopen(up_pipe[0], "r");
  FILE* down = fdopen(down_pipe[1], "w");

  Report report;
  ServerReport server;
  read_report(up, server, "hosts-end");
  report.check(server.deterministic, "serve_live: one seed produced two different inputs");
  note("serve_live seed=%llu inputs=%s port=%u hosts=%zu",
       static_cast<unsigned long long>(options.seed), server.fingerprint.c_str(),
       server.port, server.hosts.size());
  const auto& hosts = server.hosts;

  // Idle measurements before the load (traced runs only).
  double encode_ns = 0.0, decode_ns = 0.0, rtt_us = 0.0;
  if (options.trace) {
    std::string buffer;
    const auto request = lookup_frame(7, hosts[0]);
    encode_ns = ns_per([&] { buffer.clear(); smash::serve::encode_request(buffer, request); },
                       200000);
    smash::serve::ResponseFrame response;
    response.request_id = 7;
    response.snapshot_sequence = 42;
    response.answers.push_back({true, 3, 6, 1000, 4});
    std::string encoded;
    smash::serve::encode_response(encoded, response);
    const std::string_view payload(encoded.data() + 4, encoded.size() - 4);
    decode_ns = ns_per([&] {
      if (!smash::serve::decode_response(payload)) throw std::runtime_error("decode");
    }, 200000);
    smash::serve::BlockingClient idle("127.0.0.1", server.port);
    std::vector<double> rtt;
    for (int i = 0; i < 2000; ++i) {
      const std::int64_t start = now_ns();
      if (!idle.call(lookup_frame(i, hosts[i % hosts.size()]))) {
        throw std::runtime_error("serve_live: idle call failed");
      }
      rtt.push_back(static_cast<double>(now_ns() - start) / 1e3);
    }
    rtt_us = median(rtt);
  }

  // The schedule: the base rate for the whole run; traced runs follow half
  // of it with the ladder (stopped after its first failing step).
  std::vector<Phase> phases;
  phases.push_back({{kBaseRate, options.trace ? options.seconds * 0.5 : options.seconds}});
  if (options.trace) {
    double rate = kLadderFirst;
    for (int i = 0; i < kLadderSteps; ++i, rate *= kLadderRatio) {
      phases.push_back({{std::round(rate / 1000.0) * 1000.0, 0.5}});
    }
  }
  std::uint64_t total = 0;
  for (auto& phase : phases) {
    phase.first_id = total;
    total += phase.step.scheduled();
  }
  std::vector<Request> requests(total);

  smash::serve::BlockingClient connection("127.0.0.1", server.port);
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> sending_done{false};
  std::uint64_t duplicates = 0, malformed = 0;
  std::vector<SequenceSeen> first_seen;
  std::thread receiver([&] {
    smash::serve::FrameDecoder decoder;
    std::string payload;
    char buf[64 * 1024];
    std::uint64_t newest = 0;
    std::uint64_t got = 0;
    std::int64_t drain_deadline = 0;
    for (;;) {
      if (sending_done.load(std::memory_order_acquire)) {
        if (got >= sent.load()) break;
        if (drain_deadline == 0) drain_deadline = now_ns() + 3'000'000'000;
        if (now_ns() > drain_deadline) break;
      }
      pollfd pfd{connection.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      const ssize_t n = ::read(connection.fd(), buf, sizeof(buf));
      if (n <= 0) break;
      const std::int64_t at = now_ns();
      decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      while (decoder.next(payload)) {
        const auto response = smash::serve::decode_response(payload);
        if (!response || response->request_id >= requests.size()) {
          ++malformed;
          continue;
        }
        auto& r = requests[response->request_id];
        if (r.recv_ns != 0) {
          ++duplicates;
          continue;
        }
        ++got;
        r.recv_ns = at;
        r.status = static_cast<std::uint8_t>(response->status);
        r.sequence = response->snapshot_sequence;
        if (!response->answers.empty()) {
          const auto& answer = response->answers.front();
          r.verdict = answer.malicious ? static_cast<std::int32_t>(answer.campaign_servers) : -1;
        }
        if (response->snapshot_sequence > newest) {
          newest = response->snapshot_sequence;
          first_seen.push_back({newest, at});
        }
      }
      received.store(got, std::memory_order_release);
      if (decoder.failed()) {
        ++malformed;
        break;
      }
    }
  });

  // Sender: every request due by now goes out in one write. After each
  // ladder step it waits for the step's responses and stops past the knee.
  std::fprintf(down, "go\n");
  std::fflush(down);
  std::int64_t phase_start = now_ns();
  std::string buffer;
  std::vector<StepResult> steps;
  std::size_t phases_run = 0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    auto& phase = phases[p];
    phase.start_ns = phase_start;
    const auto count = phase.step.scheduled();
    for (std::uint64_t k = 0; k < count; ++k) {
      auto& r = requests[phase.first_id + k];
      r.due_ns = phase.start_ns + static_cast<std::int64_t>(phase.step.due_s(k) * 1e9);
      r.host = static_cast<std::uint16_t>((phase.first_id + k) % hosts.size());
    }
    std::uint64_t k = 0;
    while (k < count) {
      const std::int64_t due = requests[phase.first_id + k].due_ns;
      std::int64_t now = now_ns();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = now_ns();
      }
      buffer.clear();
      const std::uint64_t batch_begin = k;
      while (k < count && k - batch_begin < kSendBatch &&
             requests[phase.first_id + k].due_ns <= now) {
        const auto id = phase.first_id + k;
        smash::serve::encode_request(buffer, lookup_frame(id, hosts[requests[id].host]));
        ++k;
      }
      // Stamped before the write: a response can arrive before send_raw()
      // returns, and a request must never be answered before it was sent.
      const std::int64_t at = now_ns();
      connection.send_raw(buffer);
      for (auto i = batch_begin; i < k; ++i) requests[phase.first_id + i].sent_ns = at;
      sent.store(phase.first_id + k, std::memory_order_release);
    }
    ++phases_run;
    phase_start = phase.start_ns + static_cast<std::int64_t>(phase.step.duration_s * 1e9) +
                  static_cast<std::int64_t>(kStepGapS * 1e9);
    if (p == 0) continue;
    // Responses arrive in request order on the one connection: once the
    // receiver has counted past this step, all of its answers are in.
    const std::int64_t wait_until = now_ns() + 2'000'000'000;
    while (received.load(std::memory_order_acquire) < phase.first_id + count &&
           now_ns() < wait_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (received.load(std::memory_order_acquire) < phase.first_id + count ||
        !evaluate_step(phase, requests).pass) {
      break;
    }
    phase_start = std::max(phase_start, now_ns());
  }
  sending_done.store(true, std::memory_order_release);
  receiver.join();
  for (std::size_t p = 1; p < phases_run; ++p) {
    steps.push_back(evaluate_step(phases[p], requests));
  }
  std::fprintf(down, "stop\n");
  std::fflush(down);
  read_report(up, server, "end");
  const int child_code = child.wait();
  report.check(child_code == 0 && server.ended, "serve_live: server process failed");

  // --- accounting ------------------------------------------------------------
  // Requests of phases never run were never scheduled.
  const std::uint64_t scheduled =
      phases_run < phases.size() ? phases[phases_run].first_id : total;
  const std::uint64_t lost = scheduled - received.load();
  std::uint64_t rejected = 0, stale = 0, mismatched = 0, unverifiable = 0, shed = 0;
  std::sort(server.verdicts.begin(), server.verdicts.end());
  for (std::uint64_t id = 0; id < scheduled; ++id) {
    const auto& r = requests[id];
    if (r.recv_ns == 0) continue;
    // Shedding at the knee step is the server's overload answer, not a
    // failure of the workload; everywhere else it counts as failed.
    const bool at_knee = !steps.empty() && !steps.back().pass &&
                         r.due_ns >= phases[phases_run - 1].start_ns;
    if (r.status == static_cast<std::uint8_t>(FrameStatus::kRejected)) {
      ++(at_knee ? shed : rejected);
      continue;
    }
    if (r.status == static_cast<std::uint8_t>(FrameStatus::kStale)) ++(at_knee ? shed : stale);
    const auto it = std::lower_bound(
        server.verdicts.begin(), server.verdicts.end(), r.sequence,
        [](const auto& entry, std::uint64_t s) { return entry.first < s; });
    if (it == server.verdicts.end() || it->first != r.sequence) {
      ++unverifiable;
    } else if (it->second[r.host] != r.verdict) {
      ++mismatched;
    }
  }
  report.attempt(scheduled);
  report.fail(rejected + stale + lost);
  report.check(lost == 0 && duplicates == 0 && malformed == 0,
               "serve_live: " + std::to_string(lost) + " lost, " + std::to_string(duplicates) +
                   " duplicate, " + std::to_string(malformed) + " malformed responses");
  report.check(mismatched == 0 && unverifiable == 0,
               "serve_live: " + std::to_string(mismatched) + " verdicts differ from the cited "
               "snapshot, " + std::to_string(unverifiable) + " cite an unseen snapshot");
  report.check(server.late_dropped == 0, "serve_live: the feeder's events were dropped late");
  note("server: %llu closes, %llu publications, %llu coalesced, %llu events fed; "
       "%llu shed at the knee",
       server.closes_total, server.publications, server.coalesced, server.events_fed,
       static_cast<unsigned long long>(shed));

  std::vector<double> base_us, late_ms;
  std::int64_t base_last_ns = phases[0].start_ns;
  for (std::uint64_t id = 0; id < scheduled; ++id) {
    const auto& r = requests[id];
    late_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e6);
    if (id < phases[0].step.scheduled() && r.recv_ns != 0) {
      base_us.push_back(static_cast<double>(r.recv_ns - r.due_ns) / 1e3);
      base_last_ns = std::max(base_last_ns, r.recv_ns);
    }
  }
  double max_qps = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto& step = steps[i];
    note("  step %7.0f/s: offered %8.0f achieved %8.0f p50 %8.1f us  sender late p50 %.3f "
         "p99 %.3f ms  %s",
         phases[i + 1].step.rate, step.offered, step.achieved, step.p50_us, step.late_p50_ms,
         step.late_p99_ms, step.pass ? "ok" : "past the knee");
    if (step.pass) max_qps = step.achieved;
  }
  if (!steps.empty() && !steps.back().pass) {
    const auto& knee = steps.back();
    report.check(knee.late_p50_ms <= kMaxKneeLatenessP50Ms &&
                     knee.late_p99_ms <= kMaxKneeLatenessP99Ms,
                 "serve_live: the sender, not the server, fell behind at the knee");
  } else if (!steps.empty()) {
    note("  no knee within the ladder: serve_max_qps is its top step");
  }
  report.check(steps.empty() || max_qps > 0.0,
               "serve_live: not even the lowest ladder step held");

  // Freshness: closes whose epoch ended during the base phase, up to a
  // second before its end so that a response can still cover them.
  const std::int64_t base_begin = phases[0].start_ns;
  const std::int64_t base_end =
      base_begin + static_cast<std::int64_t>((phases[0].step.duration_s - 1.0) * 1e9);
  std::vector<CloseMark> base_closes;
  for (const auto& close : server.closes) {
    if (close.last_event_ns >= base_begin && close.last_event_ns < base_end) {
      base_closes.push_back(close);
    }
  }
  const auto freshness = match_freshness(base_closes, first_seen);
  report.check(freshness.unmatched == 0,
               "serve_live: " + std::to_string(freshness.unmatched) +
                   " closes never reached a response");

  if (!options.trace) {
    report.metric("setup_s", server.setup_s, "s");
    report.metric("peak_rss_mb", server.rss_mb, "MiB");
    report.metric("throughput_per_s",
                  achieved_rate(base_us.size(),
                                static_cast<double>(base_last_ns - phases[0].start_ns) / 1e9),
                  "1/s");
    report.timing("freshness_ms", freshness.freshness_ms, "ms");
    report.timing("latency_us", base_us, "us");
    return report.finish();
  }

  // --- traced: per-layer metrics and spans ------------------------------------
  // The base phase's first half is recorded without spans, the second half
  // with them: trace_overhead is the ratio of their lookup medians.
  SpanRecorder spans;
  const std::int64_t half = base_begin + (base_end - base_begin) / 2;
  std::vector<double> untraced_us, traced_us;
  for (std::uint64_t id = 0; id < phases[0].step.scheduled(); ++id) {
    const auto& r = requests[id];
    if (r.recv_ns == 0) continue;
    const double us = static_cast<double>(r.recv_ns - r.due_ns) / 1e3;
    if (r.due_ns < half) {
      untraced_us.push_back(us);
      continue;
    }
    traced_us.push_back(us);
    if (id % 16 != 0) continue;
    const int root = spans.add("serve.lookup", id, -1, r.due_ns, r.recv_ns, 1);
    spans.add("generator.late", id, root, r.due_ns, r.sent_ns, 1);
    spans.add("serve.in_flight", id, root, r.sent_ns, r.recv_ns, 1);
  }
  std::sort(first_seen.begin(), first_seen.end(),
            [](const SequenceSeen& a, const SequenceSeen& b) { return a.sequence < b.sequence; });
  for (std::size_t i = 0; i < server.closes.size(); ++i) {
    const auto& close = server.closes[i];
    if (close.last_event_ns < base_begin || close.last_event_ns >= base_end) continue;
    const auto single = match_freshness({close}, first_seen);
    if (single.freshness_ms.empty()) continue;
    const auto answered = close.last_event_ns +
                          static_cast<std::int64_t>(single.freshness_ms[0] * 1e6);
    const int root = spans.add("stream.freshness", close.sequence, -1, close.last_event_ns,
                               answered, 0);
    spans.add("stream.epoch_gap", close.sequence, root, close.last_event_ns,
              server.close_call_ns[i], 0);
    spans.add("stream.mine_publish_answer", close.sequence, root, server.close_call_ns[i],
              answered, 0);
  }
  const double overhead = median(traced_us) / median(untraced_us);
  const auto base = summarize(base_us);
  report.metric("serve.frame_encode_ns", encode_ns, "ns");
  report.metric("serve.frame_decode_ns", decode_ns, "ns");
  report.metric("verdict.lookup_ns.p50", server.lookup_ns, "ns");
  report.metric("serve.rtt_us.p50", rtt_us, "us");
  report.check(percentile_supported(base.n, 0.999),
               "serve_live: too few base-rate lookups for p999");
  report.metric("serve.lookup_us.p99", percentile(base_us, 0.99), "us");
  report.metric("serve.lookup_us.p999", percentile(base_us, 0.999), "us");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    report.metric("serve.achieved_qps." + std::to_string(static_cast<int>(phases[i + 1].step.rate)),
                  steps[i].achieved, "lookups/s");
  }
  report.metric("serve_max_qps", max_qps, "lookups/s");
  report.metric("serve.rejected", static_cast<double>(server.rejected), "count");
  report.metric("serve.stale", static_cast<double>(server.stale), "count");
  report.metric("serve.lost", static_cast<double>(lost), "count");
  report.metric("serve.generator_late_ms.p99", percentile(late_ms, 0.99), "ms");
  report.metric("serve.generator_late_ms.max", summarize(late_ms).max, "ms");
  report.metric("stream.publish_ratio",
                server.closes_total > 0 ? static_cast<double>(server.publications) /
                                              static_cast<double>(server.closes_total)
                                        : 0.0,
                "ratio");
  report.metric("trace_overhead", overhead, "ratio");
  write_trace(options, spans);
  return report.finish();
}

}  // namespace perfbench
