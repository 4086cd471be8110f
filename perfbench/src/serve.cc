// The serving workload, serve-write. It starts the real `geacc_serve`
// binary at its default size (|V| = 500, |U| = 10000) with a WAL and a paged
// checkpoint, and drives it over TCP from this process on two connections:
// one sends a fixed, seed-derived stream of writes as fast as the writer
// takes them (at most kWriteWindow acknowledged writes waiting, so nothing
// is refused), the other a trickle of reads. The traffic has bench/loadgen's
// mix, restricted to ids the benchmark knows are live, so any refusal,
// error or protocol failure counts against the program. Then crash rounds:
// SIGKILL and a restart on the same WAL and checkpoint, each followed by
// the server's recovery and read code timed in this process.
//
// The traced run repeats the TCP run to record the accepted mutations and
// the reads, then replays them in-process through the layers the server
// uses (IncrementalArranger::Apply, WalWriter, BuildSnapshot,
// PagedCheckpointStore, the snapshot reads and the wire codec) at the
// server's batch and checkpoint cadence, and times recovery through
// ReadWal and ArrangementService::Recover.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "gen/synthetic.h"
#include "io/trace_io.h"
#include "svc/client.h"
#include "svc/paged_checkpoint.h"
#include "svc/service.h"
#include "svc/snapshot.h"
#include "svc/wal.h"
#include "svc/wire.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using geacc::EventId;
using geacc::Mutation;
using geacc::UserId;
using geacc::svc::MsgType;
using geacc::svc::RpcStatus;
using geacc::svc::ServiceStatsView;
using geacc::svc::SocketClient;
using Clock = std::chrono::steady_clock;

// The server's defaults (geacc_serve / ServiceOptions).
constexpr int kBatchSize = 64;
constexpr int kCheckpointEveryBatches = 64;
constexpr uint32_t kCheckpointPageSize = 8192;
constexpr int kMaxUserCapacity = 4;   // c_u ~ U[1,4]
constexpr int kMaxEventCapacity = 50;  // c_v ~ U[1,50]
// bench/loadgen's default k for top_k reads.
constexpr int kTopK = 8;
// Acknowledged writes allowed to wait at once — half the server's queue
// depth (1024), so the queue never empties and never fills.
constexpr int64_t kWriteWindow = 512;
// Writes sent per second of --seconds: about what the writer applies with
// this mix (see perfbench/NOTES.md), so the write phase lasts about
// --seconds while the number of writes, and with it every state the run
// checks and reports, is fixed by the seed and --seconds alone.
constexpr double kWritesPerSecond = 250.0;
// A write phase longer than this many times --seconds fails the run, so
// that even a much slower writer ends within the benchmark's time limit.
constexpr double kWritePhaseLimit = 3.0;
// Reads per second on the read connection while the writes run.
constexpr double kTrickleReadRate = 200.0;
// The in-process timings (see InProcessRound): after every crash,
// kRecoveries recoveries and kReadRounds rounds of the same kRoundReads
// reads, about 0.3 s of rounds, so that their medians rest on 10
// recoveries and 500 rounds spread over the crash phase.
constexpr int kRecoveries = 2;
constexpr int kRoundReads = 1000;
constexpr int kReadRounds = 100;
// Pause between `stats` polls while writes wait to become visible: the
// resolution of write visibility, kept coarse so polling adds little load.
constexpr std::chrono::milliseconds kPollInterval{1};
// Fresh server starts per run, before the load and after the crash
// rounds; set-up time is their median.
constexpr int kEarlySetups = 3;
constexpr int kLateSetups = 2;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ServeConfig {
  int events = 500;
  int users = 10000;
  int dim = 20;
  double conflict_density = 0.25;
  // geacc_serve's default instance. The run seed varies the writes and
  // reads; with the instance fixed, the bootstrap solve, which is most of
  // set-up, does the same work on every seed.
  uint64_t instance_seed = 42;
  int64_t writes = 0;  // writes in the write phase
  int round_reads = kRoundReads;
};

ServeConfig MakeConfig(const RunOptions& options) {
  ServeConfig config;
  config.writes = std::max<int64_t>(
      1, std::llround(options.seconds * kWritesPerSecond));
  if (options.tiny) {
    config.events = 50;
    config.users = 500;
    // Enough writes that some removals are sent (see MutationStream).
    config.writes = std::max<int64_t>(config.writes, 2 * kWriteWindow);
    config.round_reads = 200;
  }
  return config;
}
geacc::Instance MakeInitialInstance(const ServeConfig& config) {
  geacc::SyntheticConfig synthetic;
  synthetic.num_events = config.events;
  synthetic.num_users = config.users;
  synthetic.dim = config.dim;
  synthetic.conflict_density = config.conflict_density;
  synthetic.seed = config.instance_seed;
  return geacc::GenerateSynthetic(synthetic);
}

// --- the server process --------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      Signal(SIGKILL);
      Wait();
    }
  }

  // Starts geacc_serve and waits for its "listening on port N" line.
  bool Start(const std::vector<std::string>& args, const std::string& log,
             std::string* error) {
    int out[2];
    if (pipe(out) != 0) {
      *error = "pipe failed";
      return false;
    }
    pid_ = fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // Never outlive the benchmark, even if it dies without cleaning up.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(out[1], STDOUT_FILENO);
      const int log_fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
      close(out[0]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(PERFBENCH_SERVE_BIN));
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      execv(PERFBENCH_SERVE_BIN, argv.data());
      _exit(127);
    }
    close(out[1]);
    stdout_fd_ = out[0];
    std::string text;
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    while (Clock::now() < deadline) {
      pollfd fd{stdout_fd_, POLLIN, 0};
      if (poll(&fd, 1, 100) <= 0) continue;
      char buffer[256];
      const ssize_t n = read(stdout_fd_, buffer, sizeof(buffer));
      if (n <= 0) break;
      text.append(buffer, static_cast<size_t>(n));
      const size_t at = text.find("listening on port ");
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        port_ = std::atoi(text.c_str() + at +
                          std::strlen("listening on port "));
        return true;
      }
    }
    *error = "geacc_serve did not come up (see " + log + ")";
    return false;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  void Signal(int signal) {
    if (pid_ > 0) kill(pid_, signal);
  }
  // Reaps the process; its exit status (-1 if killed by a signal).
  int Wait() {
    int status = 0;
    if (pid_ > 0) waitpid(pid_, &status, 0);
    pid_ = -1;
    if (stdout_fd_ >= 0) close(stdout_fd_);
    stdout_fd_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
  int stdout_fd_ = -1;
};

struct Paths {
  std::string wal;
  std::string checkpoint;
  std::string log;
};

Paths MakePaths(const RunOptions& options, const std::string& tag) {
  Paths paths;
  paths.wal = options.workdir + "/" + tag + ".wal";
  paths.checkpoint = options.workdir + "/" + tag + ".ckpt";
  paths.log = options.workdir + "/" + tag + ".log";
  return paths;
}

std::vector<std::string> ServerArgs(const ServeConfig& config,
                                    const Paths& paths) {
  return {"--port",  "0",
          "--events", std::to_string(config.events),
          "--users", std::to_string(config.users),
          "--dim", std::to_string(config.dim),
          "--seed", std::to_string(config.instance_seed),
          "--conflict_density",
          geacc::StrFormat("%.17g", config.conflict_density),
          "--wal", paths.wal,
          "--checkpoint", paths.checkpoint};
}

// Connects and waits for the first successful ping.
bool ConnectReady(int port, SocketClient* client) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    if (client->connected() || client->Connect("127.0.0.1", port)) {
      if (client->Ping() == RpcStatus::kOk) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// Starts `server` fresh `repeats` times, each time from an empty WAL and
// checkpoint (stopping whatever runs), and adds the time from start to
// first reply to `setup_s`; the last one stays up.
bool StartFresh(const ServeConfig& config, const Paths& paths, int repeats,
                ServerProcess* server, std::vector<double>* setup_s,
                ReferenceClock* reference, Outcome* out) {
  for (int i = 0; i < repeats; ++i) {
    server->Signal(SIGTERM);
    server->Wait();
    reference->Sample();
    std::filesystem::remove(paths.wal);
    std::filesystem::remove(paths.checkpoint);
    const Clock::time_point start = Clock::now();
    std::string error;
    SocketClient client;
    if (!server->Start(ServerArgs(config, paths), paths.log, &error) ||
        !ConnectReady(server->port(), &client)) {
      out->Check(false, "server set-up failed: " + error);
      ++out->attempted;
      ++out->failed;
      return false;
    }
    setup_s->push_back(Since(start));
  }
  return true;
}

// --- load ----------------------------------------------------------------

// bench/loadgen's churn: 40% user capacity changes, 30% event capacity
// changes, 20% new users, 10% user removals, all valid when sent.
// Capacity changes go to initial users and events, which stay live.
// Removals go to users this stream added at least kWriteWindow writes
// earlier: the write loop keeps at most kWriteWindow writes unapplied, so
// such an add is visible by then (the server refuses writes on ids its
// snapshot does not hold). While there is no such user, a removal becomes
// a new user. Write n (from 1) gets ticket n, and the user it adds gets id
// users + (users added before it), since ids are never reused.
class MutationStream {
 public:
  MutationStream(const ServeConfig& config, uint64_t seed)
      : config_(config), rng_(seed), next_user_(config.users) {}

  Mutation Next() {
    ++sent_;
    const double pick = rng_.NextDouble();
    if (pick < 0.40) {
      return Mutation::SetUserCapacity(
          static_cast<UserId>(rng_.UniformInt(0, config_.users - 1)),
          static_cast<int>(rng_.UniformInt(1, kMaxUserCapacity)));
    }
    if (pick < 0.70) {
      return Mutation::SetEventCapacity(
          static_cast<EventId>(rng_.UniformInt(0, config_.events - 1)),
          static_cast<int>(rng_.UniformInt(1, kMaxEventCapacity)));
    }
    if (pick >= 0.90) {
      while (next_ripe_ < added_.size() &&
             added_[next_ripe_].ticket + kWriteWindow < sent_) {
        removable_.push_back(added_[next_ripe_++].user);
      }
      if (!removable_.empty()) {
        const size_t at = static_cast<size_t>(rng_.UniformInt(
            0, static_cast<int64_t>(removable_.size()) - 1));
        const UserId user = removable_[at];
        removable_[at] = removable_.back();
        removable_.pop_back();
        return Mutation::RemoveUser(user);
      }
    }
    std::vector<double> attributes(config_.dim);
    for (double& a : attributes) a = rng_.UniformReal(0.0, 10000.0);
    added_.push_back({sent_, next_user_++});
    return Mutation::AddUser(std::move(attributes), static_cast<int>(
        rng_.UniformInt(1, kMaxUserCapacity)));
  }

 private:
  struct Added {
    int64_t ticket;
    UserId user;
  };

  ServeConfig config_;
  geacc::Rng rng_;
  int64_t sent_ = 0;
  UserId next_user_;
  std::vector<Added> added_;
  size_t next_ripe_ = 0;  // added_[0, next_ripe_) were made removable
  std::vector<UserId> removable_;
};

struct ReadOp {
  MsgType type = MsgType::kGetAssignments;
  int32_t id = 0;
  int64_t writes_before = 0;  // writes sent before this read was due
};

// bench/loadgen's read mix — of its 95% reads, 40% get_assignments, 30%
// get_attendees, 20% top_k and 5% stats — on initial ids, which stay live.
ReadOp RandomRead(const ServeConfig& config, geacc::Rng& rng) {
  ReadOp op;
  const double pick = rng.UniformReal(0.0, 0.95);
  if (pick < 0.40) {
    op.type = MsgType::kGetAssignments;
    op.id = static_cast<int32_t>(rng.UniformInt(0, config.users - 1));
  } else if (pick < 0.70) {
    op.type = MsgType::kGetAttendees;
    op.id = static_cast<int32_t>(rng.UniformInt(0, config.events - 1));
  } else if (pick < 0.90) {
    op.type = MsgType::kTopK;
    op.id = static_cast<int32_t>(rng.UniformInt(0, config.users - 1));
  } else {
    op.type = MsgType::kStats;
  }
  return op;
}

// Sends `op` and checks the reply against what the request allows.
bool IssueRead(SocketClient* client, const ReadOp& op) {
  std::vector<int32_t> ids;
  if (op.type == MsgType::kGetAssignments) {
    return client->GetAssignments(op.id, &ids) == RpcStatus::kOk &&
           ids.size() <= static_cast<size_t>(kMaxUserCapacity);
  }
  if (op.type == MsgType::kGetAttendees) {
    return client->GetAttendees(op.id, &ids) == RpcStatus::kOk &&
           ids.size() <= static_cast<size_t>(kMaxEventCapacity);
  }
  if (op.type == MsgType::kStats) {
    ServiceStatsView stats;
    return client->GetStats(&stats) == RpcStatus::kOk;
  }
  std::vector<geacc::svc::ScoredEvent> scored;
  if (client->TopKEvents(op.id, kTopK, &scored) != RpcStatus::kOk ||
      scored.size() > static_cast<size_t>(kTopK)) {
    return false;
  }
  for (size_t i = 1; i < scored.size(); ++i) {
    if (scored[i].similarity > scored[i - 1].similarity) return false;
  }
  return true;
}

struct LoadResult {
  std::vector<double> read_latency_ms;   // trickle, from the scheduled send
  std::vector<double> read_lateness_ms;  // how late the generator sent
  std::vector<double> ack_to_visible_ms;
  std::vector<ReadOp> reads;     // trickle, then one read round, in order
  std::vector<Mutation> writes;  // acknowledged, in ticket order
  int64_t reads_sent = 0;
  int64_t read_failures = 0;
  int64_t write_failures = 0;
  std::map<std::string, int64_t> failure_kinds;  // failed writes by status
  int64_t last_ticket = 0;
  int32_t queued_max = 0;
  double write_phase_s = 0.0;  // first write sent → last write applied
  std::vector<std::string> problems;
};

// Reads open-loop at kTrickleReadRate until `done`.
void ReadLoop(int port, const ServeConfig& config, uint64_t seed,
              Clock::time_point start, const std::atomic<bool>& done,
              const std::atomic<int64_t>& writes_sent, LoadResult* result) {
  prctl(PR_SET_TIMERSLACK, 1UL);
  SocketClient client;
  if (!client.Connect("127.0.0.1", port)) {
    result->problems.push_back("read connection failed");
    return;
  }
  geacc::Rng rng(seed);
  for (int64_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i / kTrickleReadRate));
    ReadOp op = RandomRead(config, rng);
    std::this_thread::sleep_until(due);
    op.writes_before = writes_sent.load(std::memory_order_relaxed);
    const Clock::time_point sent = Clock::now();
    const bool ok = IssueRead(&client, op);
    const Clock::time_point answered = Clock::now();
    result->read_latency_ms.push_back(
        std::chrono::duration<double, std::milli>(answered - due).count());
    result->read_lateness_ms.push_back(
        std::chrono::duration<double, std::milli>(sent - due).count());
    result->reads.push_back(op);
    ++result->reads_sent;
    if (!ok) {
      ++result->read_failures;
      if (!client.connected()) client.Connect("127.0.0.1", port);
    }
  }
}

struct Pending {
  int64_t ticket;
  Clock::time_point acked;
};

// Sends config.writes writes on their own connection as fast as the window
// allows, then waits until every acknowledged write is visible, polling
// `stats` meanwhile; sets `done` at the end.
void WriteLoop(int port, const ServeConfig& config, uint64_t seed,
               double time_limit_s, std::atomic<int64_t>* writes_sent,
               std::atomic<bool>* done, LoadResult* result) {
  prctl(PR_SET_TIMERSLACK, 1UL);
  SocketClient client;
  if (!client.Connect("127.0.0.1", port)) {
    result->problems.push_back("write connection failed");
    done->store(true);
    return;
  }
  MutationStream stream(config, seed);
  std::vector<Pending> pending;  // ticket order
  size_t visible = 0;            // pending[0, visible) are visible
  int64_t applied = 0;
  Clock::time_point first_send{};
  Clock::time_point last_applied{};
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(time_limit_s));
  auto poll_stats = [&]() {
    ServiceStatsView stats;
    if (client.GetStats(&stats) != RpcStatus::kOk) {
      ++result->write_failures;
      return false;
    }
    const Clock::time_point now = Clock::now();
    result->queued_max = std::max(result->queued_max, stats.queued);
    applied = stats.applied_seq;
    while (visible < pending.size() && pending[visible].ticket <= applied) {
      result->ack_to_visible_ms.push_back(
          std::chrono::duration<double, std::milli>(now -
                                                    pending[visible].acked)
              .count());
      last_applied = now;
      ++visible;
    }
    return true;
  };
  // Polls until `ready`; false on a failed poll or past the deadline.
  auto wait_until = [&](const std::function<bool()>& ready) {
    while (!ready()) {
      if (Clock::now() >= deadline) {
        result->problems.push_back(geacc::StrFormat(
            "the write phase took longer than %.0f s", time_limit_s));
        return false;
      }
      if (!poll_stats()) return false;
      std::this_thread::sleep_for(kPollInterval);
    }
    return true;
  };
  bool going = true;
  for (int64_t i = 0; going && i < config.writes; ++i) {
    going = wait_until(
        [&] { return result->last_ticket - applied < kWriteWindow; });
    if (!going) break;
    Mutation mutation = stream.Next();
    int64_t ticket = -1;
    if (first_send == Clock::time_point{}) first_send = Clock::now();
    const RpcStatus status = client.Mutate(mutation, &ticket);
    writes_sent->fetch_add(1, std::memory_order_relaxed);
    if (status != RpcStatus::kOk) {
      // Refused, rejected or broken: every one counts against the program.
      ++result->write_failures;
      ++result->failure_kinds[geacc::svc::RpcStatusName(status)];
      if (!client.connected()) client.Connect("127.0.0.1", port);
      continue;
    }
    if (ticket != result->last_ticket + 1) {
      result->problems.push_back(geacc::StrFormat(
          "ticket %lld after %lld", static_cast<long long>(ticket),
          static_cast<long long>(result->last_ticket)));
    }
    result->last_ticket = ticket;
    pending.push_back({ticket, Clock::now()});
    result->writes.push_back(std::move(mutation));
  }
  // Drain: every acknowledged write must become visible.
  if (going && !wait_until([&] { return visible == pending.size(); })) {
    result->problems.push_back("acknowledged writes never became visible");
  }
  if (!pending.empty()) {
    result->write_phase_s =
        std::chrono::duration<double>(last_applied - first_send).count();
  }
  done->store(true);
}

LoadResult RunLoad(int port, const ServeConfig& config, uint64_t seed,
                   double time_limit_s) {
  LoadResult reads;
  LoadResult writes;
  std::atomic<int64_t> writes_sent{0};
  std::atomic<bool> done{false};
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  std::thread reader(ReadLoop, port, std::cref(config), DeriveSeed(seed, 11),
                     start, std::cref(done), std::cref(writes_sent), &reads);
  std::thread writer(WriteLoop, port, std::cref(config), DeriveSeed(seed, 12),
                     time_limit_s, &writes_sent, &done, &writes);
  writer.join();
  reader.join();
  writes.read_latency_ms = std::move(reads.read_latency_ms);
  writes.read_lateness_ms = std::move(reads.read_lateness_ms);
  writes.reads = std::move(reads.reads);
  writes.reads_sent = reads.reads_sent;
  writes.read_failures = reads.read_failures;
  writes.problems.insert(writes.problems.end(), reads.problems.begin(),
                         reads.problems.end());
  return writes;
}

// The in-process read rounds: seed-derived reads, all due after the last
// write.
std::vector<ReadOp> RoundReads(const ServeConfig& config, uint64_t seed,
                               int64_t writes) {
  geacc::Rng rng(seed);
  std::vector<ReadOp> ops(config.round_reads);
  for (ReadOp& op : ops) {
    op = RandomRead(config, rng);
    op.writes_before = writes;
  }
  return ops;
}

bool FetchStats(int port, ServiceStatsView* stats) {
  SocketClient client;
  return client.Connect("127.0.0.1", port) &&
         client.GetStats(stats) == RpcStatus::kOk;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Reports latencies and checks the served state after a drained load.
void CheckLoad(const LoadResult& load, const ServiceStatsView& before,
               const ServiceStatsView& after, Outcome* out) {
  for (const std::string& problem : load.problems) out->Check(false, problem);
  out->attempted += load.reads_sent +
                    static_cast<int64_t>(load.writes.size()) +
                    load.write_failures;
  out->failed += load.read_failures + load.write_failures;
  const int64_t accepted = static_cast<int64_t>(load.writes.size());
  out->Check(after.applied_seq == load.last_ticket && after.queued == 0,
             geacc::StrFormat("server applied_seq %lld, queued %d after the "
                              "drain; last ticket %lld",
                              static_cast<long long>(after.applied_seq),
                              after.queued,
                              static_cast<long long>(load.last_ticket)));
  // Every accepted write is valid, so each must be applied (one epoch each).
  out->Check(after.epoch - before.epoch == accepted,
             geacc::StrFormat("%lld of %lld accepted writes were applied",
                              static_cast<long long>(after.epoch -
                                                     before.epoch),
                              static_cast<long long>(accepted)));
  out->Check(load.read_failures == 0,
             geacc::StrFormat("%lld reads failed or returned invalid replies",
                              static_cast<long long>(load.read_failures)));
  std::string kinds;
  for (const auto& [kind, count] : load.failure_kinds) {
    kinds += geacc::StrFormat(" %s=%lld", kind.c_str(),
                              static_cast<long long>(count));
  }
  out->Check(load.write_failures == 0,
             geacc::StrFormat("%lld writes or stats polls failed:%s",
                              static_cast<long long>(load.write_failures),
                              kinds.c_str()));
}

void ReportReads(const LoadResult& load, Outcome* out) {
  double used = 0.0;
  const double p99 = TailQuantile(load.read_latency_ms, 0.99, &used);
  out->Report("read_p50_ms", Median(load.read_latency_ms), "ms", "lower");
  out->Report("read_p99_ms", p99, "ms", "lower");
  out->Report("read_p99_quantile", used, "share", "higher");
  out->Report("reads", static_cast<double>(load.read_latency_ms.size()),
              "count", "higher");
  out->Report("generator_late_p50_ms", Median(load.read_lateness_ms), "ms",
              "lower");
  out->Report("generator_late_p99_ms",
              TailQuantile(load.read_lateness_ms, 0.99, nullptr), "ms",
              "lower");
}

// --- in-process replay (traced run) --------------------------------------

struct ReplayResult {
  double seconds = 0.0;
  uint64_t max_sum_bits = 0;
  int64_t pairs = 0;
  geacc::obs::StatsSnapshot stats;
  int64_t wal_bytes = 0;
  int64_t ckpt_pages_written = 0;
  int64_t ckpt_pages_total = 0;
  double snapshot_bytes = 0.0;
  int64_t wire_bytes = 0;
  int64_t wire_ops = 0;
  std::vector<std::string> problems;
};

geacc::svc::WireRequest ReadRequest(const ReadOp& op) {
  geacc::svc::WireRequest request;
  request.type = op.type;
  request.id = op.id;
  if (op.type == MsgType::kTopK) request.k = kTopK;
  return request;
}

// Logical bytes a snapshot copies: attributes, capacities and flags,
// both adjacency directions, and the conflict graph.
double SnapshotBytes(const geacc::DynamicInstance& instance,
                     const geacc::IncrementalArranger& arranger) {
  const double slots = instance.event_slots() + instance.user_slots();
  return slots * instance.dim() * sizeof(double) +
         slots * (sizeof(int) + 1) +
         2.0 * arranger.arrangement().size() * sizeof(int32_t) +
         static_cast<double>(instance.conflicts().ByteEstimate());
}

// Replays `load` through the server's layers, in the server's order: per
// batch of kBatchSize writes validate + apply + WAL append each, then WAL
// sync, snapshot build, a paged checkpoint every kCheckpointEveryBatches
// batches, and the reads that were due meanwhile against the new snapshot
// (each through the wire codec both ways). `tracer` null = untraced.
ReplayResult Replay(const geacc::Instance& initial, const LoadResult& load,
                    const std::string& dir, Tracer* tracer) {
  ReplayResult result;
  geacc::DynamicInstance instance(initial);
  geacc::IncrementalArranger arranger(&instance, geacc::RepairOptions{});
  arranger.FullResolve();  // the server's bootstrap solve
  geacc::svc::WalWriter wal;
  const std::string wal_path = dir + "/replay.wal";
  const std::string ckpt_path = dir + "/replay.ckpt";
  std::filesystem::remove(ckpt_path);
  std::string error;
  if (!wal.Open(wal_path, initial, &error)) {
    result.problems.push_back("replay wal: " + error);
    return result;
  }
  const int64_t wal_start = std::filesystem::file_size(wal_path);
  auto store = geacc::svc::PagedCheckpointStore::Open(
      ckpt_path, kCheckpointPageSize, &error);
  if (store == nullptr) {
    result.problems.push_back("replay checkpoint: " + error);
    return result;
  }
  std::shared_ptr<const geacc::svc::ServiceSnapshot> snapshot =
      geacc::svc::BuildSnapshot(instance, arranger, 0);
  std::vector<double> scores(instance.event_slots());

  const geacc::obs::StatsScope scope;
  geacc::WallTimer clock;
  auto codec = [&](const geacc::svc::WireRequest& request,
                   const geacc::svc::WireResponse& response) {
    std::string request_frame;
    std::string response_frame;
    Traced(tracer, "svc.wire_encode", [&] {
      request_frame = geacc::svc::EncodeRequestFrame(request);
      response_frame = geacc::svc::EncodeResponseFrame(response);
    });
    bool ok = false;
    Traced(tracer, "svc.wire_decode", [&] {
      geacc::svc::WireRequest decoded_request;
      geacc::svc::WireResponse decoded_response;
      ok = geacc::svc::DecodeRequest(
               reinterpret_cast<const uint8_t*>(request_frame.data()) + 4,
               request_frame.size() - 4, &decoded_request) &&
           geacc::svc::DecodeResponse(
               reinterpret_cast<const uint8_t*>(response_frame.data()) + 4,
               response_frame.size() - 4, &decoded_response);
    });
    if (!ok) result.problems.push_back("wire round trip failed");
    result.wire_bytes +=
        static_cast<int64_t>(request_frame.size() + response_frame.size());
    ++result.wire_ops;
  };
  size_t next_read = 0;
  auto serve_reads = [&](int64_t writes_done, bool all) {
    while (next_read < load.reads.size() &&
           (all || load.reads[next_read].writes_before <= writes_done)) {
      const ReadOp& op = load.reads[next_read++];
      geacc::svc::WireResponse response;
      if (op.type == MsgType::kTopK) {
        response.type = MsgType::kScoredList;
        Traced(tracer, "svc.snapshot_topk",
               [&] { response.scored = snapshot->TopKEvents(op.id, kTopK); });
      } else if (op.type == MsgType::kStats) {
        response.type = MsgType::kStatsReply;
        Traced(tracer, "svc.snapshot_read", [&] {
          response.stats.epoch = snapshot->epoch();
          response.stats.applied_seq = snapshot->applied_seq();
          response.stats.pairs = snapshot->num_pairs();
          response.stats.active_events = snapshot->num_active_events();
          response.stats.active_users = snapshot->num_active_users();
          response.stats.event_slots = snapshot->event_slots();
          response.stats.user_slots = snapshot->user_slots();
          response.stats.max_sum = snapshot->max_sum();
        });
      } else {
        response.type = MsgType::kIdList;
        Traced(tracer, "svc.snapshot_read", [&] {
          response.ids = op.type == MsgType::kGetAssignments
                             ? snapshot->AssignmentsOf(op.id)
                             : snapshot->AttendeesOf(op.id);
        });
      }
      codec(ReadRequest(op), response);
    }
  };
  auto replay = [&] {
    const int64_t total = static_cast<int64_t>(load.writes.size());
    int batches = 0;
    for (int64_t begin = 0; begin < total; begin += kBatchSize) {
      const int64_t end = std::min<int64_t>(total, begin + kBatchSize);
      for (int64_t i = begin; i < end; ++i) {
        const Mutation& mutation = load.writes[i];
        std::string problem;
        Traced(tracer, "svc.validate", [&] {
          problem = geacc::svc::ValidateMutation(instance, mutation);
        });
        if (!problem.empty()) {
          result.problems.push_back("replayed write rejected: " + problem);
          continue;
        }
        Traced(tracer, "dyn.apply", [&] { arranger.Apply(mutation); });
        Traced(tracer, "svc.wal_append", [&] { wal.Append(mutation); });
        geacc::svc::WireRequest request;
        request.type = MsgType::kMutate;
        request.payload = geacc::FormatMutationLine(mutation);
        geacc::svc::WireResponse ack;
        ack.type = MsgType::kMutateAck;
        ack.ticket = i + 1;
        codec(request, ack);
      }
      Traced(tracer, "svc.wal_sync", [&] { wal.Sync(); });
      Traced(tracer, "svc.snapshot_build", [&] {
        snapshot = geacc::svc::BuildSnapshot(instance, arranger, end);
      });
      result.snapshot_bytes = SnapshotBytes(instance, arranger);
      if (++batches % kCheckpointEveryBatches == 0) {
        geacc::svc::ServiceState state;
        Traced(tracer, "svc.ckpt_export", [&] {
          state.similarity_name = instance.similarity().Name();
          state.similarity_param = instance.similarity().Param();
          state.slot = instance.ExportSlotState();
          state.arranger = arranger.ExportState();
        });
        geacc::svc::PagedCheckpointStore::WriteStats write_stats;
        bool ok = false;
        Traced(tracer, "storage.ckpt_write", [&] {
          ok = store->Write(state, end, &write_stats, &error);
        });
        if (!ok) result.problems.push_back("replay checkpoint: " + error);
        result.ckpt_pages_written += write_stats.pages_written;
        result.ckpt_pages_total += write_stats.pages_total;
      }
      serve_reads(end, false);
    }
    serve_reads(total, true);
  };
  Traced(tracer, "e2e.replay", replay);
  result.seconds = clock.Seconds();
  result.stats = scope.Harvest();
  result.max_sum_bits = Bits(arranger.max_sum());
  result.pairs = arranger.arrangement().size();
  result.wal_bytes =
      static_cast<int64_t>(std::filesystem::file_size(wal_path)) - wal_start;

  // Probe: what top-k scoring costs through the simd batch kernels.
  const geacc::BlockedAttributes& events =
      instance.event_attributes().Blocked();
  Traced(tracer, "simd.score", [&] {
    for (const ReadOp& op : load.reads) {
      if (op.type != MsgType::kTopK) continue;
      instance.similarity().ComputeBatch(
          instance.user_attributes().Row(op.id), events,
          geacc::simd::FpMode::kStrict, scores.data());
    }
  });
  return result;
}

void SetReplayMetrics(const Tracer& tracer, const ReplayResult& traced,
                      const ReplayResult& untraced, const LoadResult& load,
                      const ServiceStatsView& served, int dim, Outcome* out) {
  for (const std::string& problem : traced.problems) out->Check(false, problem);
  out->Check(traced.max_sum_bits == Bits(served.max_sum) &&
                 traced.pairs == served.pairs,
             "in-process replay of the accepted writes differs from the "
             "served state");
  auto timer_seconds = [&](const std::string& name) {
    const auto it = traced.stats.timers.find(name);
    return it == traced.stats.timers.end() ? 0.0 : it->second.seconds;
  };
  const double mutations = static_cast<double>(load.writes.size());
  auto& v = out->values;
  v["simd.score_s"] = tracer.Total("simd.score");
  v["simd.evals"] = Counter(traced.stats, "simd.batched_evals") +
                    Counter(traced.stats, "simd.scalar_evals");
  v["simd.bytes_computed"] =
      Counter(traced.stats, "simd.batched_evals") * dim * sizeof(double);
  v["index.cursor_steps"] =
      Counter(traced.stats, "index.linear.cursor_steps");
  v["index.points_scanned"] =
      Counter(traced.stats, "index.linear.points_scanned");
  v["index.scans_per_step"] =
      SafeRatio(v["index.points_scanned"], v["index.cursor_steps"]);
  v["algo.greedy_heap_pops"] = Counter(traced.stats, "greedy.heap_pops");
  v["algo.greedy_cursor_skips"] = Counter(traced.stats, "greedy.cursor_skips");
  v["algo.greedy_match_share"] = SafeRatio(
      Counter(traced.stats, "greedy.matches"), v["algo.greedy_heap_pops"]);
  v["svc.wire_encode_s"] = tracer.Total("svc.wire_encode");
  v["svc.wire_decode_s"] = tracer.Total("svc.wire_decode");
  v["svc.wire_bytes_per_op"] = SafeRatio(
      static_cast<double>(traced.wire_bytes),
      static_cast<double>(traced.wire_ops));
  v["svc.snapshot_read_s"] = tracer.Total("svc.snapshot_read");
  v["svc.snapshot_topk_s"] = tracer.Total("svc.snapshot_topk");
  v["svc.queue_wait_ms"] = Median(load.ack_to_visible_ms);
  v["svc.queued_max"] = load.queued_max;
  v["svc.overloads"] = static_cast<double>(served.overloads);
  v["svc.rejected"] = mutations - static_cast<double>(
                                      Counter(traced.stats, "dyn.mutations"));
  v["dyn.apply_s"] = tracer.Total("dyn.apply");
  v["dyn.full_resolves"] = Counter(traced.stats, "dyn.full_resolves");
  v["dyn.full_resolve_s"] = timer_seconds("dyn.full_resolve");
  v["dyn.reassign_per_mut"] = SafeRatio(
      Counter(traced.stats, "dyn.assignment_changes"),
      Counter(traced.stats, "dyn.mutations"));
  v["svc.wal_append_s"] = tracer.Total("svc.wal_append");
  v["svc.wal_sync_s"] = tracer.Total("svc.wal_sync");
  v["svc.wal_bytes_per_mut"] =
      SafeRatio(static_cast<double>(traced.wal_bytes), mutations);
  v["svc.snapshot_build_s"] = tracer.Total("svc.snapshot_build");
  v["svc.snapshot_bytes"] = traced.snapshot_bytes;
  v["storage.ckpt_write_s"] = tracer.Total("storage.ckpt_write");
  v["storage.ckpt_pages_written"] =
      static_cast<double>(traced.ckpt_pages_written);
  v["storage.ckpt_dirty_share"] =
      SafeRatio(static_cast<double>(traced.ckpt_pages_written),
                static_cast<double>(traced.ckpt_pages_total));
  v["trace.unattributed_share"] = tracer.UnattributedShare();
  v["trace.overhead_share"] = SafeRatio(
      tracer.EndToEndTotal() - untraced.seconds, untraced.seconds);
}

// Times recovery in-process on a copy of the killed server's files: the
// WAL read, the checkpoint read, and ArrangementService::Recover (whose
// time beyond the two reads is the replay of the WAL suffix).
void TraceRecovery(const Paths& copy, const ServiceStatsView& before_kill,
                   Tracer* tracer, Outcome* out) {
  std::string error;
  int64_t wal_mutations = 0;
  tracer->Run("svc.recover_wal_read", [&] {
    const auto contents = geacc::svc::ReadWal(copy.wal, &error);
    if (contents) {
      wal_mutations = static_cast<int64_t>(contents->mutations.size());
    }
  });
  int64_t checkpointed = 0;
  tracer->Run("svc.recover_ckpt_read", [&] {
    auto store = geacc::svc::PagedCheckpointStore::Open(
        copy.checkpoint, kCheckpointPageSize, &error);
    geacc::svc::ServiceState state;
    if (store == nullptr || !store->Read(&state, &checkpointed, &error)) {
      checkpointed = 0;
    }
  });
  geacc::svc::ServiceOptions options;
  options.wal_path = copy.wal;
  options.paged_checkpoint_path = copy.checkpoint;
  std::unique_ptr<geacc::svc::ArrangementService> service;
  tracer->Run("svc.recover", [&] {
    service = geacc::svc::ArrangementService::Recover(options, &error);
  });
  if (service == nullptr) {
    out->Check(false, "in-process recovery failed: " + error);
    return;
  }
  const ServiceStatsView recovered = service->Stats();
  out->Check(recovered.epoch == before_kill.epoch &&
                 Bits(recovered.max_sum) == Bits(before_kill.max_sum) &&
                 recovered.pairs == before_kill.pairs,
             "in-process recovery differs from the killed server's state");
  service->Stop();
  auto& v = out->values;
  v["svc.recover_wal_read_s"] = tracer->Total("svc.recover_wal_read");
  v["svc.recover_ckpt_read_s"] = tracer->Total("svc.recover_ckpt_read");
  v["svc.recover_replay_s"] =
      std::max(0.0, tracer->Total("svc.recover") - v["svc.recover_wal_read_s"] -
                        v["svc.recover_ckpt_read_s"]);
  v["svc.recover_replayed"] = static_cast<double>(wal_mutations - checkpointed);
}

// The state a restart must preserve. applied_seq is left out: tickets are
// per process, so a restarted server counts from 0 (CheckLoad checks the
// drained applied_seq against the last ticket instead); epoch counts every
// applied mutation across restarts.
bool SameState(const ServiceStatsView& a, const ServiceStatsView& b) {
  return a.epoch == b.epoch && a.pairs == b.pairs &&
         Bits(a.max_sum) == Bits(b.max_sum) &&
         a.active_events == b.active_events &&
         a.active_users == b.active_users && a.event_slots == b.event_slots &&
         a.user_slots == b.user_slots;
}

// serve-write: new users written after a clean restart's checkpoint,
// which the crashed server then has to replay. Fewer than the server's
// queue depth, so none is refused, and applied in fewer batches than the
// checkpoint interval, so all of them stay in the WAL suffix.
constexpr int kRecoveryTail = 500;
// Crashes per run; recover_s is their median.
constexpr int kCrashes = 5;

// Writes the recovery tail, waits until it is applied, and returns the
// server's stats after it.
bool WriteTail(SocketClient* client, const ServeConfig& config, uint64_t seed,
               ServiceStatsView* stats, Outcome* out) {
  geacc::Rng rng(DeriveSeed(seed, 13));
  int64_t last = 0;
  for (int i = 0; i < kRecoveryTail; ++i) {
    std::vector<double> attributes(config.dim);
    for (double& a : attributes) a = rng.UniformReal(0.0, 10000.0);
    const Mutation mutation = Mutation::AddUser(
        std::move(attributes),
        static_cast<int>(rng.UniformInt(1, kMaxUserCapacity)));
    ++out->attempted;
    if (client->Mutate(mutation, &last) != RpcStatus::kOk) {
      ++out->failed;
      out->Check(false, "a recovery-tail write failed");
      return false;
    }
  }
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < deadline) {
    if (client->GetStats(stats) != RpcStatus::kOk) break;
    if (stats->applied_seq >= last) return true;
    std::this_thread::sleep_for(kPollInterval);
  }
  out->Check(false, "the recovery tail was not applied");
  return false;
}

// Restarts `server` on its WAL and checkpoint and reconnects `client`.
bool Restart(const ServeConfig& config, const Paths& paths,
             ServerProcess* server, SocketClient* client, std::string* error) {
  client->Disconnect();
  return server->Start(ServerArgs(config, paths), paths.log, error) &&
         ConnectReady(server->port(), client);
}

struct Crashes {
  std::vector<double> restart_s;  // SIGTERM → first reply, per clean restart
  std::vector<double> recover_s;  // SIGKILL → first reply, per crash
  ServiceStatsView first_kill;    // state before the first SIGKILL
  std::vector<double> inproc_recover_s;  // per InProcessRound
  std::vector<double> inproc_read_ms;    // mean per read, per read round
  ServiceStatsView last;          // state the last restart recovered
};

// The server's recovery and read code timed in this process, on the files
// of the first crash: ArrangementService::Recover, kRecoveries times, each
// on a fresh copy of them, which must bring back the state from before
// that crash, then kReadRounds rounds of `reads`, each through the wire
// codec as server and client run it (request encoded and decoded, the
// service's read call, reply encoded and decoded). Unlike the TCP timings, these leave out process start,
// page faults of a fresh process and thread wake-ups, whose cost swings
// with the host's other tenants.
void InProcessRound(const RunOptions& options, const Paths& first_crash,
                    const std::vector<ReadOp>& reads,
                    const ServiceStatsView& expected, Crashes* crashes,
                    ReferenceClock* reference, Outcome* out) {
  reference->Sample();
  const Paths files = MakePaths(options, "in-process");
  geacc::svc::ServiceOptions service_options;
  service_options.wal_path = files.wal;
  service_options.paged_checkpoint_path = files.checkpoint;
  std::unique_ptr<geacc::svc::ArrangementService> service;
  for (int recovery = 0; recovery < kRecoveries; ++recovery) {
    if (service != nullptr) service->Stop();
    service.reset();
    for (const auto& [from, to] :
         {std::pair{first_crash.wal, files.wal},
          std::pair{first_crash.checkpoint, files.checkpoint}}) {
      std::filesystem::copy_file(
          from, to, std::filesystem::copy_options::overwrite_existing);
    }
    std::string error;
    const Clock::time_point start = Clock::now();
    service = geacc::svc::ArrangementService::Recover(service_options, &error);
    crashes->inproc_recover_s.push_back(Since(start));
    ++out->attempted;
    if (service == nullptr) {
      ++out->failed;
      out->Check(false, "in-process recovery failed: " + error);
      return;
    }
    if (!SameState(service->Stats(), expected)) {
      ++out->failed;
      out->Check(false,
                 "in-process recovery differs from the state before the "
                 "crash");
    }
  }
  for (int round = 0; round < kReadRounds; ++round) {
    const Clock::time_point round_start = Clock::now();
    for (const ReadOp& op : reads) {
      const std::string request_frame =
          geacc::svc::EncodeRequestFrame(ReadRequest(op));
      geacc::svc::WireRequest request;
      bool ok = geacc::svc::DecodeRequest(
          reinterpret_cast<const uint8_t*>(request_frame.data()) + 4,
          request_frame.size() - 4, &request);
      geacc::svc::WireResponse response;
      geacc::svc::SvcStatus status = geacc::svc::SvcStatus::kOk;
      if (request.type == MsgType::kGetAssignments) {
        response.type = MsgType::kIdList;
        status = service->GetAssignments(request.id, &response.ids);
      } else if (request.type == MsgType::kGetAttendees) {
        response.type = MsgType::kIdList;
        status = service->GetAttendees(request.id, &response.ids);
      } else if (request.type == MsgType::kTopK) {
        response.type = MsgType::kScoredList;
        status = service->TopKEvents(request.id, request.k, &response.scored);
      } else {
        response.type = MsgType::kStatsReply;
        response.stats = service->Stats();
      }
      const std::string response_frame =
          geacc::svc::EncodeResponseFrame(response);
      geacc::svc::WireResponse decoded;
      ok = ok && status == geacc::svc::SvcStatus::kOk &&
           geacc::svc::DecodeResponse(
               reinterpret_cast<const uint8_t*>(response_frame.data()) + 4,
               response_frame.size() - 4, &decoded);
      if (!ok) {
        ++out->failed;
        out->Check(false, "an in-process read failed");
      }
    }
    out->attempted += static_cast<int64_t>(reads.size());
    crashes->inproc_read_ms.push_back(Since(round_start) * 1e3 /
                                      static_cast<double>(reads.size()));
  }
  reference->Sample();
  service->Stop();
}

// serve-write's crash phase, kCrashes rounds. Each round stops the server
// cleanly (SIGTERM writes a final checkpoint) and starts it again, timed
// until it answers, which must keep the state; writes kRecoveryTail new
// users past that checkpoint; then SIGKILLs the server and restarts it on
// the same WAL and checkpoint, timed until it answers, which must bring
// back the state from before the kill. Every crash so replays a WAL suffix
// of the same size. The first crash's files are copied to `copy`; after
// every round InProcessRound recovers from them in this process.
Crashes CrashAndRecover(const RunOptions& options, const ServeConfig& config,
                        const Paths& paths, const Paths& copy,
                        const ServiceStatsView& drained,
                        const std::vector<ReadOp>& reads, ServerProcess* server,
                        ReferenceClock* reference, Outcome* out) {
  Crashes crashes;
  crashes.last = drained;
  SocketClient client;
  std::string error;
  for (int crash = 0; crash < kCrashes; ++crash) {
    const Clock::time_point stopped = Clock::now();
    server->Signal(SIGTERM);
    out->Check(server->Wait() == 0, "geacc_serve did not shut down cleanly");
    ServiceStatsView restarted;
    const bool up = Restart(config, paths, server, &client, &error);
    crashes.restart_s.push_back(Since(stopped));
    out->Check(up && client.GetStats(&restarted) == RpcStatus::kOk &&
                   SameState(restarted, crashes.last),
               "state after a clean restart differs " + error);
    if (!up) break;
    ServiceStatsView before_kill;
    if (!WriteTail(&client, config, DeriveSeed(options.seed, 20 + crash),
                          &before_kill, out)) {
      break;
    }
    if (crash == 0) crashes.first_kill = before_kill;
    const Clock::time_point killed = Clock::now();
    server->Signal(SIGKILL);
    server->Wait();
    if (crash == 0) {
      for (const auto& [from, to] : {std::pair{paths.wal, copy.wal},
                                     std::pair{paths.checkpoint,
                                               copy.checkpoint}}) {
        std::filesystem::copy_file(
            from, to, std::filesystem::copy_options::overwrite_existing);
      }
    }
    const bool back = Restart(config, paths, server, &client, &error);
    crashes.recover_s.push_back(Since(killed));
    out->Check(back, "restart after SIGKILL failed: " + error);
    if (!back) break;
    if (crash == 0 && options.fault == "recovered-state") {
      int64_t ticket = 0;
      client.Mutate(Mutation::SetEventCapacity(0, 1), &ticket);
      ServiceStatsView stats;
      while (client.GetStats(&stats) == RpcStatus::kOk &&
             stats.applied_seq < ticket) {
      }
    }
    ServiceStatsView& recovered = crashes.last;
    out->Check(client.GetStats(&recovered) == RpcStatus::kOk,
               "stats after recovery");
    out->Check(SameState(recovered, before_kill),
               geacc::StrFormat(
                   "recovered state (epoch %lld, pairs %lld, MaxSum %.17g) "
                   "differs from the state before SIGKILL (epoch %lld, "
                   "pairs %lld, MaxSum %.17g)",
                   static_cast<long long>(recovered.epoch),
                   static_cast<long long>(recovered.pairs), recovered.max_sum,
                   static_cast<long long>(before_kill.epoch),
                   static_cast<long long>(before_kill.pairs),
                   before_kill.max_sum));
    InProcessRound(options, copy, reads, crashes.first_kill, &crashes,
                   reference, out);
  }
  return crashes;
}

// --- the workload --------------------------------------------------------


}  // namespace

void RunServeWrite(const RunOptions& options, Outcome* out) {
  const ServeConfig config = MakeConfig(options);
  const Paths paths = MakePaths(options, "server");
  ServerProcess server;
  std::vector<double> setup_s;
  // Sampled before every server start and around every in-process round.
  ReferenceClock reference;
  if (!StartFresh(config, paths, kEarlySetups, &server, &setup_s, &reference,
                  out)) {
    return;
  }
  ServiceStatsView before;
  out->Check(FetchStats(server.port(), &before), "stats before the load");
  out->context.Set("load_avg_at_load", LoadAverage());

  LoadResult load = RunLoad(server.port(), config, options.seed,
                            kWritePhaseLimit * options.seconds);
  ServiceStatsView drained;
  out->Check(FetchStats(server.port(), &drained), "stats after the load");
  const std::vector<ReadOp> reads =
      RoundReads(config, DeriveSeed(options.seed, 14),
                 static_cast<int64_t>(load.writes.size()));
  // The replay serves them once after the writes.
  load.reads.insert(load.reads.end(), reads.begin(), reads.end());
  out->values["peak_rss_mb"] = PeakRssMiB(server.pid());
  const double capacity = SafeRatio(static_cast<double>(load.writes.size()),
                                    load.write_phase_s);
  out->Report("write_capacity_per_s", capacity, "1/s", "higher");
  out->Report("writes", static_cast<double>(load.writes.size()), "count",
              "higher");
  out->Report("user_removals",
              static_cast<double>(std::count_if(
                  load.writes.begin(), load.writes.end(),
                  [](const Mutation& m) {
                    return m.kind == Mutation::Kind::kRemoveUser;
                  })),
              "count", "higher");

  const Paths copy = MakePaths(options, "recovery-copy");
  const Crashes crashes =
      CrashAndRecover(options, config, paths, copy, drained, reads, &server,
                      &reference, out);
  CheckLoad(load, before, drained, out);
  ReportReads(load, out);
  const double recover_inproc_s = Median(crashes.inproc_recover_s);
  const double read_inproc_ms = Median(crashes.inproc_read_ms);
  out->Report("recover_s", Median(crashes.recover_s), "s", "lower");
  out->Report("restart_s", Median(crashes.restart_s), "s", "lower");
  out->Report("recover_inproc_s", recover_inproc_s, "s", "lower");
  out->Report("read_inproc_ms", read_inproc_ms, "ms", "lower");

  server.Signal(SIGTERM);
  out->Check(server.Wait() == 0, "geacc_serve did not shut down cleanly");
  StartFresh(config, paths, kLateSetups, &server, &setup_s, &reference, out);
  out->Report("setup_s", Median(setup_s), "s", "lower");
  out->Report("peak_rss_mb", out->values["peak_rss_mb"], "MiB", "lower");
  out->Report("reference_s", reference.MedianSeconds(), "s", "lower");
  // The gated times at the reference speed, like the solve times. The
  // server runs on other cores than the reference computation, but a host
  // that is slower or faster for minutes moves both: between two ten-seed
  // sets, the reference median fell 33%, set-up 34%, and the writer's time
  // per write 32%.
  out->values["setup_s"] = reference.AtReferenceSpeed(Median(setup_s));
  out->values["fast_path_ms"] = reference.AtReferenceSpeed(read_inproc_ms);
  out->values["slow_path_ms"] =
      reference.AtReferenceSpeed(recover_inproc_s) * 1e3;
  out->values["throughput_per_s"] = capacity / reference.AtReferenceSpeed(1.0);
  out->values["max_sum"] = crashes.last.max_sum;
  server.Signal(SIGTERM);
  out->Check(server.Wait() == 0, "geacc_serve did not shut down cleanly");

  if (options.trace) {
    Tracer tracer;
    if (!crashes.recover_s.empty()) {
      TraceRecovery(copy, crashes.first_kill, &tracer, out);
    }
    const geacc::Instance initial = MakeInitialInstance(config);
    const ReplayResult untraced =
        Replay(initial, load, options.workdir, nullptr);
    const ReplayResult traced = Replay(initial, load, options.workdir, &tracer);
    SetReplayMetrics(tracer, traced, untraced, load, drained, config.dim, out);
    tracer.Write(options.workdir + "/spans.json");
  }
}

}  // namespace perfbench
